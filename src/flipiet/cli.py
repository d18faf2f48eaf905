"""Command-line surface.

Subcommands:
  selfsim    reproduce the induction cycle, return words, matrix and the
             self-similarity certificate for the bundled example (or --spec)
  wandering  run the blow-up pipeline and emit the certificate and gap dump
  search     enumerate induction cycles and screen their matrices
  induct     emit an induction trace for a spec
  orbit      iterate a point and report the orbit
  eval       apply the exchange (or its inverse) to one point
  spectral   exact spectral report of an integer matrix

With --out, wandering opens gaps.csv before it verifies the certificate and
runs the ergodic probe, and writes it after them, before the certificate.
A report is rendered only when it is written or printed.  Only search takes
--jobs.  Only selfsim and wandering (and --probe-steps) import denjoy and
selfsim.

Exit codes: 0 success, 1 mismatch or failed certificate, 2 usage error,
3 construction error.  Reports embed the settings that produced them and are
deterministic byte for byte for a fixed configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache

from . import quintic
from .errors import FlipIetError
from .io import (coords_to_str, fraction_to_str, gaps_csv, iet_from_json,
                 induction_trace_csv, return_words_csv)
from .rauzy import cycle_matrix, rauzy_run
from .spectral import perron_data, screen_real_roots
from .search import cycle_search, rauzy_graph_build


def _out_file(args, name):
    """Open the file name in the --out directory (made if missing) for writing."""
    os.makedirs(args.out, exist_ok=True)
    return open(os.path.join(args.out, name), "w", encoding="utf-8")


def _emit(obj, args, name):
    text = json.dumps(obj, indent=2, sort_keys=True, default=str)
    if args.out:
        with _out_file(args, name) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write(text, args, name):
    with _out_file(args, name) as fh:
        fh.write(text)


def _read_json(path, option):
    """The JSON value in the file at path; a file that cannot be opened or
    parsed is a usage error of option (exit 2)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        build_parser().error(f"{option} {path}: {exc}")


def _load_spec(args):
    """The --spec exchange, or the bundled one.  A spec with a key missing
    or a value of the wrong kind is a usage error (exit 2)."""
    if not getattr(args, "spec", None):
        return quintic.bundled_iet(), True
    obj = _read_json(args.spec, "--spec")
    try:
        return iet_from_json(obj), False
    except (KeyError, TypeError, ValueError) as exc:
        build_parser().error(f"--spec {args.spec}: not an exchange spec "
                             f"({type(exc).__name__}: {exc})")


def _config_of(args):
    """The subcommand's settings, defaults included; unset paths are left out."""
    return {k: v for k, v in vars(args).items()
            if k not in ("command", "fn") and v is not None}


def _factors_json(sd):
    return {"char_poly": list(sd.char_poly.coeffs),
            "factors": [{"coeffs": list(f.coeffs), "multiplicity": mult}
                        for f, mult in sd.factors]}


def cmd_selfsim(args):
    from . import denjoy, selfsim       # here: see the module docstring
    E, bundled = _load_spec(args)
    steps = rauzy_run(E, 14) if bundled else None
    report = {"config": _config_of(args)}
    mismatches = []
    if bundled:
        if args.out:
            _write(induction_trace_csv(steps), args, "induction_trace.csv")
        got = [(st.before, st.type_bit) for st in steps]
        got.append((steps[-1].after, None))
        for k, (sp, t) in enumerate(quintic.REFERENCE_STEPS):
            if got[k] != (sp, t):
                mismatches.append(f"trace row {k}")
        prod = cycle_matrix(steps)
        if prod != quintic.MATRIX:
            mismatches.append("matrix product")
        report["matrix"] = [list(r) for r in prod]
    ind = denjoy.induction_cycle(E, args.max_len)
    if ind is None:
        report["cycle"] = None
        mismatches.append("no induction cycle within bound")
    else:
        scale = ind.cycle.scale
        report["cycle"] = {"length": len(ind.cycle.steps),
                           "scale": scale.decimal(args.digits)
                           if hasattr(scale, "decimal") else float(scale)}
        its = ind.itineraries
        if args.out:
            _write(return_words_csv(its), args, "return_words.csv")
        if bundled:
            ref = {i: (n, w) for (i, n, w) in quintic.REFERENCE_ITINERARIES}
            for i in ref:
                if (its.exponents[i - 1], its.words[i - 1]) != ref[i]:
                    mismatches.append(f"return word {i}")
            if ind.matrix != quintic.MATRIX:
                mismatches.append("associated matrix")
        ss = selfsim.self_similarity_check(E, ind.J)
        report["self_similar"] = bool(ss.ok)
        if not ss.ok:
            mismatches.append(f"self-similarity: {ss.reason}")
    report["mismatches"] = mismatches
    _emit(report, args, "selfsim_report.json")
    return 1 if mismatches else 0


@contextlib.contextmanager
def _opened_first(args, name):
    """The file name in the --out directory, opened before the block, so that
    a bad --out fails before it, and removed if the block raises, which
    leaves the files of a run that raised before writing it."""
    with _out_file(args, name) as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            os.remove(fh.name)
            raise


def cmd_wandering(args):
    from . import denjoy                 # here: see the module docstring
    E, _bundled = _load_spec(args)
    N = args.gaps
    chain = denjoy.blowup_chain(E, args.max_len)
    sd, lsv = chain.spectral, chain.lsv
    spectral_report = {
        **_factors_json(sd),
        "roots": [r.decimal(args.digits) for r, _ in sd.real_roots][::-1],
        "perron_vector": [v.decimal(args.digits) for v in sd.perron[1]],
        "verdict": chain.verdict.reason,
    }
    if lsv is None:
        report = {"config": _config_of(args), "spectral": spectral_report,
                  "qualifies": False}
        _emit(report, args, "wandering_certificate.json")
        return 1
    gs = denjoy.gap_system_build(E, chain.sigma, lsv, N)
    dump = _opened_first(args, "gaps.csv") if args.out else contextlib.nullcontext()
    with dump as fh:
        T = denjoy.aiet_from_gaps(gs)
        cert = denjoy.verify_wandering(gs, T, E, kappa_target=chain.kappa_target)
        probe = denjoy.ergodic_probe(E, 5, args.probe_steps,
                                     reference=[float(v) for v in E.lengths])
        if fh is not None:
            gaps_csv(gs, fh)
    certificate = dataclasses.asdict(cert)
    certificate.update(kappa_target=chain.kappa_target, ok=cert.ok)
    report = {
        "config": _config_of(args),
        "spectral": spectral_report,
        "qualifies": True,
        "blowup_address": list(lsv.address),
        "sign_choice": lsv.sign_choice,
        "log_slopes": [float(v) for v in lsv.signed_float],
        "tail_estimate": gs.tail_estimate,
        "certificate": certificate,
        "ergodic_probe": {
            "steps": probe.steps,
            "max_deviation_from_lengths": probe.max_deviation,
            "cross_seed_spread": probe.spread,
            "retries": probe.retries,
        },
    }
    if N < 100:
        report["certificate"]["note"] = ("window too small for the density "
                                         "checks to be conclusive")
    _emit(report, args, "wandering_certificate.json")
    return 0 if cert.ok and cert.kappa_ok else 1


def cmd_search(args):
    graph = rauzy_graph_build(args.n, not args.no_flips)
    result = cycle_search(graph, args.max_len, jobs=args.jobs)
    absent = int((graph.targets < 0).sum())     # each leaves the node class
    report = {
        "config": _config_of(args),
        "n": result.n,
        "require_flips": result.require_flips,
        "max_len": result.max_len,
        "nodes": result.node_count,
        "cycles_checked": result.cycles_checked,
        "screen_reasons": result.screen_reasons,
        "absent_edges": ({"target outside node class": absent} if absent
                         else {}),
        "qualifying": [
            {"nodes": [list(nd) for nd in c.nodes],
             "types": list(c.types),
             "product": [list(r) for r in c.product],
             "theta1": c.theta1, "theta2": c.theta2,
             "validated": c.validated,
             "validation": c.validation_reason}
            for c in result.qualifying
        ],
    }
    _emit(report, args, "search_report.json")
    return 0


def cmd_induct(args):
    E, _ = _load_spec(args)
    trace = induction_trace_csv(rauzy_run(E, args.steps))
    if args.out:
        _write(trace, args, "induction_trace.csv")
    else:
        print(trace, end="")
    return 0


def cmd_orbit(args):
    E, _ = _load_spec(args)
    Ef = E.as_float()
    seg = Ef.orbit(args.x, args.steps)
    report = {"config": _config_of(args),
              "points": [float(p) for p in seg.points],
              "word": list(seg.word),
              "terminated_at_discontinuity": seg.terminated_at_discontinuity}
    _emit(report, args, "orbit.json")
    return 0


def cmd_eval(args):
    E, _ = _load_spec(args)
    if isinstance(args.x, float):
        print(repr(E.as_float().eval(args.x, inverse=args.inverse)))
    else:
        val = E.eval(args.x, inverse=args.inverse)
        print(val.decimal(args.digits) if hasattr(val, "decimal")
              else fraction_to_str(val))
    return 0


def _read_matrix(path):
    """The square integer matrix in the JSON file at path; anything else is a
    usage error (exit 2)."""
    rows = _read_json(path, "--matrix")
    if not (isinstance(rows, list) and rows and all(
            isinstance(r, list) and len(r) == len(rows)
            and all(type(v) is int for v in r) for r in rows)):
        build_parser().error(f"--matrix {path}: not a square integer matrix")
    return tuple(map(tuple, rows))


def cmd_spectral(args):
    m = _read_matrix(args.matrix) if args.matrix else quintic.MATRIX
    sd = perron_data(m)
    verdict = screen_real_roots(sd.real_roots)
    report = {
        "config": _config_of(args),
        **_factors_json(sd),
        "roots": [r.decimal(args.digits) for r, _ in sd.real_roots][::-1],
        "perron_vector_decimal": [v.decimal(args.digits) for v in sd.perron[1]],
        "perron_vector_exact": [coords_to_str(v) for v in sd.perron[1]],
        "verdict": verdict.reason,
    }
    _emit(report, args, "spectral_report.json")
    return 0


def positive_int(text):
    val = int(text)
    if val <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return val


def finite_float(text):
    val = float(text)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text} is not finite")
    return val


def point(text):
    """An exact p/q as its Fraction, anything else as a finite float."""
    try:
        return Fraction(text) if "/" in text else finite_float(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text} divides by zero") from None


def probe_steps(text):
    from . import denjoy
    if int(text) < denjoy.MIN_PROBE_STEPS:
        raise argparse.ArgumentTypeError(f"{text} is below {denjoy.MIN_PROBE_STEPS}")
    return int(text)


@cache
def build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged."""
    ap = argparse.ArgumentParser(prog="flipiet",
                                 description="interval exchanges with flips: "
                                             "exact induction, spectra, blow-ups")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, spec=True, digits=True):
        if spec:
            p.add_argument("--spec", help="JSON exchange spec (default: bundled)")
        if digits:
            p.add_argument("--digits", type=positive_int, default=12)

    p = sub.add_parser("selfsim", help="reproduce the induction cycle and certificate")
    common(p)
    p.add_argument("--max-len", type=positive_int, default=20)
    p.set_defaults(fn=cmd_selfsim)

    p = sub.add_parser("wandering", help="blow-up pipeline and certificate")
    common(p)
    p.add_argument("--gaps", type=positive_int, default=5000)
    p.add_argument("--max-len", type=positive_int, default=20)
    p.add_argument("--probe-steps", type=probe_steps, default=10 ** 6)
    p.set_defaults(fn=cmd_wandering)

    p = sub.add_parser("search", help="cycle census and eigenvalue screen")
    common(p, spec=False, digits=False)
    p.add_argument("--n", type=int, choices=range(2, 8), metavar="{2..7}",
                   required=True)
    p.add_argument("--max-len", type=int, choices=range(1, 21),
                   metavar="{1..20}", default=14)
    p.add_argument("--no-flips", action="store_true")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("induct", help="induction trace")
    common(p, digits=False)
    p.add_argument("--steps", type=positive_int, default=14)
    p.set_defaults(fn=cmd_induct)

    p = sub.add_parser("orbit", help="orbit of a point (float arithmetic)")
    common(p, digits=False)
    p.add_argument("--x", type=finite_float, required=True)
    p.add_argument("--steps", type=positive_int, default=100)
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("eval", help="apply the exchange to a point")
    common(p)
    p.add_argument("--x", type=point, required=True, help="float or exact p/q")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("spectral", help="exact spectral report of a matrix")
    common(p, spec=False)
    p.add_argument("--matrix", help="JSON file with an integer matrix")
    p.set_defaults(fn=cmd_spectral)

    for name, p in sub.choices.items():
        if name != "eval":          # eval prints its one value
            p.add_argument("--out", help="directory for report files")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FlipIetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
