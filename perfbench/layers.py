"""Per-layer metrics of the traced run: what is wrapped, how each metric is
computed, and which end-to-end metric on which workload it should move.

CALLS_BUSY_SELF expands to the three metrics .calls, .busy_s and .self_s.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

REASONS = ("qualifies", "not_quasi_positive", "no_real_theta2_gt1",
           "not_conjugate")


def _count_reason(verdict, counts):
    counts["spectral.bhm_screen.reason." + verdict.reason] += 1


def _count_checked(result, counts):
    counts["search.cycles_checked"] += result.cycles_checked


def _count_validated(cand, counts):
    counts["search.cycle_validate.ok"] += bool(cand.validated)


def _count_orbit_steps(gs, counts):
    counts["denjoy.gap_system_build.orbit_steps"] += 2 * gs.half_width + 1


def _count_retries(report, counts):
    counts["denjoy.ergodic_probe.retries"] += report.retries


# (module, attribute, recorded as spans?, hook on the return value)
WRAPPED = (
    ("flipiet.cli", "cmd_search", True, None),
    ("flipiet.cli", "cmd_spectral", True, None),
    ("flipiet.cli", "cmd_wandering", True, None),
    ("flipiet.search", "rauzy_graph_build", True, None),
    ("flipiet.search", "cycle_search", True, _count_checked),
    ("flipiet.search", "cycle_validate", True, _count_validated),
    ("flipiet.spectral", "bhm_screen", True, _count_reason),
    ("flipiet.spectral", "perron_data", True, None),
    ("flipiet.spectral", "real_eigenvalues", True, None),
    ("flipiet.spectral", "solve_eigenvector", True, None),
    ("flipiet.polys", "factor_rational", True, None),
    ("flipiet.polys", "char_poly", True, None),
    ("flipiet.polys", "isolate_real_roots", True, None),
    ("flipiet.selfsim", "induce", True, None),
    ("flipiet.selfsim", "cylinder_locate", True, None),
    ("flipiet.selfsim", "stationary_window", True, None),
    ("flipiet.rauzy", "rauzy_cycle_detect", True, None),
    ("flipiet.denjoy", "log_slope_select", True, None),
    ("flipiet.denjoy", "gap_system_build", True, _count_orbit_steps),
    ("flipiet.denjoy", "verify_wandering", True, None),
    ("flipiet.denjoy", "ergodic_probe", True, _count_retries),
    ("flipiet.io", "gaps_csv", True, None),
    # hot leaves: counted, not recorded as spans
    ("flipiet.polys", "mat_mul", False, None),
    ("flipiet.polys", "quasi_positive", False, None),
    ("flipiet.polys", "refine_root_interval", False, None),
    ("flipiet.numfield", "AlgebraicNumber.sign", False, None),
    ("flipiet.numfield", "AlgebraicNumber.__mul__", False, None),
    ("flipiet.numfield", "AlgebraicNumber.inverse", False, None),
    ("flipiet.iet", "IetSpec.piece_of", False, None),
)

CALLS_BUSY_SELF = ((".calls", "count"), (".busy_s", "s"), (".self_s", "s"))

# (metric, unit, better, the end-to-end metric and workload it should move)
LAYER_MAP = (
    ("search.rauzy_graph_build.busy_s", "s", "lower",
     "census wall_s; spectra setup_s"),
    ("search.cycle_search.self_s", "s", "lower", "census wall_s"),
    ("search.cycles_checked", "count", "higher",
     "exact count; census output check"),
    ("search.cycle_validate", CALLS_BUSY_SELF, "lower", "census wall_s"),
    ("search.cycle_validate.ok_ratio", "ratio", "higher",
     "census output check"),
    ("spectral.bhm_screen", CALLS_BUSY_SELF, "lower", "census wall_s"),
) + tuple(
    (f"spectral.bhm_screen.reason.{r}", "count", "higher",
     "exact count; census output check") for r in REASONS
) + (
    ("spectral.bhm_screen.qualify_ratio", "ratio", "higher",
     "exact ratio; census output check"),
    ("spectral.perron_data", CALLS_BUSY_SELF, "lower",
     "spectra wall_s, item_p50_ms"),
    ("spectral.real_eigenvalues.busy_s", "s", "lower",
     "spectra wall_s, item_p50_ms"),
    ("spectral.solve_eigenvector.busy_s", "s", "lower",
     "spectra wall_s, item_p50_ms"),
    ("polys.quasi_positive", CALLS_BUSY_SELF, "lower", "census wall_s"),
    ("polys.mat_mul", CALLS_BUSY_SELF, "lower", "census wall_s"),
    ("polys.factor_rational", CALLS_BUSY_SELF, "lower",
     "spectra wall_s, item_p90_ms"),
    ("polys.char_poly.busy_s", "s", "lower", "spectra wall_s"),
    ("polys.isolate_real_roots.busy_s", "s", "lower", "spectra wall_s"),
    ("polys.refine_root_interval", CALLS_BUSY_SELF, "lower", "blowup wall_s"),
    ("numfield.AlgebraicNumber.sign", CALLS_BUSY_SELF, "lower",
     "blowup wall_s"),
    ("numfield.AlgebraicNumber.__mul__", CALLS_BUSY_SELF, "lower",
     "spectra wall_s"),
    ("numfield.AlgebraicNumber.inverse", CALLS_BUSY_SELF, "lower",
     "spectra wall_s"),
    ("selfsim.induce", CALLS_BUSY_SELF, "lower", "census wall_s; blowup wall_s"),
    ("selfsim.cylinder_locate.busy_s", "s", "lower", "blowup wall_s"),
    ("selfsim.stationary_window.busy_s", "s", "lower", "blowup wall_s"),
    ("rauzy.rauzy_cycle_detect", CALLS_BUSY_SELF, "lower",
     "census wall_s; blowup wall_s"),
    ("iet.IetSpec.piece_of.calls", "count", "lower", "blowup wall_s"),
    ("denjoy.gap_system_build.exact_fallback_ratio", "ratio", "lower",
     "blowup wall_s"),
    ("denjoy.log_slope_select.busy_s", "s", "lower", "blowup wall_s"),
    ("denjoy.gap_system_build", CALLS_BUSY_SELF, "lower", "blowup wall_s"),
    ("denjoy.verify_wandering.busy_s", "s", "lower", "blowup wall_s"),
    ("denjoy.ergodic_probe.busy_s", "s", "lower", "blowup wall_s"),
    ("denjoy.ergodic_probe.retries", "count", "lower", "blowup wall_s"),
    ("io.gaps_csv.busy_s", "s", "lower", "blowup wall_s"),
    ("cli.cmd_search.busy_s", "s", "lower", "census wall_s"),
    ("cli.cmd_spectral.busy_s", "s", "lower", "spectra wall_s"),
    ("cli.cmd_wandering.busy_s", "s", "lower", "blowup wall_s"),
    ("trace.overhead_ratio", "ratio", "lower",
     "traced wall_s over untraced wall_s, minus 1, on each workload"),
)


def metric_table():
    """[(name, unit, better, moves)] with the .calls/.busy_s/.self_s triples
    expanded, in BENCHMARK.json order."""
    out = []
    for name, unit, better, moves in LAYER_MAP:
        if unit is CALLS_BUSY_SELF:
            out += [(name + suffix, u, better, moves) for suffix, u in unit]
        else:
            out.append((name, unit, better, moves))
    return out


def install(tracer: Tracer):
    for module, attr, span, hook in WRAPPED:
        importlib.import_module(module)
        tracer.wrap(module, attr, span=span, on_return=hook)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric of one traced pass but trace.overhead_ratio,
    which needs the untraced pass too: {name: value}."""
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "search.cycles_checked": counts["search.cycles_checked"],
        "search.cycle_validate.ok_ratio": ratio(
            counts["search.cycle_validate.ok"],
            tracer.stats["search.cycle_validate"][0]),
        "spectral.bhm_screen.qualify_ratio": ratio(
            counts["spectral.bhm_screen.reason.qualifies"],
            tracer.stats["spectral.bhm_screen"][0]),
        "denjoy.gap_system_build.exact_fallback_ratio": ratio(
            tracer.calls_under("iet.IetSpec.piece_of", "denjoy.gap_system_build"),
            counts["denjoy.gap_system_build.orbit_steps"]),
        "denjoy.ergodic_probe.retries": counts["denjoy.ergodic_probe.retries"],
    }
    out = {}
    for name, _unit, _better, _moves in metric_table():
        base, _, field = name.rpartition(".")
        if name == "trace.overhead_ratio":
            continue
        if name in derived:
            out[name] = derived[name]
        elif name.startswith("spectral.bhm_screen.reason."):
            out[name] = counts[name]
        else:
            calls, busy, self_s = tracer.stats[base]
            out[name] = {"calls": calls, "busy_s": busy, "self_s": self_s}[field]
    return out
