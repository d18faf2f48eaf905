"""The three workloads: what a pass runs, how its inputs are made, and the
checks on its outputs.

Every pass drives the CLI in process through flipiet.cli.main, in a fresh
interpreter started by run.py.  Nothing here imports flipiet at module level,
so that the import is timed as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

CENSUS_ARGV = ["search", "--n", "5", "--max-len", "14", "--jobs", "1"]
BLOWUP_GAPS = 20000
BLOWUP_ARGV = ["wandering", "--gaps", str(BLOWUP_GAPS)]
# A seed draws SPECTRA_PER_PASS of the SPECTRA_POOL pool matrices.  Drawing
# most of a small pool keeps the total work nearly seed-independent (matrix
# costs are heavy-tailed), while order and subset still follow the seed.
SPECTRA_POOL = 250           # matrices with a recorded reference report
SPECTRA_PER_PASS = 200       # >= 100, so p90 has at least ten samples beyond it
SPECTRA_PATH_LEN = (14, 24)


def digest(obj) -> str:
    """Short SHA-256 of an object's canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(argv):
    """flipiet.cli.main on argv; returns (exit code, captured stdout)."""
    from flipiet.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# spectra inputs

def pool_matrix(graph, k):
    """Matrix k of the spectra pool: the product along a random path of
    length 14-24 in the graph, drawn again until the product is quasi-positive.
    Path k depends only on k and the graph."""
    from flipiet.polys import mat_identity, mat_mul, quasi_positive
    rng = random.Random(k)
    while True:
        v = rng.randrange(len(graph.nodes))
        prod = mat_identity(graph.n)
        for _ in range(rng.randint(*SPECTRA_PATH_LEN)):
            types = [t for t in (0, 1) if graph.succ[v][t] is not None]
            if not types:
                break
            t = rng.choice(types)
            prod = mat_mul(prod, graph.mats[v][t])
            v = graph.succ[v][t]
        else:
            if quasi_positive(prod):
                return prod


def spectra_indices(seed):
    """The pool entries one pass of the given seed uses, in call order."""
    return random.Random(seed).sample(range(SPECTRA_POOL), SPECTRA_PER_PASS)


def spectral_report_digest(text):
    report = json.loads(text)
    report.pop("config", None)
    return digest(report)


# ---------------------------------------------------------------------------
# workloads: setup(seed, work) -> inputs; run(inputs, work, clock) ->
# (outputs, item latencies by clock or None); check(outputs, ref) ->
# (attempted, failed, problems).  An operation is a pass for census and
# blowup, and a matrix for spectra.

class Census:
    name = "census"
    ops_per_pass = 1

    def setup(self, seed, work):
        return None                       # the paper's fixed input

    def run(self, inputs, work, clock):
        out = os.path.join(work, "census")
        rc, _ = run_cli(CENSUS_ARGV + ["--out", out])
        return {"rc": rc, "out": out}, None

    def check(self, outputs, ref):
        if outputs["rc"] != 0:
            return 1, 1, [f"census: exit code {outputs['rc']}"]
        with open(os.path.join(outputs["out"], "search_report.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("runtime_seconds", None)
        problems = check_census(report, ref["census"])
        return 1, int(bool(problems)), problems


def check_census(report, expected, graph=None):
    """Problems with a search report (minus runtime_seconds); [] when it
    matches.  graph, if given, saves rebuilding the n=5 graph."""
    from flipiet import quintic
    from flipiet.search import rauzy_graph_build
    problems = []
    if report.get("cycles_checked") != expected["cycles_checked"]:
        problems.append(f"census: {report.get('cycles_checked')} cycles checked, "
                        f"expected {expected['cycles_checked']}")
    qual = report.get("qualifying", [])
    if len(qual) != expected["qualifying"]:
        problems.append(f"census: {len(qual)} qualifying, expected "
                        f"{expected['qualifying']}")
    if not all(c["validated"] for c in qual):
        problems.append("census: a qualifying cycle failed validation")
    content = [[c["nodes"], c["types"], c["product"]] for c in qual]
    if digest(content) != expected["qualifying_digest"]:
        problems.append("census: qualifying cycles differ from the reference")
    bundled = tuple(quintic.SIGNED_PERMUTATION)
    mine = [c for c in qual if list(bundled) in c["nodes"]]
    if mine:
        graph = graph or rauzy_graph_build(5)
    if not any(_rotated_product(c, bundled, graph) == quintic.MATRIX
               for c in mine):
        problems.append("census: no qualifying cycle rotates to the bundled "
                        "one with product quintic.MATRIX")
    return problems


def _rotated_product(c, node, graph):
    """Product of cycle c started at node, from the graph's own matrices;
    None when c walks an edge the graph lacks."""
    from flipiet.search import CycleCandidate
    cand = CycleCandidate(nodes=tuple(tuple(nd) for nd in c["nodes"]),
                          types=tuple(c["types"]),
                          product=tuple(tuple(r) for r in c["product"]),
                          theta1=c["theta1"], theta2=c["theta2"])
    try:
        return cand.rotate_to(node, graph)[2]
    except (KeyError, TypeError):     # unknown node, or missing edge matrix
        return None


class Spectra:
    name = "spectra"
    ops_per_pass = SPECTRA_PER_PASS

    def setup(self, seed, work):
        from flipiet.search import rauzy_graph_build
        graph = rauzy_graph_build(5)
        mdir = os.path.join(work, "matrices")
        os.makedirs(mdir, exist_ok=True)
        items = []
        for k in spectra_indices(seed):
            m = pool_matrix(graph, k)
            path = os.path.join(mdir, f"{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([list(r) for r in m], fh)
            items.append((k, path, m))
        return items

    def run(self, inputs, work, clock):
        outputs, lat = [], []
        for k, path, m in inputs:
            t0 = clock()
            try:
                rc, text = run_cli(["spectral", "--matrix", path])
            except Exception as exc:      # counted as a failed item
                rc, text = None, f"{type(exc).__name__}: {exc}"
            lat.append(clock() - t0)
            outputs.append((k, m, rc, text))
        return outputs, lat

    def check(self, outputs, ref):
        problems = check_spectra(outputs, ref["spectra"])
        return len(outputs), len(problems), problems


def check_spectra(outputs, expected):
    """Problems with (k, matrix, exit code, stdout) items, at most one per
    item; an input mismatch is reported apart from a wrong report."""
    problems = []
    for k, m, rc, text in outputs:
        if digest([list(r) for r in m]) != expected["matrices"][k]:
            problems.append(f"spectra: input mismatch at pool entry {k}")
        elif rc != 0:
            problems.append(f"spectra: entry {k} exit code {rc}: {text[:200]}")
        elif spectral_report_digest(text) != expected["reports"][k]:
            problems.append(f"spectra: report of entry {k} differs")
    return problems


class Blowup:
    name = "blowup"
    ops_per_pass = 1

    def setup(self, seed, work):
        return None                       # the bundled example, fixed

    def run(self, inputs, work, clock):
        out = os.path.join(work, "blowup")
        rc, _ = run_cli(BLOWUP_ARGV + ["--out", out])
        return {"rc": rc, "out": out}, None

    def check(self, outputs, ref):
        if outputs["rc"] != 0:
            return 1, 1, [f"blowup: exit code {outputs['rc']}"]
        out = outputs["out"]
        with open(os.path.join(out, "wandering_certificate.json"),
                  encoding="utf-8") as fh:
            cert = json.load(fh)
        with open(os.path.join(out, "gaps.csv"), encoding="utf-8") as fh:
            word = window_word(fh.read())
        problems = check_blowup(cert, word, ref["blowup"])
        return 1, int(bool(problems)), problems


def window_word(gaps_csv_text):
    """The symbol column of a gaps.csv dump."""
    rows = gaps_csv_text.strip().split("\n")[1:]
    return [int(r.split(",")[1]) for r in rows]


def check_blowup(cert, word, expected):
    problems = []
    if not cert.get("certificate", {}).get("ok"):
        problems.append("blowup: certificate not ok")
    if not cert.get("certificate", {}).get("kappa_ok"):
        problems.append("blowup: kappa not ok")
    if cert.get("blowup_address") != expected["blowup_address"]:
        problems.append(f"blowup: address {cert.get('blowup_address')}, expected "
                        f"{expected['blowup_address']}")
    if cert.get("sign_choice") != expected["sign_choice"]:
        problems.append(f"blowup: sign {cert.get('sign_choice')}, expected "
                        f"{expected['sign_choice']}")
    if digest(word) != expected["word_digest"]:
        problems.append("blowup: window symbol word differs from the reference")
    return problems


WORKLOADS = {w.name: w for w in (Census(), Spectra(), Blowup())}
