"""Record reference.json, the expected outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs the census and the blow-up once each and the spectral report of every
spectra pool matrix, in this process, and writes what the checks compare:
counts and a digest of the qualifying cycles, the blow-up address, sign and
window word digest, and per pool entry the digests of its matrix and of its
report minus config.  Re-record only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (BLOWUP_ARGV, CENSUS_ARGV, SPECTRA_POOL, digest,  # noqa: E402
                       pool_matrix, run_cli, spectral_report_digest,
                       window_word)


def _ok(result, what):
    if result[0] != 0:
        raise SystemExit(f"{what}: exit code {result[0]}")
    return result


def main():
    from flipiet.search import rauzy_graph_build
    ref = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as work:
        _ok(run_cli(CENSUS_ARGV + ["--out", work]), "census")
        with open(os.path.join(work, "search_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        qual = report["qualifying"]
        ref["census"] = {
            "cycles_checked": report["cycles_checked"],
            "qualifying": len(qual),
            "qualifying_digest": digest([[c["nodes"], c["types"], c["product"]]
                                         for c in qual]),
        }
        _ok(run_cli(BLOWUP_ARGV + ["--out", work]), "blowup")
        with open(os.path.join(work, "wandering_certificate.json"),
                  encoding="utf-8") as fh:
            cert = json.load(fh)
        with open(os.path.join(work, "gaps.csv"), encoding="utf-8") as fh:
            word = window_word(fh.read())
        ref["blowup"] = {"blowup_address": cert["blowup_address"],
                         "sign_choice": cert["sign_choice"],
                         "word_digest": digest(word)}
        graph = rauzy_graph_build(5)
        matrices, reports = [], []
        for k in range(SPECTRA_POOL):
            m = pool_matrix(graph, k)
            path = os.path.join(work, "m.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([list(r) for r in m], fh)
            rc, text = _ok(run_cli(["spectral", "--matrix", path]),
                           f"spectra pool entry {k}")
            matrices.append(digest([list(r) for r in m]))
            reports.append(spectral_report_digest(text))
        ref["spectra"] = {"matrices": matrices, "reports": reports}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
