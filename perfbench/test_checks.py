"""The benchmark's own tests: each output check passes on genuine output and
fails when its expected value is corrupted; the tracer wraps and restores;
BENCHMARK.json names the metrics the code reports.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from calib import MIN_SAMPLES, SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (check_blowup, check_census, check_spectra, digest,  # noqa: E402
                       pool_matrix, run_cli, spectra_indices, window_word)

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REF = json.load(_fh)


@pytest.fixture
def work():
    path = Path(os.path.dirname(HERE), ".bench_work", "tests")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def graph():
    from flipiet.search import rauzy_graph_build
    return rauzy_graph_build(5)


def _corruptions(expected):
    """One copy of expected per field, with that field changed."""
    for key, value in expected.items():
        bad = copy.deepcopy(expected)
        if isinstance(value, bool) or not isinstance(value, (int, str, list)):
            raise TypeError(key)
        if isinstance(value, int):
            bad[key] = value + 1
        elif isinstance(value, str):
            bad[key] = "0" * len(value) if value != "0" * len(value) else "1"
        else:
            bad[key] = value[::-1] if value != value[::-1] else value + [0]
        yield key, bad


def test_census_check(graph):
    from flipiet import quintic
    cycle = {"nodes": [list(sp) for sp, _t in quintic.REFERENCE_STEPS[:-1]],
             "types": [t for _sp, t in quintic.REFERENCE_STEPS[:-1]],
             "product": [list(r) for r in quintic.MATRIX],
             "theta1": "7.829", "theta2": "1.588", "validated": True}
    report = {"cycles_checked": REF["census"]["cycles_checked"],
              "qualifying": [cycle]}
    expected = {"cycles_checked": REF["census"]["cycles_checked"],
                "qualifying": 1,
                "qualifying_digest": digest([[cycle["nodes"], cycle["types"],
                                              cycle["product"]]])}
    assert check_census(report, expected, graph) == []
    for key, bad in _corruptions(expected):
        assert check_census(report, bad, graph), key
    unvalidated = copy.deepcopy(report)
    unvalidated["qualifying"][0]["validated"] = False
    assert check_census(unvalidated, expected, graph)
    wrong_types = copy.deepcopy(report)
    wrong_types["qualifying"][0]["types"][0] ^= 1
    assert any("rotates" in p for p in check_census(wrong_types, expected, graph))


def test_spectra_check(graph, work):
    outputs = []
    for k in (0, 1, 2):
        m = pool_matrix(graph, k)
        path = work / f"{k}.json"
        path.write_text(json.dumps([list(r) for r in m]))
        rc, text = run_cli(["spectral", "--matrix", str(path)])
        outputs.append((k, m, rc, text))
    assert check_spectra(outputs, REF["spectra"]) == []
    bad = copy.deepcopy(REF["spectra"])
    bad["matrices"][1] = "0" * 16
    assert check_spectra(outputs, bad) == ["spectra: input mismatch at pool entry 1"]
    bad = copy.deepcopy(REF["spectra"])
    bad["reports"][2] = "0" * 16
    assert check_spectra(outputs, bad) == ["spectra: report of entry 2 differs"]
    failed = outputs[:2] + [(2, outputs[2][1], 3, "error")]
    assert len(check_spectra(failed, REF["spectra"])) == 1


def test_spectra_inputs_follow_the_seed(graph):
    assert spectra_indices(7) == spectra_indices(7)
    assert spectra_indices(7) != spectra_indices(8)
    assert len(set(spectra_indices(7))) == len(spectra_indices(7)) >= 100
    m = pool_matrix(graph, 5)
    assert m == pool_matrix(graph, 5)
    assert digest([list(r) for r in m]) == REF["spectra"]["matrices"][5]


def test_blowup_check(work):
    # 3000 gaps is about the smallest window whose certificate passes
    rc, _ = run_cli(["wandering", "--gaps", "3000", "--probe-steps", "10000",
                     "--out", str(work)])
    assert rc == 0
    cert = json.loads((work / "wandering_certificate.json").read_text())
    word = window_word((work / "gaps.csv").read_text())
    assert len(word) == 6001
    expected = dict(REF["blowup"], word_digest=digest(word))
    assert check_blowup(cert, word, expected) == []
    for key, bad in _corruptions(expected):
        assert check_blowup(cert, word, bad), key
    for field in ("ok", "kappa_ok"):
        broken = copy.deepcopy(cert)
        broken["certificate"][field] = False
        assert check_blowup(broken, word, expected), field


def test_tracer_wraps_every_binding_and_restores():
    import flipiet.polys
    import flipiet.search
    original = flipiet.polys.mat_mul
    assert flipiet.search.mat_mul is original
    tracer = Tracer()
    tracer.wrap("flipiet.search", "cycle_validate", span=True)
    tracer.wrap("flipiet.polys", "mat_mul")
    tracer.wrap("flipiet.numfield", "AlgebraicNumber.__mul__")
    try:
        assert flipiet.search.mat_mul is not original
        assert flipiet.polys.mat_mul is flipiet.search.mat_mul
        from flipiet.numfield import AlgebraicNumber
        assert AlgebraicNumber.__rmul__ is AlgebraicNumber.__mul__
        from flipiet import quintic
        from flipiet.search import CycleCandidate, cycle_validate
        cand = CycleCandidate(
            nodes=tuple(sp for sp, _t in quintic.REFERENCE_STEPS[:-1]),
            types=tuple(t for _sp, t in quintic.REFERENCE_STEPS[:-1]),
            product=quintic.MATRIX, theta1="", theta2="")
        assert cycle_validate(cand).validated
    finally:
        tracer.restore()
    assert flipiet.search.mat_mul is original
    calls, busy, self_s = tracer.stats["search.cycle_validate"]
    assert calls == 1 and 0 < self_s < busy
    assert tracer.calls_under("polys.mat_mul", "search.cycle_validate") > 0
    assert tracer.stats["polys.mat_mul"][0] == sum(
        n for (name, _parent), n in tracer.counts.items() if name == "polys.mat_mul")
    assert len(tracer.spans) == 1 and tracer.spans[0][1] == "search.cycle_validate"


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _m in layers.metric_table()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == ["census", "spectra", "blowup"]


def test_speed_sampler_takes_its_time_out_of_the_clock():
    import time
    sampler = SpeedSampler()
    w0, c0 = sampler.clock(), sampler.cpu()
    sampler.start()
    try:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= MIN_SAMPLES
    assert sampler.stolen_wall == pytest.approx(sum(sampler.samples))
    assert sampler.clock() - w0 < 0.5 and sampler.cpu() - c0 < 0.5
    assert sampler.speed() > 0 and sampler.cpu_speed() > 0
