"""flipiet benchmark: census, spectra and blowup workloads.

    python3 perfbench/run.py --workload census|spectra|blowup|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each timed pass and each extra set-up runs
in a fresh interpreter (passrun.py), so every pass starts from the state a
CLI user's run starts from.

--trace 0 repeats passes on the same inputs until S seconds have passed (at
least one pass), adds set-up-only interpreters up to SETUPS set-ups, and
reports the end-to-end metrics.  Every time is scaled by the speed factor its
interpreter sampled (calib.py) to the reference machine speed; CPU time by
the factor sampled in CPU time.  wall_s and
cpu_s are then the best pass of the run, an item's latency is its best over
the passes, and setup_s is the median set-up.  --trace 1 runs an untraced
and a traced pass side by side and reports the per-layer metrics, with
trace.overhead_ratio from the two scaled wall times; per-layer times are
raw.  Either way the last line of stdout is one JSON object with correct,
attempted, failed and metrics; the lines before it print each metric with
its unit and the raw times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3              # set-ups per untraced run; setup_s is their median
TIME_LIMIT_S = 175      # a run never outlives this, whatever --seconds says

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "item_p50_ms": "ms",
             "item_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload, seed, seconds):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.t0 = time.perf_counter()
        self.work = os.path.join(ROOT, ".bench_work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.calls = 0

    def elapsed(self):
        return time.perf_counter() - self.t0

    def start(self, mode, trace=0):
        """Start passrun.py; returns what finish() waits on."""
        self.calls += 1
        work = os.path.join(self.work, f"{mode}-{self.calls}")
        result = os.path.join(work, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--workload", self.wl, "--seed", str(self.seed), "--mode", mode,
               "--trace", str(trace), "--work", work, "--result", result]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL)
        return proc, mode, work, result

    def finish(self, started):
        """Wait for a started interpreter; its result, or None when it died."""
        proc, mode, work, result = started
        try:
            proc.wait(timeout=max(1.0, TIME_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"{self.wl}: a {mode} interpreter timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(result):
            print(f"{self.wl}: a {mode} interpreter exited with {proc.returncode}",
                  file=sys.stderr)
            return None
        with open(result, encoding="utf-8") as fh:
            r = json.load(fh)
        src = os.path.join(ROOT, "src", "flipiet")
        if os.path.dirname(r["flipiet_file"]) != src:
            raise BenchError(f"flipiet imported from {r['flipiet_file']}, "
                             f"not from {src}")
        r["work"] = work
        return r

    def child(self, mode, trace=0):
        return self.finish(self.start(mode, trace))

    def scored(self, r):
        """(result or None, attempted, failed); a dead pass fails all its
        operations."""
        ops = WORKLOADS[self.wl].ops_per_pass
        if r is None:
            return None, ops, ops
        for p in r["problems"]:
            print(p.rstrip(), file=sys.stderr)
        return r, r["attempted"], r["failed"]


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_untraced(runner):
    passes, attempted, failed = [], 0, 0
    while True:
        r, a, f = runner.scored(runner.child("pass"))
        attempted += a
        failed += f
        if r is None:
            break
        passes.append(r)
        if runner.elapsed() >= runner.seconds:
            break
    if not passes:
        raise BenchError("no pass completed")
    setups = [p["setup_s"] * p["speed"] for p in passes]
    while len(setups) < SETUPS:
        r = runner.child("setup")
        if r is None:
            raise BenchError("set-up failed")
        setups.append(r["setup_s"] * r["speed"])
    # every pass repeats the same items; an item's latency is its best
    items = [min(x) for x in zip(*([t * p["speed"] for t in p["items_s"]]
                                   for p in passes))]
    metrics = {
        "wall_s": min(p["wall_s"] * p["speed"] for p in passes),
        "cpu_s": min(p["cpu_s"] * p["cpu_speed"] for p in passes),
        "item_p50_ms": 1000 * statistics.median(items),
        "item_p90_ms": 1000 * percentile(items, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }
    digests = sorted({p["inputs_digest"] for p in passes if "inputs_digest" in p})
    raw = ", ".join(f"{p['wall_s']:.3f} s at speed {p['speed']:.3f}" for p in passes)
    note = (f"{len(passes)} passes (raw wall {raw}), {len(items)} items "
            f"({sum(1 for x in items if x > percentile(items, 0.9))} beyond p90), "
            f"{len(setups)} set-ups, failed_ratio {failed}/{attempted}"
            + (f", inputs {' '.join(digests)}" if digests else ""))
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, attempted, failed, note


def run_traced(runner):
    # side by side, so that a traced census ends well inside the time limit;
    # each pass's own speed samples scale its time
    started = [runner.start("pass", trace) for trace in (0, 1)]
    (plain, a0, f0), (traced, a1, f1) = [runner.scored(runner.finish(x))
                                         for x in started]
    if plain is None or traced is None:
        raise BenchError("a pass of the traced run did not complete")
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = ((traced["wall_s"] * traced["speed"])
                                      / (plain["wall_s"] * plain["speed"]) - 1)
    units = {name: unit for name, unit, _b, _m in layers.metric_table()}
    spans = os.path.relpath(os.path.join(traced["work"], "trace_spans.json"), ROOT)
    note = (f"raw untraced wall {plain['wall_s']:.3f} s at speed "
            f"{plain['speed']:.3f}, traced {traced['wall_s']:.3f} s at "
            f"{traced['speed']:.3f}, spans in {spans}, "
            f"failed_ratio {f0 + f1}/{a0 + a1}")
    return ({k: (values[k], units[k]) for k in units}, a0 + a1, f0 + f1, note)


def run_workload(workload, seed, seconds, trace):
    runner = Runner(workload, seed, seconds)
    metrics, attempted, failed, note = (run_traced if trace else run_untraced)(runner)
    print(f"== {workload} seed={seed} trace={trace}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    return metrics, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flipiet", "__init__.py")):
        print("error: src/flipiet not found; run from a flipiet checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            m, a, f = run_workload(name, args.seed, args.seconds, args.trace)
            prefix = name + "." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in m.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
