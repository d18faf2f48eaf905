"""One timed pass (or set-up alone) of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload W --seed N --mode pass|setup
                                 --trace 0|1 --work DIR --result FILE

run.py starts it with src/ on PYTHONPATH.  Set-up is timed from before
`import flipiet` to the end of input generation; the pass from its first CLI
call to its last.  With --trace 1 the interpreter is traced from set-up to the
end of the pass.  A SpeedSampler (calib.py) samples the machine's speed from
set-up to the end of the pass, out of the timed figures, and the result
carries the speed factors it gives.  Output checks run last and are not
timed.  The result, a JSON object with raw times, goes to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import traceback

import layers
from calib import SpeedSampler
from tracer import Tracer
from workloads import WORKLOADS, digest

HERE = os.path.dirname(os.path.abspath(__file__))


def _children_cpu_s():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    os.makedirs(args.work, exist_ok=True)

    # A traced interpreter is traced from set-up on, so that set-up work (the
    # n=5 graph for spectra) shows in the per-layer metrics; its setup_s, which
    # then includes the imports done by install, is not reported.
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)

    sampler = SpeedSampler()
    sampler.start()
    clock = sampler.clock
    t0 = clock()
    import flipiet
    import flipiet.cli  # noqa: F401  (the CLI is part of what a user imports)
    from flipiet import quintic
    quintic.bundled_iet()
    inputs = wl.setup(args.seed, args.work)
    result = {"setup_s": clock() - t0, "flipiet_file": flipiet.__file__}
    if inputs:    # spectra: the generated matrices
        result["inputs_digest"] = digest([[list(r) for r in m] for _, _, m in inputs])

    if args.mode == "pass":
        outputs, items, error = None, None, None
        cpu0 = sampler.cpu() + _children_cpu_s()
        w0 = clock()
        try:
            outputs, items = wl.run(inputs, args.work, clock)
        except Exception:
            error = traceback.format_exc()
        finally:
            wall = clock() - w0
            cpu = sampler.cpu() + _children_cpu_s() - cpu0
            if tracer is not None:
                tracer.restore()
        sampler.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if error is None:
            try:
                attempted, failed, problems = wl.check(outputs, _reference())
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            attempted, failed, problems = wl.ops_per_pass, wl.ops_per_pass, [error]
        result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss_mb,
                      items_s=items if items else [wall],
                      attempted=attempted, failed=failed, problems=problems)
        if tracer is not None:
            result["layers"] = layers.layer_metrics(tracer)
            tracer.write_spans(os.path.join(args.work, "trace_spans.json"))
    else:
        sampler.stop()
    result.update(speed=sampler.speed(), cpu_speed=sampler.cpu_speed(),
                  speed_samples=len(sampler.samples))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    main()
