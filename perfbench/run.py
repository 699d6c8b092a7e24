"""Run one boolcube benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {train,variance,spectral} \
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a boolcube checkout; boolcube is imported from its
src/ directory, and nothing is installed.  Each workload runs in fresh
worker processes with BLAS pinned to one thread.  With --trace 0 the
run measures set-up several times in set-up-only processes, then runs
the workload untraced and reports the end-to-end metrics.  With
--trace 1 it reports the per-layer metrics of a traced run instead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Scratch files, traces
and full results go under .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "variance", "spectral")
# Set-up is timed in this many fresh processes per run; the median is
# reported.
SETUP_SAMPLES = 5
# Every process this run starts must end before this many seconds.
LIMIT_S = 170.0


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           *args, "--t0", repr(time.monotonic())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d:\n%s"
                           % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stop(signum, frame):
    # subprocess.run kills its child on any exception, SystemExit too
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and two set-up samples (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "boolcube", "__init__.py")):
        print("perfbench: no boolcube sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + LIMIT_S
    out_root = os.path.join(ROOT, ".perfbench-out")
    work = os.path.join(out_root, "work-%s-%d" % (args.workload, os.getpid()))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", work] + (["--tiny"] if args.tiny else [])
    try:
        setups = []
        if not args.trace:
            for _ in range((2 if args.tiny else SETUP_SAMPLES) - 1):
                setups.append(_worker(common + ["--seconds", "0", "--setup-only"],
                                      env, deadline)["setup"])
        measure = ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            measure += ["--trace-file",
                        os.path.join(out_root, "trace-%s.npz" % tag)]
        res = _worker(common + measure, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = res["per_layer"]
    else:
        setups.append(res["setup"])
        res["samples"]["setup"] = [(s["setup_s"], s["probe_s"]) for s in setups]
        setup_s = statistics.median(s["setup_ref_s"] for s in setups)
        res["named"].append(("setup_s.raw_median",
                             statistics.median(s["setup_s"] for s in setups), "s"))
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
        for slot, value in res["slots"].items():
            metrics[slot + "_ms"] = {"value": value, "unit": "ms"}
    with open(os.path.join(out_root, "result-%s.json" % tag), "w") as fh:
        json.dump(res, fh, indent=1)

    fp = res["fingerprint"]
    print("workload %s, seed %d, %s s, trace %d, %d rounds"
          % (args.workload, args.seed, args.seconds, args.trace, res["rounds"]))
    print("machine: " + ", ".join("%s %s" % kv for kv in fp.items()))
    for line in res["log"]:
        print("FAILED " + line)
    for name, value, unit in res.get("named", []):
        print("%-34s %14.6g %s" % (name, value, unit))
    for name, m in metrics.items():
        print("%-34s %14.6g %s" % (name, m["value"], m["unit"]))
    print("attempted %d, failed %d, correct %s"
          % (res["attempted"], res["failed"], res["correct"]))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
