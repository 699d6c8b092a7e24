"""Check that the `train` workload's short training calls give the
per-step cost of a long one.

    python3 perfbench/check_step_count.py [--reps 2] [--long 20000]

The workload times `boolcube train` calls of Train.STEPS steps and
divides by the step count, so each call's fixed costs (argument
handling, `build_toy`, the dataset, the artifact writes) are spread
over few steps.  This script times, interleaved so that both see the
same machine speeds, whole short calls and chunks of the same number of
steps inside a long call (the CLI default and the tier-1 training
gates use 20000).  It prints the median per-step time of each, and the
whole long calls' per-step times.  Run it from the root of a checkout.
"""

import argparse
import contextlib
import gc
import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from boolcube import cli, sbn  # noqa: E402

from workloads import Train  # noqa: E402

OUT = os.path.join(os.path.dirname(HERE), ".perfbench-out", "step-count")


def train(kind: str, steps: int, marks: list | None) -> float:
    """Seconds for one call; with `marks`, the end time of every step
    is appended to it."""
    plain = sbn.Trainer.step

    def step(self, *a, **k):
        out = plain(self, *a, **k)
        marks.append(time.perf_counter())
        return out

    sbn.Trainer.step = plain if marks is None else step
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            gc.collect()
            t0 = time.perf_counter()
            rc = cli.main(["train", "--estimator", kind, "--trials", str(steps),
                           "--seed", "1", "--out", OUT])
            seconds = time.perf_counter() - t0
    finally:
        sbn.Trainer.step = plain
    if rc != 0:
        raise SystemExit("train exited with %d" % rc)
    return seconds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=2)
    ap.add_argument("--long", type=int, default=20000)
    args = ap.parse_args(argv)
    n = Train.STEPS
    for kind in Train.KINDS:
        short, chunks, whole = [], [], []
        for _ in range(args.reps):
            short += [train(kind, n, None) / n for _ in range(5)]
            marks: list[float] = []
            whole.append(train(kind, args.long, marks) / args.long)
            ends = marks[::n]
            chunks += [(b - a) / n for a, b in zip(ends, ends[1:])]
        print("%s: %d-step calls %.4f ms/step (median of %d); %d-step chunks "
              "of %d-step calls %.4f ms/step (median of %d); whole %d-step "
              "calls %s ms/step"
              % (kind, n, 1e3 * statistics.median(short), len(short), n,
                 args.long, 1e3 * statistics.median(chunks), len(chunks),
                 args.long, ", ".join("%.4f" % (1e3 * w) for w in whole)))


if __name__ == "__main__":
    main()
