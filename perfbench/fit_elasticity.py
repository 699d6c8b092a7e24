"""Fit each slot's elasticity from the result files of untraced runs,
and print the ELASTICITY table of workloads.py.

    python3 perfbench/fit_elasticity.py perfbench/fit/*.json

Every timed operation carries the speed-probe time measured around it.
An elasticity is the slope of log(time) against log(probe time): 1 for
work that slows down exactly as much as the probe, 0 for work the
machine's speed changes do not touch.  A slot ("<workload>.<slot>")
has one elasticity, shared by its operations: the Theil-Sen estimate
(the median of pairwise slopes) over the pairs of samples of the same
operation, pooled over the slot's operations and over the files, so
single outliers do not tilt it.  Only pairs whose probe times differ by
at least 35% count, which pairs a fast-speed sample with a slow-speed
one: pairs at one speed differ mostly by the probe's own noise, and
their slopes would pull the estimate towards 0.  Set-up is fitted the
same way from the set-up samples of every file.
"""

import json
import math
import sys

import numpy as np


def pair_slopes(pairs: list[tuple[float, float]]) -> np.ndarray:
    t, k = np.log(np.array(pairs)).T
    dt, dk = t[:, None] - t[None, :], k[:, None] - k[None, :]
    upper = np.triu(np.ones_like(dk, dtype=bool), 1) & (np.abs(dk) >= math.log(1.35))
    return dt[upper] / dk[upper]


def main(paths):
    pooled: dict[str, dict[str, list]] = {}
    for path in paths:
        with open(path) as fh:
            res = json.load(fh)
        for name, pairs in res["samples"].items():
            key = ("setup" if name == "setup"
                   else "%s.%s" % (res["workload"], res["slot_of"][name]))
            pooled.setdefault(key, {}).setdefault(name, []).extend(pairs)
    print("ELASTICITY = {")
    for key in sorted(pooled):
        slopes = np.concatenate([pair_slopes(p) for p in pooled[key].values()])
        samples = sum(len(p) for p in pooled[key].values())
        print("    %r: %.2f,  # %d samples, %d pairs"
              % (key, float(np.median(slopes)), samples, slopes.size))
    print("}")


if __name__ == "__main__":
    main(sys.argv[1:])
