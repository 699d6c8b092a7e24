"""One workload in one fresh, single-threaded process.

Run by run.py, never directly: it sets up (imports boolcube from the
checkout's src/ and makes the inputs), runs whole rounds until
--seconds have passed, checks every operation's output, and prints one
JSON line.  With --setup-only it stops after set-up.  With --trace 1
it alternates untraced and traced rounds and reports per-layer figures
from the traced ones.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def _import_boolcube(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import boolcube

    if not os.path.abspath(boolcube.__file__).startswith(src + os.sep):
        raise SystemExit("boolcube was imported from %s, not from %s"
                         % (boolcube.__file__, src))
    return boolcube


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (dep.get("name"), dep.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_count": os.cpu_count(), "platform": platform.platform()}


# The speed probe's time, in seconds, when this machine runs at its
# fast speed (see README, "Machine speed").
PROBE_REF_S = 1.6e-3


@dataclasses.dataclass(frozen=True)
class _Key:
    mask: int


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work of the library's kind:
    small frozen objects hashed into a dict, then short numpy calls."""
    t0 = time.perf_counter()
    d = {}
    for i in range(2000):
        d[_Key(i)] = i * 0.5
    a = np.arange(4096.0)
    for _ in range(40):
        a = a * 0.999 + 1.0
    return time.perf_counter() - t0


def run_round(ops, tracer=None):
    """Time every operation of one round; returns
    [(op, seconds, probe seconds, output, error)]."""
    done = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.set_context(op.context)
            # Start every operation from the same collector state, so the
            # collections it triggers, which it pays for, repeat exactly.
            gc.collect()
            before = speed_probe()
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception:
                out, err = None, traceback.format_exc()
            seconds = time.perf_counter() - t0
            probe = math.sqrt(before * speed_probe())
            done.append((op, seconds, probe, out, err))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return done


def slot_figures(samples: dict[str, list[tuple[float, float]]], ops,
                 workload: str):
    """Per slot, in ms: the sum over the slot's operations of each one's
    median time, over its divisor; once corrected to the reference
    machine speed, once raw."""
    meta = {op.name: op for op in ops}
    ref: dict[str, float] = {}
    raw: dict[str, float] = {}
    for name, pairs in samples.items():
        op = meta[name]
        key = "%s.%s" % (workload, op.slot)
        at_ref = statistics.median(at_reference_speed(key, t, k)
                                   for t, k in pairs)
        med = statistics.median(t for t, _ in pairs)
        ref[op.slot] = ref.get(op.slot, 0.0) + 1000.0 * at_ref / op.divisor
        raw[op.slot] = raw.get(op.slot, 0.0) + 1000.0 * med / op.divisor
    return ref, raw


def at_reference_speed(key: str, seconds: float, probe: float) -> float:
    """A time measured while the speed probe read `probe`, corrected to
    the machine's fast speed by the elasticity of `key`, a slot
    ("<workload>.<slot>") or "setup"."""
    from workloads import ELASTICITY

    return seconds * (PROBE_REF_S / probe) ** ELASTICITY[key]


def check_round(done, log) -> tuple[int, int]:
    """(failed, failed checks) over one round's operations."""
    failed = wrong = 0
    for op, _, _, out, err in done:
        if err is not None:
            failed += 1
            log.append("%s raised:\n%s" % (op.name, err))
            continue
        try:
            ok = op.check(out)
        except Exception:
            ok = False
            log.append("%s check raised:\n%s" % (op.name, traceback.format_exc()))
        if not ok:
            failed += 1
            wrong += 1
            log.append("%s: output failed its check" % op.name)
    return failed, wrong


def per_layer(tracer, rounds: int, overhead: list[float],
              untraced_s: list[float]):
    summ = tracer.summary()

    def pick(name, field, context=None):
        k = {"total": 0, "self": 1, "calls": 2}[field]
        return sum(v[k] for (n, c), v in summ.items()
                   if n == name and (context is None or c == context))

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    put("cli.main_self_s", pick("cli.main", "self") / rounds, "s/round")
    writes = ("cli._write", "sbn.save_checkpoint", "sbn.save_dataset",
              "estimators.VarianceReport.to_csv", "sbn.TrainResult.to_csv")
    put("cli.write_s", sum(pick(w, "total") for w in writes) / rounds, "s/round")
    steps = pick("sbn.Trainer.step", "calls")
    put("sbn.step_self_s", pick("sbn.Trainer.step", "self") / max(steps, 1),
        "s/step")
    put("sbn.step_calls", steps / rounds, "calls/round")
    for kind in ("reinforce", "combined"):
        n = pick("sbn.Trainer.step", "calls", kind)
        put("sbn.step_self_s." + kind,
            pick("sbn.Trainer.step", "self", kind) / max(n, 1), "s/step")
    for name in ("log_sigmoid", "sigmoid", "bern_ll", "bern_ll_grad_t",
                 "MLP.forward", "MLP.backward", "Momentum.ascend"):
        put("nets.%s_self_s" % name, pick("nets." + name, "self") / rounds,
            "s/round")
        put("nets.%s_calls" % name, pick("nets." + name, "calls") / rounds,
            "calls/round")
    put("rng.stream_s", pick("rng.stream", "total") / rounds, "s/round")
    put("rng.stream_calls", pick("rng.stream", "calls") / rounds, "calls/round")
    from workloads import Variance

    for kind in Variance.SCORE + Variance.SMOOTHED:
        put("estimators.benchmark_variance_self_s." + kind,
            pick("estimators.benchmark_variance", "self", kind) / rounds,
            "s/round")
    for name in ("expected_value_by_enumeration", "variance_by_enumeration"):
        put("estimators.%s_s" % name, pick("estimators." + name, "total") / rounds,
            "s/round")
    for name in ("sample", "correlated_sample", "weights", "enumerate_points"):
        put("cube.%s_s" % name, pick("cube." + name, "total") / rounds, "s/round")
    put("cube.correlated_sample_calls",
        pick("cube.correlated_sample", "calls") / rounds, "calls/round")
    for name in ("transform", "inverse_transform"):
        put("fourier.%s_self_s" % name, pick("fourier." + name, "self") / rounds,
            "s/round")
        put("fourier.%s_calls" % name, pick("fourier." + name, "calls") / rounds,
            "calls/round")
    put("fourier.coeffs_materialized",
        tracer.coeffs_materialized / rounds, "count/round")
    put("fourier.BooleanFunction.batch_s",
        pick("fourier.BooleanFunction.batch", "total") / rounds, "s/round")
    put("fourier.evaluate_batch_s",
        pick("fourier.FourierExpansion.evaluate_batch", "total") / rounds,
        "s/round")
    put("fourier.multilinear_gradient_s",
        pick("fourier.multilinear_gradient", "total") / rounds, "s/round")
    for name in ("noise_exact", "exact_gradient"):
        put("operators.%s_self_s" % name,
            pick("operators." + name, "self") / rounds, "s/round")
    put("funcspec.parse_s", pick("funcspec.parse_function", "total") / rounds,
        "s/round")
    put("funcspec.build_s", pick("funcspec.FunctionSpec.build", "total") / rounds,
        "s/round")
    put("trace.overhead_s", statistics.median(overhead), "s/round")
    put("trace.overhead_pct",
        100.0 * statistics.median(o / u for o, u in zip(overhead, untraced_s)),
        "%")
    put("trace.spans", len(tracer.start) / rounds, "count/round")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    # The probe runs once before set-up and once after, like around an
    # operation; its own time is taken out of set-up below.
    t_probe = time.perf_counter()
    speed_probe()  # the first call also pays for warming up
    probe_before = speed_probe()
    probe_cost = time.perf_counter() - t_probe
    _import_boolcube(args.root)
    import_s = time.perf_counter() - _STARTED - probe_cost
    import workloads

    t_inputs = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.out)
    ops = wl.ops()
    slot_of = {op.name: op.slot for op in ops}
    missing = {"%s.%s" % (args.workload, slot) for slot in slot_of.values()
               } - workloads.ELASTICITY.keys()
    if missing:
        raise SystemExit("no elasticity for %s" % ", ".join(sorted(missing)))
    inputs_s = time.perf_counter() - t_inputs
    setup = {"setup_s": time.monotonic() - args.t0 - probe_cost,
             "import_s": import_s, "inputs_s": inputs_s}
    setup["probe_s"] = math.sqrt(probe_before * speed_probe())
    setup["setup_ref_s"] = at_reference_speed("setup", setup["setup_s"],
                                              setup["probe_s"])
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + args.seconds
    samples: dict[str, list[tuple[float, float]]] = {}
    round_s: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = wrong = 0
    log: list[str] = []
    runs: dict[str, int] = {}
    while True:
        # in a traced run, every traced round follows an untraced one
        traced = tracer is not None and len(round_s[False]) > len(round_s[True])
        done = run_round(ops, tracer if traced else None)
        # a round's time at the reference speed, for the tracing overhead
        round_s[traced].append(sum(
            at_reference_speed("%s.%s" % (args.workload, op.slot), t, k)
            for op, t, k, _, _ in done))
        for op, seconds, probe, _, _ in done:
            if not traced:
                samples.setdefault(op.name, []).append((seconds, probe))
            runs[op.name] = runs.get(op.name, 0) + 1
        f, w = check_round(done, log)
        attempted += len(done)
        failed += f
        wrong += w
        del done  # the next round starts without this one's outputs
        paired = tracer is None or len(round_s[True]) == len(round_s[False])
        if paired and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, ok in wl.final_checks().items():
        if not ok:
            # a failed final check condemns every run of that operation
            failed += runs.get(name, 0)
            wrong += runs.get(name, 0)
            log.append("%s: final check failed" % name)

    result = {"setup": setup, "attempted": attempted, "failed": failed,
              "correct": wrong == 0, "log": log, "fingerprint": fingerprint(),
              "rounds": len(round_s[False]) + len(round_s[True]),
              "workload": args.workload, "seed": args.seed,
              "slot_of": slot_of, "samples": samples}
    if tracer is None:
        slots, raw = slot_figures(samples, ops, args.workload)
        result["slots"], result["slots_raw"] = slots, raw
        result["peak_rss_mb"] = peak_rss_mb
        result["named"] = wl.named_metrics(slots) + [
            ("%s_ms.raw_median" % slot, value, "ms")
            for slot, value in raw.items()]
    else:
        overhead = [t - u for t, u in zip(round_s[True], round_s[False])]
        result["per_layer"] = per_layer(tracer, len(round_s[True]), overhead,
                                        round_s[False])
        result["per_layer"]["setup.import_s"] = {"value": import_s, "unit": "s"}
        result["per_layer"]["setup.inputs_s"] = {"value": inputs_s, "unit": "s"}
        if args.trace_file:
            tracer.save(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
