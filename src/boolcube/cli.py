"""Command-line front end.

Subcommands: transform (expansion text), gradcheck (exact vs numeric
gradient table), bench (variance reports per estimator), hyper
(norm-contraction reports), train (toy belief net), selftest (quick
oracle suite).  Configuration comes from built-in defaults, overridden
by a JSON --config file, overridden by flags.  Unknown config keys are
rejected.  Every artifact starts with a header comment carrying the
fully resolved configuration and seed, and reruns are byte-identical.

Exit codes: 0 ok, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os

import numpy as np

from .cube import ProductDistribution, enumerate_points, sample, weights
from .estimators import (
    KINDS,
    EstimatorConfig,
    benchmark_variance,
    check_trials,
    expected_value_by_enumeration,
    log_prob,
    score,
    variance_by_enumeration,
)
from .fourier import (
    BooleanFunction,
    _degree_one,
    expansion_to_text,
    inverse_transform,
    transform,
)
from .funcspec import FunctionSpec, FunctionSpecError, parse_function
from .operators import (
    exact_gradient,
    hypercontractivity_check,
    noise_exact,
    noise_expansion,
    numeric_gradient,
    rho_bound,
)
from .rng import stream
from .sbn import (
    TrainConfig,
    TrainingDiverged,
    bars_dataset,
    build_toy,
    enumerate_elbo,
    exact_log_likelihood,
    expected_q_logit_gradient,
    load_dataset,
    named_parameters,
    save_checkpoint,
    save_dataset,
    train,
)

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config plumbing: defaults <- JSON file <- flags, types checked here.

def _int_in(lo: int | None = None, hi: int | None = None):
    def coerce(key, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError("%s: expected an integer, got %r" % (key, v))
        if lo is not None and v < lo:
            raise ConfigError("%s: must be >= %d" % (key, lo))
        if hi is not None and v > hi:
            raise ConfigError("%s: must be <= %d" % (key, hi))
        return v
    return coerce


def _float_in(lo: float | None = None, hi: float | None = None,
              lo_open: bool = False):
    def coerce(key, v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError("%s: expected a number, got %r" % (key, v))
        v = float(v)
        if not np.isfinite(v):
            raise ConfigError("%s: must be finite" % key)
        if lo is not None and (v <= lo if lo_open else v < lo):
            raise ConfigError("%s: out of range" % key)
        if hi is not None and v > hi:
            raise ConfigError("%s: out of range" % key)
        return v
    return coerce


def _bool(key, v):
    if not isinstance(v, bool):
        raise ConfigError("%s: expected true/false, got %r" % (key, v))
    return v


def _string(key, v):
    if not isinstance(v, str):
        raise ConfigError("%s: expected a string, got %r" % (key, v))
    return v


def _opt_string(key, v):
    if v is None:
        return None
    return _string(key, v)


def _probs_text(key, v):
    """Accept "0.5", "0.25,0.5,...", or a JSON list of numbers; normalize
    to a canonical string."""
    if isinstance(v, (list, tuple)):
        try:
            vals = [float(x) for x in v]
        except (TypeError, ValueError):
            raise ConfigError("%s: expected numbers" % key)
        v = ",".join(repr(x) for x in vals)
    if not isinstance(v, str):
        raise ConfigError("%s: expected a string or list" % key)
    if v == "random":
        raise ConfigError('%s: "random" applies to gradcheck only' % key)
    for tok in v.split(","):
        try:
            x = float(tok)
        except ValueError:
            raise ConfigError("%s: bad probability %r" % (key, tok))
        if not 0.0 < x < 1.0:
            raise ConfigError("%s: probabilities must lie in (0, 1)" % key)
    return v


def _probs_or_random(key, v):
    """_probs_text, or "random" for fresh probabilities per instance."""
    return v if v == "random" else _probs_text(key, v)


def _list_of(item):
    def coerce(key, v):
        if not isinstance(v, list) or not v:
            raise ConfigError("%s: expected a non-empty list" % key)
        return [item(key, x) for x in v]
    return coerce


_SEED = _int_in(0)
# TrainConfig's defaulted fields, each a train key with its default and
# the coercer of the default's type.
_TRAINER = {f.name: (f.default, _int_in() if isinstance(f.default, int)
                     else _float_in())
            for f in dataclasses.fields(TrainConfig)
            if f.default is not dataclasses.MISSING}
# The estimator settings bench and train share, with EstimatorConfig's
# defaults; _estimator builds the config from them.
_ESTIMATOR = {
    "rho": (EstimatorConfig.rho, _float_in()),
    "alpha": (EstimatorConfig.alpha, _float_in()),
    "beta": (EstimatorConfig.beta, _float_in()),
    "k": (EstimatorConfig.t_rho_samples, _int_in(hi=1000)),
}
_SPECS: dict[str, dict[str, tuple]] = {
    "transform": {
        "function": ("maj(3)", _string),
        "p": ("0.5", _probs_text),
        "out": (".", _string),
    },
    "gradcheck": {
        "count": (20, _int_in(1, 10000)),
        "n": (6, _int_in(1, 10)),
        "degree": (3, _int_in(1, 10)),
        "density": (0.5, _float_in(0.0, 1.0)),
        "function": (None, _opt_string),
        "p": ("random", _probs_or_random),
        "seed": (17, _SEED),
        "out": (".", _string),
    },
    "bench": {
        "function": ("maj(3)", _string),
        "p": ("0.5", _probs_text),
        "estimators": (["reinforce", "fourier_cv"], _list_of(_string)),
        **_ESTIMATOR,
        "baseline": (0.0, _float_in()),
        "exact_inner": (EstimatorConfig.exact_inner, _bool),
        "taylor_at_sample": (EstimatorConfig.taylor_at_sample, _bool),
        "trials": (100000, _int_in()),
        "seed": (17, _SEED),
        "out": (".", _string),
    },
    "hyper": {
        "count": (1000, _int_in(1, 100000)),
        "n": (4, _int_in(1, 10)),
        "q": (4.0, _float_in(2.0, 64.0, lo_open=True)),
        "p": ("0.5", _probs_text),
        "seed": (17, _SEED),
        "out": (".", _string),
    },
    "train": {
        "widths": ([12], _list_of(_int_in())),
        "dataset": (None, _opt_string),
        "dataset_count": (144, _int_in(1, 100000)),
        "dataset_seed": (7, _SEED),
        "steps": (20000, _int_in()),
        "seed": (17, _SEED),
        **_TRAINER,
        "estimator": ("muprop", _string),
        **_ESTIMATOR,
        "baseline_hidden": (32, _int_in(1, 256)),
        "g_hidden": (32, _int_in(1, 256)),
        "g_act": ("tanh", _string),
        "write_checkpoint": (True, _bool),
        "write_dataset": (True, _bool),
        "out": (".", _string),
    },
    "selftest": {
        "seed": (17, _SEED),
        "out": (".", _string),
    },
}

# The generic flags: name, argparse type, help.  A flag applies to a
# command exactly when it sets one of the command's keys: the key of the
# same name, except that --trials sets the command's count key and
# bench's --estimator sets its list of kinds.
_FLAGS = (
    ("seed", int, None),
    ("trials", int, "trial/instance/step count where applicable"),
    ("rho", float, None),
    ("estimator", str, None),
    ("function", str, None),
    ("p", str, "probability or comma list"),
)
_COUNT_KEY = {"gradcheck": "count", "bench": "trials", "hyper": "count",
              "train": "steps"}


def _resolve_config(cmd: str, args: argparse.Namespace) -> dict:
    spec = _SPECS[cmd]
    cfg = {k: default for k, (default, _) in spec.items()}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ConfigError("cannot read config: %s" % e)
        except json.JSONDecodeError as e:
            raise ConfigError("config is not valid JSON: %s" % e)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for key, value in raw.items():
            if key not in spec:
                raise ConfigError("unknown config key %r for %s" % (key, cmd))
            cfg[key] = spec[key][1](key, value)
    for flag, _, _ in _FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        key = flag
        if flag == "trials":
            key = _COUNT_KEY.get(cmd)
        elif flag == "estimator" and cmd == "bench":
            key, value = "estimators", [value]
        if key not in spec:
            raise ConfigError("--%s does not apply to %s" % (flag, cmd))
        cfg[key] = spec[key][1](key, value)
    if args.out is not None:
        cfg["out"] = args.out
    return cfg


def _canon(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_canon(x) for x in v) + "]"
    return str(v)


def _resolved_line(cmd: str, cfg: dict) -> str:
    parts = ["cmd=%s" % cmd]
    for k in sorted(cfg):
        if k == "out":
            continue
        parts.append("%s=%s" % (k, _canon(cfg[k])))
    return " ".join(parts)


def _probs_for(text: str, n: int, key: str = "p") -> np.ndarray:
    vals = [float(tok) for tok in text.split(",")]
    if len(vals) == 1:
        return np.full(n, vals[0])
    if len(vals) != n:
        raise ConfigError("%s: %d probabilities for dimension %d"
                          % (key, len(vals), n))
    return np.array(vals)


def _parse_spec(text: str) -> FunctionSpec:
    try:
        return parse_function(text)
    except FunctionSpecError as e:
        raise ConfigError("function: %s" % e)


def _estimator(cfg: dict, kind: str, **flags) -> EstimatorConfig:
    """The EstimatorConfig of `kind` from cfg's shared estimator keys."""
    return EstimatorConfig(kind=kind, rho=cfg["rho"], alpha=cfg["alpha"],
                           beta=cfg["beta"], t_rho_samples=cfg["k"], **flags)


def _write(out_dir: str, name: str, content: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(content)
    return path


# ---------------------------------------------------------------------------
# Subcommands.

def _run_transform(cfg: dict) -> int:
    spec = _parse_spec(cfg["function"])
    dist = ProductDistribution(_probs_for(cfg["p"], spec.n))
    f = spec.build()
    text = "# %s\n%s" % (_resolved_line("transform", cfg),
                         expansion_to_text(transform(f, dist)))
    path = _write(cfg["out"], "transform.txt", text)
    print(text, end="")
    print("wrote %s" % path)
    return 0


def _run_gradcheck(cfg: dict) -> int:
    if cfg["function"] is not None:
        specs = [_parse_spec(cfg["function"])]
    else:
        specs = [_parse_spec("randpoly(%d,%d,%s,%d)"
                             % (cfg["n"], cfg["degree"],
                                repr(cfg["density"]), cfg["seed"] + k))
                 for k in range(cfg["count"])]
    lines = ["# " + _resolved_line("gradcheck", cfg),
             "instance,function,coord,exact,numeric,abs_diff"]
    worst = 0.0
    for k, spec in enumerate(specs):
        if cfg["p"] == "random":
            p = stream(cfg["seed"], 7000, k).uniform(0.1, 0.9, spec.n)
        else:
            p = _probs_for(cfg["p"], spec.n)
        dist = ProductDistribution(p)
        f = spec.build()
        exact = exact_gradient(f, dist)
        numeric = numeric_gradient(f, dist)
        if not (np.all(np.isfinite(exact)) and np.all(np.isfinite(numeric))):
            print("non-finite gradient on instance %d" % k)
            return 3
        text = spec.canonical()
        for i in range(f.n):
            d = float(abs(exact[i] - numeric[i]))
            worst = max(worst, d)
            lines.append("%d,%s,%d,%s,%s,%s" % (k, text, i,
                                                repr(float(exact[i])),
                                                repr(float(numeric[i])),
                                                repr(float(d))))
    path = _write(cfg["out"], "gradcheck.csv", "\n".join(lines) + "\n")
    print("max |exact - numeric| = %s over %d instances" % (repr(worst),
                                                            len(specs)))
    print("wrote %s" % path)
    if worst >= 1e-6:
        print("gradient identity check FAILED (tolerance 1e-06)")
        return 3
    return 0


def _run_bench(cfg: dict) -> int:
    spec = _parse_spec(cfg["function"])
    dist = ProductDistribution(_probs_for(cfg["p"], spec.n))
    try:
        ests = [_estimator(cfg, kind, exact_inner=cfg["exact_inner"],
                           taylor_at_sample=cfg["taylor_at_sample"])
                for kind in cfg["estimators"]]
        check_trials(cfg["trials"])
    except ValueError as e:
        raise ConfigError(str(e))
    f = spec.build()
    header = _resolved_line("bench", cfg)
    for est in ests:
        report = benchmark_variance(est, f, dist, cfg["trials"], cfg["seed"],
                                    baseline=cfg["baseline"])
        if not (np.all(np.isfinite(report.mean))
                and np.all(np.isfinite(report.variance))):
            print("non-finite benchmark results for %s" % est.kind)
            return 3
        path = _write(cfg["out"], "bench_%s.csv" % est.kind,
                      report.to_csv(extra_header=header))
        print("%s: variance per coordinate %s"
              % (est.kind, " ".join(repr(float(v)) for v in report.variance)))
        print("wrote %s" % path)
    return 0


def _run_hyper(cfg: dict) -> int:
    dist = ProductDistribution(_probs_for(cfg["p"], cfg["n"]))
    rho = rho_bound(cfg["q"], dist.min_outcome_probability())
    rng = stream(cfg["seed"], 4000)
    lines = ["# " + _resolved_line("hyper", cfg),
             "index,rho,norm_q,norm_2,slack"]
    worst = np.inf
    ok = True
    for k in range(cfg["count"]):
        table = 2.0 * rng.integers(0, 2, size=1 << cfg["n"]) - 1.0
        rep = hypercontractivity_check(BooleanFunction(cfg["n"], table=table),
                                       dist, q=cfg["q"], rho=rho)
        worst = min(worst, rep.slack)
        ok = ok and rep.satisfied
        lines.append("%d,%s,%s,%s,%s" % (k, repr(rep.rho), repr(rep.norm_q),
                                         repr(rep.norm_2), repr(rep.slack)))
    path = _write(cfg["out"], "hyper.csv", "\n".join(lines) + "\n")
    print("rho = %s, min slack = %s over %d tables"
          % (repr(rho), repr(float(worst)), cfg["count"]))
    print("wrote %s" % path)
    if not ok:
        print("norm contraction violated")
        return 3
    return 0


def _run_train(cfg: dict) -> int:
    try:
        tc = TrainConfig(estimator=_estimator(cfg, cfg["estimator"]),
                         steps=cfg["steps"], seed=cfg["seed"],
                         **{k: cfg[k] for k in _TRAINER})
        if cfg["dataset"] is not None:
            try:
                data = load_dataset(cfg["dataset"])
            except (OSError, ValueError) as e:
                raise ConfigError("dataset: %s" % e)
        else:
            data = bars_dataset(cfg["dataset_count"], cfg["dataset_seed"])
        tc.check_rows(data.shape[0])
        model, qnet, baselines = build_toy(
            tuple(cfg["widths"]), data.shape[1], cfg["seed"],
            baseline_hidden=cfg["baseline_hidden"], g_hidden=cfg["g_hidden"],
            g_act=cfg["g_act"])
    except ValueError as e:
        raise ConfigError(str(e))
    # The generator's keys do not apply to a run on a dataset file.
    header = _resolved_line("train", cfg if cfg["dataset"] is None else {
        k: v for k, v in cfg.items() if k not in (
            "dataset_count", "dataset_seed", "write_dataset")})
    try:
        result = train(model, qnet, baselines, data, tc)
    except TrainingDiverged as e:
        print(str(e))
        return 3
    path = _write(cfg["out"], "train_metrics.csv",
                  result.to_csv(extra_header=header))
    print("first-100-step mean ELBO %s, last-100-step mean ELBO %s"
          % (repr(float(result.elbo[:100].mean())),
             repr(float(result.elbo[-100:].mean()))))
    print("wrote %s" % path)
    # _write has made the directory for train_metrics.csv.
    if cfg["write_dataset"] and cfg["dataset"] is None:
        ds = os.path.join(cfg["out"], "train_dataset.txt")
        save_dataset(ds, data)
        print("wrote %s" % ds)
    if cfg["write_checkpoint"]:
        ck = os.path.join(cfg["out"], "train_checkpoint.txt")
        save_checkpoint(ck, named_parameters(model, qnet, baselines))
        print("wrote %s" % ck)
    return 0


# ---------------------------------------------------------------------------
# Selftest: quick deterministic checks of the library's own claims.

def _random_table_fn(n: int, rng: np.random.Generator) -> BooleanFunction:
    return BooleanFunction(n, table=rng.normal(size=1 << n))


def _random_dist(n: int, rng: np.random.Generator) -> ProductDistribution:
    return ProductDistribution(rng.uniform(0.1, 0.9, n))


def _noise_kernel(f: BooleanFunction, rho: float,
                  dist: ProductDistribution) -> np.ndarray:
    """T_rho f at every point x by the explicit kernel, independent of
    both routes: the sum over x' of f(x') times the product of the
    per-coordinate keep/refresh probabilities of x' given x."""
    pts = enumerate_points(f.n)
    marg = np.where(pts > 0, dist.probs, 1.0 - dist.probs)
    keep = pts[:, None, :] == pts[None, :, :]
    return np.prod(rho * keep + (1.0 - rho) * marg, axis=2) @ f.values()


def _selftest_checks(seed: int):
    checks = []

    def add(name: str, ok: bool, detail: float):
        checks.append((name, bool(ok), float(detail)))

    # score matches both closed forms and the log-density derivative
    rng = stream(seed, 1)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        dist = _random_dist(n, rng)
        x = sample(dist, rng)
        sc = score(x, dist)
        phi_form = 2.0 * (x - dist.mu) / dist.sigma ** 2
        worst = max(worst, float(np.abs(sc - phi_form).max()))
        h = 1e-6
        for i in range(n):
            up = log_prob(x, dist.with_prob(i, dist.probs[i] + h))
            dn = log_prob(x, dist.with_prob(i, dist.probs[i] - h))
            worst = max(worst, abs((up - dn) / (2 * h) - sc[i]))
    add("score_identity", worst < 1e-4, worst)

    # gradient identity, exact vs central difference
    rng = stream(seed, 2)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        f = _random_table_fn(n, rng)
        dist = _random_dist(n, rng)
        diff = np.abs(exact_gradient(f, dist) - numeric_gradient(f, dist))
        worst = max(worst, float(diff.max()))
    add("gradient_identity", worst < 1e-6, worst)

    # unbiasedness of every correction-carrying estimator, by enumeration
    rng = stream(seed, 3)
    kinds = [k for k in KINDS if k != "straight_through"]
    worst = 0.0
    for _ in range(8):
        n = int(rng.integers(2, 6))
        f = _random_table_fn(n, rng)
        g = _random_table_fn(n, rng)
        dist = _random_dist(n, rng)
        rho = float(rng.uniform(0.2, 0.9))
        target = exact_gradient(f, dist)
        for kind in kinds:
            est = EstimatorConfig(kind=kind, rho=rho, alpha=0.7, beta=1.3,
                                  t_rho_samples=2)
            ev = expected_value_by_enumeration(est, f, dist, g=g, baseline=0.4)
            worst = max(worst, float(np.abs(ev - target).max()))
    add("estimator_unbiasedness", worst < 1e-10, worst)

    # smoothing: the kernel against both routes (larger error), semigroup, mean
    rng = stream(seed, 4)
    worst = 0.0
    worst_semi = 0.0
    worst_mean = 0.0
    for _ in range(10):
        n = 3
        f = _random_table_fn(n, rng)
        dist = _random_dist(n, rng)
        rho = float(rng.uniform(0.0, 1.0))
        smooth = noise_exact(f, rho, dist)
        routed = inverse_transform(noise_expansion(transform(f, dist), rho), dist)
        kernel = _noise_kernel(f, rho, dist)
        worst = max(worst, float(np.abs(smooth.values() - kernel).max()),
                    float(np.abs(routed.values() - kernel).max()))
        sigma = float(rng.uniform(0.0, 1.0))
        twice = noise_exact(noise_exact(f, rho, dist), sigma, dist)
        once = noise_exact(f, rho * sigma, dist)
        worst_semi = max(worst_semi,
                         float(np.abs(twice.values() - once.values()).max()))
        w = weights(dist)
        worst_mean = max(worst_mean,
                         abs(float(w @ smooth.values()) - float(w @ f.values())))
    add("noise_kernel_vs_multiplier", worst < 1e-10, worst)
    add("noise_semigroup", worst_semi < 1e-12, worst_semi)
    add("noise_mean_preserved", worst_mean < 1e-12, worst_mean)

    # norm contraction at the critical rho
    rng = stream(seed, 5)
    worst = np.inf
    for pvec in (np.full(4, 0.5), np.full(4, 0.25)):
        dist = ProductDistribution(pvec)
        for _ in range(100):
            table = 2.0 * rng.integers(0, 2, size=16) - 1.0
            rep = hypercontractivity_check(BooleanFunction(4, table=table),
                                           dist)
            worst = min(worst, rep.slack)
    add("hypercontractivity", worst > -1e-10, worst)

    # both smoothing variates kill every degree-1 coefficient
    rng = stream(seed, 6)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        g = _random_table_fn(n, rng)
        dist = _random_dist(n, rng)
        for rho in (0.25, 0.5, 0.75):
            tg = noise_exact(g, rho, dist)
            v1 = BooleanFunction(n, table=g.values() - tg.values() / rho)
            v2 = BooleanFunction(n, table=g.values() - tg.values()
                                 - noise_exact(g, 1.0 - rho, dist).values())
            for v in (v1, v2):
                singletons = _degree_one(v, dist)[1:]
                worst = max(worst, float(np.abs(singletons).max()))
    add("variate_degree1_zero", worst < 1e-12, worst)

    # first-order estimator has zero variance on degree-1 functions
    rng = stream(seed, 7)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(1, 5))
        dist = _random_dist(n, rng)
        pts = enumerate_points(n).astype(np.float64)
        table = rng.normal() + pts @ rng.normal(size=n)
        f = BooleanFunction(n, table=table)
        est = EstimatorConfig(kind="muprop")
        worst = max(worst, float(variance_by_enumeration(est, f, dist).max()))
    add("muprop_zero_variance_degree1", worst < 1e-12, worst)

    # function language round-trips
    ok = True
    for text in ("maj(3)", "dict(2)", "parity(0,2)", "and(4)",
                 "poly{0.5*[0];-0.5*[0,1,2]}", "table(1e)",
                 "randpoly(6,3,0.5,17)"):
        spec = parse_function(text)
        ok = ok and parse_function(spec.canonical()) == spec
    add("funcspec_roundtrip", ok, 0.0 if ok else 1.0)

    # identical seeds give identical report bytes
    f = parse_function("maj(3)").build()
    dist = ProductDistribution(np.full(3, 0.5))
    est = EstimatorConfig(kind="fourier_cv")
    a = benchmark_variance(est, f, dist, 2000, seed).to_csv()
    b = benchmark_variance(est, f, dist, 2000, seed).to_csv()
    add("benchmark_determinism", a == b, 0.0 if a == b else 1.0)

    # toy belief net: exact ELBO below exact evidence, estimators agree
    model, qnet, baselines = build_toy((4,), 6, seed)
    y = bars_dataset(1, seed, size=2)[0]
    y = np.concatenate([y, y[:2]])  # 6 observed units from a 2x2 pattern
    elbo, grad = enumerate_elbo(model, qnet, y)
    gap = exact_log_likelihood(model, y) - elbo
    add("elbo_below_evidence", gap > -1e-12, gap)
    worst = 0.0
    for kind in kinds:
        est = EstimatorConfig(kind=kind, rho=0.5)
        ev = expected_q_logit_gradient(model, qnet, baselines, y, est)
        worst = max(worst, float(np.abs(ev - grad).max()))
    add("sbn_estimator_agreement", worst < 1e-8, worst)

    return checks


def _run_selftest(cfg: dict) -> int:
    checks = _selftest_checks(cfg["seed"])
    lines = ["# " + _resolved_line("selftest", cfg), "check,status,detail"]
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        lines.append("%s,%s,%s" % (name, status, repr(detail)))
        print("%s %s (%s)" % (status, name, repr(detail)))
        failed += 0 if ok else 1
    path = _write(cfg["out"], "selftest.csv", "\n".join(lines) + "\n")
    print("wrote %s" % path)
    if failed:
        print("%d check(s) failed" % failed)
        return 3
    return 0


_RUNNERS = {
    "transform": (_run_transform, "emit a function's expansion in text form"),
    "gradcheck": (_run_gradcheck, "exact vs finite-difference gradient table"),
    "bench": (_run_bench, "variance reports for an estimator matrix"),
    "hyper": (_run_hyper, "norm-contraction reports at the critical rho"),
    "train": (_run_train, "train the toy belief net, emit metrics CSV"),
    "selftest": (_run_selftest, "run the quick oracle suite"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boolcube",
        description="Biased Fourier analysis and gradient-estimator "
                    "benchmarks on the Boolean cube.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (_, helptext) in _RUNNERS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default .)")
        for flag, kind, flaghelp in _FLAGS:
            p.add_argument("--" + flag, type=kind, help=flaghelp)
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args.cmd, args)
        return _RUNNERS[args.cmd][0](cfg)
    except ConfigError as e:
        print("config error: %s" % e)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
