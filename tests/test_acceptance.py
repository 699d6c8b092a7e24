"""End-to-end acceptance gate.

Each test covers one shipped guarantee and prints exactly one PASS or
FAIL line on the real stdout (so the verdicts survive pytest capture
into a log file), then asserts.  Tolerances, budgets, seeds, and run
configurations are pinned here; the numeric goldens were frozen from
exact enumeration and from deterministic training runs.

Expected state: every gate is green.  The variance gates assert the
claims the library makes and no stronger ones: the smoothing variate
lowers variance when its inner expectation is exact, while one inner
draw adds more noise than the variate removes, so it raises variance
(the exact enumerated numbers are in the detail line); and the tracked
gradient variance of the variate-carrying kind is compared on block
means, because single readings of a slow EMA on a chaotic training
trajectory move with the platform's rounding.
"""

import time

import numpy as np
import pytest

from boolcube import (
    BooleanFunction,
    EstimatorConfig,
    KINDS,
    ProductDistribution,
    SubsetIndex,
    bars_dataset,
    benchmark_variance,
    build_toy,
    enumerate_elbo,
    enumerate_points,
    exact_gradient,
    expected_value_by_enumeration,
    hypercontractivity_check,
    noise_exact,
    noise_expansion,
    numeric_gradient,
    parse_function,
    rho_bound,
    sample_q_logit_gradients,
    stream,
    train,
    TrainConfig,
    transform,
    variance_by_enumeration,
)
from boolcube.cli import main as cli_main

UNBIASED_KINDS = tuple(k for k in KINDS if k != "straight_through")


_CAP = None
_SINK = None


@pytest.fixture(autouse=True)
def _live_verdicts(request, capfd):
    # verdict lines must reach the real terminal even under fd capture,
    # and the terminal-summary hook replays them as one block at the end
    global _CAP, _SINK
    _CAP = capfd
    if not hasattr(request.config, "_acceptance_lines"):
        request.config._acceptance_lines = []
    _SINK = request.config._acceptance_lines
    yield
    _CAP = None


def _report(ok: bool, label: str, detail: str) -> None:
    line = "%s %s: %s" % ("PASS" if ok else "FAIL", label, detail)
    if _SINK is not None:
        _SINK.append(line)
    if _CAP is not None:
        with _CAP.disabled():
            print("\n" + line, flush=True)
    else:
        print(line, flush=True)


def random_dist(n, rng):
    return ProductDistribution(rng.uniform(0.1, 0.9, n))


def random_function(n, rng):
    return BooleanFunction(n, table=rng.choice([-1.0, 1.0], size=1 << n))


# ---------------------------------------------------------------------------
# Gate 1: the degree-one coefficient identity for the probability gradient,
# against a transform-free finite difference.

def test_gradient_identity_against_numeric():
    t0 = time.monotonic()
    rng = stream(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        f = random_function(n, rng)
        dist = random_dist(n, rng)
        err = np.max(np.abs(exact_gradient(f, dist)
                            - numeric_gradient(f, dist, h=1e-5)))
        worst = max(worst, float(err))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(ok, "gradient identity",
            "100 random (function, distribution) pairs with n <= 6, "
            "max |exact - numeric| = %.3e, %.1fs" % (worst, elapsed))
    assert worst < 1e-6
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# Gate 2: every unbiased estimator kind matches the exact gradient when its
# expectation is taken by exhaustive enumeration.

def _random_config(kind, rng):
    return EstimatorConfig(kind,
                           rho=float(rng.uniform(0.2, 0.9)),
                           alpha=float(rng.uniform(-1.0, 2.0)),
                           beta=float(rng.uniform(-1.0, 2.0)),
                           t_rho_samples=int(rng.integers(1, 4)))


def test_estimator_unbiasedness_by_enumeration():
    t0 = time.monotonic()
    rng = stream(202)
    worst = 0.0
    checks = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        f = random_function(n, rng)
        dist = random_dist(n, rng)
        g = random_function(n, rng)
        c = float(rng.normal())
        want = exact_gradient(f, dist)
        for kind in UNBIASED_KINDS:
            cfg = _random_config(kind, rng)
            got = expected_value_by_enumeration(cfg, f, dist, g=g, baseline=c)
            worst = max(worst, float(np.max(np.abs(got - want))))
            checks += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    _report(ok, "estimator unbiasedness",
            "%d kind/instance checks (50 random instances x %d kinds), "
            "max deviation %.3e, %.1fs"
            % (checks, len(UNBIASED_KINDS), worst, elapsed))
    assert worst < 1e-10
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Gate 3: the smoothing operator's defining laws.  The kernel oracle below
# resamples each coordinate from its marginal with probability 1 - rho and
# never touches the transform code path it is checking.

def test_noise_operator_laws():
    rng = stream(303)

    worst_kernel = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 5))
        f = random_function(n, rng)
        dist = random_dist(n, rng)
        rho = float(rng.uniform(0.0, 1.0))
        pts = enumerate_points(n)
        match = pts[:, None, :] == pts[None, :, :]
        py = np.where(pts > 0, dist.probs, 1.0 - dist.probs)
        K = np.prod(rho * match + (1.0 - rho) * py[None, :, :], axis=2)
        assert np.max(np.abs(K.sum(axis=1) - 1.0)) < 1e-12
        got = noise_exact(f, rho, dist).values()
        worst_kernel = max(worst_kernel,
                           float(np.max(np.abs(K @ f.values() - got))))

    mean_exact = True
    for _ in range(25):
        n = int(rng.integers(1, 6))
        e = transform(random_function(n, rng), random_dist(n, rng))
        mean_exact = mean_exact and (
            noise_expansion(e, float(rng.uniform(0.0, 1.0))).mean()
            == e.mean())

    worst_semi = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 6))
        f = random_function(n, rng)
        dist = random_dist(n, rng)
        r1 = float(rng.uniform(0.0, 1.0))
        r2 = float(rng.uniform(0.0, 1.0))
        twice = noise_exact(noise_exact(f, r1, dist), r2, dist).values()
        once = noise_exact(f, r1 * r2, dist).values()
        worst_semi = max(worst_semi, float(np.max(np.abs(twice - once))))

    grid = np.linspace(0.0, 1.0, 11)
    monotone = True
    for _ in range(100):
        e = transform(random_function(4, rng), random_dist(4, rng))
        v = np.array([noise_expansion(e, r).variance() for r in grid])
        monotone = monotone and bool(np.all(np.diff(v) >= -1e-12))
        monotone = monotone and bool(np.all(v <= e.variance() + 1e-12))

    ok = (worst_kernel < 1e-10 and mean_exact and worst_semi < 1e-12
          and monotone)
    _report(ok, "noise operator laws",
            "kernel oracle max err %.3e, mean preserved exactly: %s, "
            "semigroup max err %.3e, variance monotone on rho grid "
            "{0,0.1,...,1} for 100 functions: %s"
            % (worst_kernel, mean_exact, worst_semi, monotone))
    assert worst_kernel < 1e-10
    assert mean_exact
    assert worst_semi < 1e-12
    assert monotone


# ---------------------------------------------------------------------------
# Gate 4: the (2 -> 4) norm bound at the critical smoothing rate, with the
# rate recomputed from each distribution's smallest outcome probability.

def test_hypercontractive_norm_bound():
    rng = stream(404)
    dists = (ProductDistribution.uniform(6),
             ProductDistribution(np.full(6, 0.3)),
             ProductDistribution(stream(404, 1).uniform(0.15, 0.85, 6)))
    min_slack = np.inf
    count = 0
    all_ok = True
    for dist in dists:
        rho = rho_bound(4.0, dist.min_outcome_probability())
        for _ in range(1000):
            f = random_function(6, rng)
            rep = hypercontractivity_check(f, dist, q=4.0, rho=rho)
            all_ok = all_ok and rep.satisfied
            min_slack = min(min_slack, rep.slack)
            count += 1
    rho_u = rho_bound(4.0, 0.5)
    ok = all_ok and abs(rho_u - 0.4854917717073234) < 1e-12
    _report(ok, "hypercontractive norm bound",
            "%d random tables (n=6, 3 distributions), all within 1e-10 "
            "slack, min slack %.4f, critical rho at lambda=0.5 is %.10f"
            % (count, min_slack, rho_u))
    assert all_ok
    assert abs(rho_u - 0.4854917717073234) < 1e-12


# ---------------------------------------------------------------------------
# Gate 5: both control variates are degree-one-free, so subtracting them
# cannot bias the gradient they accompany.

def test_variates_annihilate_degree_one():
    rng = stream(505)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        g = random_function(n, rng)
        dist = random_dist(n, rng)
        for rho in (0.25, 0.5, 0.75):
            single = BooleanFunction(
                n, table=g.values() - noise_exact(g, rho, dist).values() / rho)
            two_sided = BooleanFunction(
                n, table=(g.values() - noise_exact(g, rho, dist).values()
                          - noise_exact(g, 1.0 - rho, dist).values()))
            for h in (single, two_sided):
                e = transform(h, dist)
                for i in range(n):
                    worst = max(worst,
                                abs(e.coefficient(SubsetIndex.of([i]))))
    ok = worst < 1e-12
    _report(ok, "degree-one annihilation",
            "100 random g, rho in {0.25, 0.5, 0.75}, both variates, "
            "max degree-one coefficient %.3e" % worst)
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# Gate 6: variance of the smoothing variate.  The enumerated goldens and the
# measured run are verified first; then the documented claim is asserted on
# every instance and coordinate: the variate lowers variance below the plain
# score estimator when its inner expectation is exact, and one inner draw
# raises it, because the draw injects more variance than the variate removes.

def test_single_draw_variance_reduction():
    base = EstimatorConfig("reinforce")
    cv = EstimatorConfig("fourier_cv", rho=0.5, t_rho_samples=1)
    cv_exact = EstimatorConfig("fourier_cv", rho=0.5, exact_inner=True)
    cases = (
        ("maj(3)", parse_function("maj(3)").build(), 3.0, 15.0, 2.0625),
        ("parity(0,1,2)", parse_function("parity(0,1,2)").build(),
         4.0, 16.0, 0.25),
    )
    details = []
    exact_lowers = True
    one_draw_raises = True
    for name, f, want_base, want_cv, want_exact in cases:
        dist = ProductDistribution.uniform(f.n)
        vb = variance_by_enumeration(base, f, dist)
        vc = variance_by_enumeration(cv, f, dist)
        ve = variance_by_enumeration(cv_exact, f, dist)
        assert np.max(np.abs(vb - want_base)) < 1e-12
        assert np.max(np.abs(vc - want_cv)) < 1e-12
        assert np.max(np.abs(ve - want_exact)) < 1e-12
        exact_lowers = exact_lowers and bool(np.all(ve < vb))
        one_draw_raises = one_draw_raises and bool(np.all(vc > vb))
        details.append("%s: score %.4g, one-draw variate %.4g, exact-inner "
                       "variate %.4g" % (name, want_base, want_cv, want_exact))

    poly = parse_function("randpoly(6,3,0.5,17)").build()
    u6 = ProductDistribution.uniform(6)
    vb6 = variance_by_enumeration(base, poly, u6)
    vc6 = variance_by_enumeration(cv, poly, u6)
    ve6 = variance_by_enumeration(cv_exact, poly, u6)
    assert abs(float(vb6[0]) - 98.17902975822139) < 1e-9
    assert abs(float(vc6[0]) - 409.9245925345738) < 1e-9
    exact_lowers = exact_lowers and bool(np.all(ve6 < vb6))
    one_draw_raises = one_draw_raises and bool(np.all(vc6 > vb6))
    details.append("randpoly(6,3,0.5,17): score %.4g..%.4g, one-draw variate "
                   "%.4g..%.4g, exact-inner variate %.4g..%.4g"
                   % (vb6.min(), vb6.max(), vc6.min(), vc6.max(),
                      ve6.min(), ve6.max()))

    # the measured benchmark agrees with enumeration, so the numbers above
    # are what a user of the benchmark sees
    maj3 = cases[0][1]
    u3 = ProductDistribution.uniform(3)
    rep_b = benchmark_variance(base, maj3, u3, trials=100000, seed=91)
    rep_c = benchmark_variance(cv, maj3, u3, trials=100000, seed=91)
    assert np.max(np.abs(rep_b.variance / 3.0 - 1.0)) < 0.03
    assert np.max(np.abs(rep_c.variance / 15.0 - 1.0)) < 0.03

    ok = exact_lowers and one_draw_raises
    _report(ok, "smoothing variate variance",
            "; ".join(details) + " (per coordinate on every instance: "
            "exact-inner variate below score: %s, one-draw variate above "
            "score: %s)" % (exact_lowers, one_draw_raises))
    assert exact_lowers, (
        "exact-inner smoothing variate did not reduce variance: " +
        "; ".join(details))
    assert one_draw_raises, (
        "one-draw smoothing variate did not raise variance: " +
        "; ".join(details))


# ---------------------------------------------------------------------------
# Gate 7: the toy generative trainer.  Three guarantees: the bound rises
# for every estimator kind, sampled per-step gradients match enumeration,
# and the variate-carrying kind tracks lower gradient variance.  Seeds,
# learning rates, and the dataset are pinned per guarantee.  Both training
# guarantees are read on means over 10 blocks of 2000 steps: two runs
# drift apart chaotically, in a direction set by the platform's rounding,
# and a decay-0.99 EMA read at a single step swings by about as much as
# the variance margin (past the first blocks its log has a standard
# deviation of 0.6-0.8 within a block).

def _train_kind(kind, lr, steps=20000):
    model, qnet, baselines = build_toy((12,), 36, seed=17)
    cfg = TrainConfig(estimator=EstimatorConfig(kind), steps=steps, seed=17,
                      learning_rate=lr)
    return train(model, qnet, baselines, bars_dataset(144, 7), cfg)


@pytest.mark.slow
def test_training_raises_the_bound_for_every_kind():
    margins = {}
    for kind in KINDS:
        res = _train_kind(kind, lr=0.002)
        windows = res.elbo.reshape(10, 2000).mean(axis=1)
        margins[kind] = float(np.diff(windows).min())
    worst = min(margins, key=margins.get)
    ok = all(m > 0.0 for m in margins.values())
    _report(ok, "training ascent",
            "all %d estimator kinds, window means over 10 blocks of 2000 "
            "steps strictly increasing, smallest rise %.4f (%s)"
            % (len(KINDS), margins[worst], worst))
    assert ok, margins


def test_sampled_training_gradients_match_enumeration():
    model, qnet, baselines = build_toy((4,), 6, seed=17)
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    _, want = enumerate_elbo(model, qnet, y)

    worst_dev = 0.0
    for kind in UNBIASED_KINDS:
        draws = sample_q_logit_gradients(model, qnet, baselines, y,
                                         EstimatorConfig(kind),
                                         samples=100000, seed=31)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        dev = np.abs(draws.mean(axis=0) - want) / se
        worst_dev = max(worst_dev, float(dev.max()))

    st = sample_q_logit_gradients(model, qnet, baselines, y,
                                  EstimatorConfig("straight_through"),
                                  samples=100000, seed=31)
    st_se = st.std(axis=0, ddof=1) / np.sqrt(st.shape[0])
    st_dev = float((np.abs(st.mean(axis=0) - want) / st_se).max())

    ok = worst_dev <= 3.0 and st_dev > 10.0
    _report(ok, "sampled gradient fidelity",
            "%d unbiased kinds within %.2f standard errors of the "
            "enumerated gradient at 1e5 draws; straight_through off by "
            "%.0f standard errors as expected"
            % (len(UNBIASED_KINDS), worst_dev, st_dev))
    assert worst_dev <= 3.0
    assert st_dev > 10.0


@pytest.mark.slow
def test_variate_lowers_tracked_gradient_variance():
    mu = _train_kind("muprop", lr=0.05)
    co = _train_kind("combined", lr=0.05)
    mu_lv = mu.log_variance[:, 0].reshape(10, 2000).mean(axis=1)
    co_lv = co.log_variance[:, 0].reshape(10, 2000).mean(axis=1)
    margins = mu_lv - co_lv
    below = int(np.sum(margins > 0.0))
    final_margin = float(margins[-1])
    ok = below == len(margins) and final_margin > 0.0
    _report(ok, "variance tracking advantage",
            "combined below muprop in mean tracked log-variance over %d of "
            "%d blocks of 2000 steps, smallest block margin %.2f, final "
            "block margin %.2f"
            % (below, len(margins), float(margins.min()), final_margin))
    assert below == len(margins), margins
    assert final_margin > 0.0


# ---------------------------------------------------------------------------
# Gate 8: the command-line surface.  Every documented example command runs
# clean and produces byte-identical artifacts when rerun.

def _run_cli_twice(tmp_path, name, build_argv):
    dirs = []
    for tag in ("a", "b"):
        d = tmp_path / (name + "_" + tag)
        d.mkdir()
        assert cli_main(build_argv(str(d))) == 0
        dirs.append(d)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for fname in names:
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
    return dirs[0], names


def test_cli_examples_run_clean_and_deterministic(tmp_path):
    first, n_self = _run_cli_twice(
        tmp_path, "selftest", lambda d: ["selftest", "--out", d])
    assert "FAIL" not in (first / "selftest.csv").read_text()

    tdir, n_tr = _run_cli_twice(
        tmp_path, "transform",
        lambda d: ["transform", "--function", "maj(3)", "--p", "0.5",
                   "--out", d])
    body = (tdir / "transform.txt").read_text()
    assert "# n=3" in body
    data = [ln for ln in body.splitlines() if ln and not ln.startswith("#")]
    assert data == ["0\t0.5", "1\t0.5", "2\t0.5", "0,1,2\t-0.5"]

    _, n_gc = _run_cli_twice(
        tmp_path, "gradcheck", lambda d: ["gradcheck", "--out", d])

    _, n_bn = _run_cli_twice(
        tmp_path, "bench",
        lambda d: ["bench", "--function", "maj(3)", "--out", d])
    assert "bench_reinforce.csv" in n_bn
    assert "bench_fourier_cv.csv" in n_bn

    files = len(n_self) + len(n_tr) + len(n_gc) + len(n_bn)
    _report(True, "command determinism",
            "selftest, transform, gradcheck, bench rerun byte-identical "
            "(%d artifact files); transform lists the 4 nonzero "
            "coefficients of maj(3)" % files)
