"""The benchmark's three workloads: their inputs, the operations of one
round, and the checks on each operation's output.

Every operation belongs to one end-to-end slot:

    plain_ms  the workload's path without the mechanism under study
    full_ms   the same path with it
    aux1_ms   a third user operation of the workload
    aux2_ms   a fourth

A slot's figure is the sum, over the slot's distinct operations, of
each operation's median time in the run, corrected to the reference
machine speed and divided by the operation's divisor (steps per
training call, kinds per group).  The raw median, uncorrected, is
reported beside it.

Every round repeats the same operations on the same inputs, so a round
after the first must reproduce the first round's outputs exactly; the
full checks run on the first round's outputs and later rounds are
compared with them.  Checks compare against reference.py, the
benchmark's own computations, or against properties the method must
have; none compares with stored output.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from boolcube import cli, cube, estimators, fourier, funcspec, operators, sbn

import reference as ref

# A sampled mean must lie within this many standard errors of the exact
# value: a false alarm has probability about 2e-9 per coordinate.
Z_BOUND = 6.0
# Relative tolerance between a sampled variance and the exact one; at
# 1e5 trials the largest deviation seen was 1.5% (3 seeds, 7 kinds, 10
# coordinates).
VARIANCE_RTOL = 0.1
# Agreement between two exact computations of the same quantity.
EXACT_RTOL = 1e-9

# How a slot's times scale with the speed probe's (README, "Machine
# speed"): one exponent per slot, shared by the slot's operations, and
# one for set-up.  fit_elasticity.py fitted them from the committed
# result files under perfbench/fit/, runs kept apart from those that
# measured the benchmark's spread.  A slot missing here is an error.
ELASTICITY = {
    "setup": 0.66,
    "train.plain": 0.92, "train.full": 0.90,
    "train.aux1": 0.60, "train.aux2": 0.60,
    "variance.plain": 0.54, "variance.full": 0.48,
    "variance.aux1": 0.89, "variance.aux2": 0.99,
    "spectral.plain": 0.74, "spectral.full": 0.83,
    "spectral.aux1": 0.22, "spectral.aux2": 0.75,
}


@dataclass
class Op:
    name: str
    slot: str
    context: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    divisor: float = 1.0


def close(a, b, rtol: float = EXACT_RTOL) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def within_z(draws: np.ndarray, exact: np.ndarray) -> bool:
    se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
    return bool(np.all(np.abs(draws.mean(axis=0) - exact) <= Z_BOUND * se + 1e-12))


def quiet_cli(argv: list[str]) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Workload:
    def __init__(self, seed: int, out: str):
        self.seed, self.out = seed, out
        self._first: dict[str, tuple[bytes, bool]] = {}

    def same_as_first(self, key: str, value: bytes, full_check) -> bool:
        """Run full_check on the first value seen under key; a later
        value passes if it equals that one byte for byte (by SHA-256)
        and that one passed."""
        digest = hashlib.sha256(value).digest()
        if key not in self._first:
            self._first[key] = (digest, bool(full_check()))
        first, ok = self._first[key]
        return ok and digest == first

    def ops(self) -> list[Op]:
        """The operations of one round, in order."""
        raise NotImplementedError

    def final_checks(self) -> dict[str, bool]:
        """Checks too costly to repeat per round, keyed by op name."""
        return {}

    def named_metrics(self, slot: dict[str, float]) -> list[tuple[str, float, str]]:
        """The workload's figures under their own names and units."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class Train(Workload):
    """`boolcube train` on the default toy problem with `reinforce` and
    `combined`, then a gradient probe at each restored checkpoint."""

    KINDS = ("reinforce", "combined")
    WIDTHS = (12,)
    OBS = 36
    # Steps per training call; check_step_count.py compares the per-step
    # cost at this count with that of a 20000-step call.
    STEPS = 400

    def __init__(self, seed, tiny, out):
        super().__init__(seed, out)
        self.steps = 200 if tiny else self.STEPS
        self.data = sbn.bars_dataset(144, 7)
        self.oracle_count = 6
        self.probe_count = 2
        self.probe_samples = 4000 if tiny else 10000
        named = sbn.named_parameters(*sbn.build_toy(self.WIDTHS, self.OBS, seed))
        self.init_params = {k: v.copy() for k, v in named.items()}
        self._exact: dict[str, tuple] = {}
        # units the last probe check of each kind could test
        self.units_tested: dict[str, int] = {}

    def _dir(self, kind: str) -> str:
        return os.path.join(self.out, kind)

    def _exact_at_checkpoint(self, kind: str):
        """(parameters, exact ELBO, evidence and logit gradient for every
        observation) at the trained checkpoint."""
        if kind not in self._exact:
            params = ref.read_checkpoint(
                os.path.join(self._dir(kind), "train_checkpoint.txt"))
            self._exact[kind] = (params, *ref.sbn_exact(params, self.data))
        return self._exact[kind]

    # -- operations --------------------------------------------------------

    def _train(self, kind: str) -> int:
        return quiet_cli(["train", "--estimator", kind, "--trials",
                          str(self.steps), "--seed", str(self.seed),
                          "--out", self._dir(kind)])

    def _check_train(self, kind: str, rc: int) -> bool:
        if rc != 0:
            return False
        d = self._dir(kind)
        blob = (read_bytes(os.path.join(d, "train_metrics.csv"))
                + read_bytes(os.path.join(d, "train_checkpoint.txt")))
        return self.same_as_first("train." + kind, blob, lambda: True)

    def _probe(self, kind: str):
        """Restore the trained checkpoint, then sample q-logit gradients
        at the observations whose posterior has the most units far
        enough from 0 and 1 for a sample of this size to see both
        outcomes often; training drives most units to the clamp."""
        model, qnet, baselines = sbn.build_toy(self.WIDTHS, self.OBS, self.seed)
        sbn.restore_checkpoint(model, qnet, baselines, sbn.load_checkpoint(
            os.path.join(self._dir(kind), "train_checkpoint.txt")))
        p = 1.0 / (1.0 + np.exp(-qnet.logits(0, self.data)))
        free = (np.minimum(p, 1.0 - p) * self.probe_samples >= 50).sum(axis=1)
        chosen = np.argsort(-free, kind="stable")[:self.probe_count]
        est = estimators.EstimatorConfig(kind)
        draws = [(int(k), sbn.sample_q_logit_gradients(
                    model, qnet, baselines, self.data[k], est,
                    self.probe_samples, self.seed + int(k)))
                 for k in chosen]
        return (model, qnet), draws

    def _check_probe(self, kind: str, out) -> bool:
        blob = b"".join(np.int64(k).tobytes() + d.tobytes() for k, d in out[1])
        return self.same_as_first("probe." + kind, blob,
                                  lambda: self._full_probe_check(kind, out))

    def _full_probe_check(self, kind: str, out) -> bool:
        """The sampled means lie within the z-bound of the exact
        gradient on every unit whose rarer outcome is expected at least
        50 times in the sample, where the sample mean is near normal.
        At the restored parameters, the library's exact oracles agree
        with the benchmark's enumeration."""
        (model, qnet), draws = out
        params, elbo, evidence, grad = self._exact_at_checkpoint(kind)
        self.units_tested[kind] = 0
        for k, d in draws:
            p, _ = ref.q_probabilities(params, self.data[k])
            tested = np.minimum(p, 1.0 - p) * self.probe_samples >= 50
            self.units_tested[kind] += int(tested.sum())
            if not within_z(d[:, tested], grad[k][tested]):
                return False
        if self.units_tested[kind] == 0:
            return False  # a z-test of no unit would test nothing
        for k in range(self.oracle_count):
            got_elbo, got_grad = sbn.enumerate_elbo(model, qnet, self.data[k])
            got_evidence = sbn.exact_log_likelihood(model, self.data[k])
            if not (close(got_elbo, elbo[k]) and close(got_evidence, evidence[k])
                    and close(got_grad, grad[k], 1e-7)):
                return False
        return True

    def ops(self):
        def op(prefix, slot, kind, run, check, divisor=1.0):
            return Op("%s.%s" % (prefix, kind), slot, kind, lambda: run(kind),
                      lambda out: check(kind, out), divisor)

        # Each kind trains twice a round, for more samples of the slots
        # that spread most between runs.
        return [
            op("train", "plain", "reinforce", self._train, self._check_train,
               self.steps),
            op("train", "full", "combined", self._train, self._check_train,
               self.steps),
        ] * 2 + [
            op("probe", "aux1", "reinforce", self._probe, self._check_probe),
            op("probe", "aux2", "combined", self._probe, self._check_probe),
        ]

    def final_checks(self):
        """Training raised the bound, and the trained model's exact ELBO
        lies below its exact evidence on every observation."""
        init_elbo = ref.sbn_exact(self.init_params, self.data)[0].mean()
        out = {}
        for kind in self.KINDS:
            d = self._dir(kind)
            rows = np.loadtxt(os.path.join(d, "train_metrics.csv"),
                              delimiter=",", comments="#", skiprows=3)
            window = max(1, self.steps // 10)
            ascent = rows[-window:, 1].mean() > rows[:window, 1].mean()
            _, elbo, evidence, _ = self._exact_at_checkpoint(kind)
            below = bool(np.all(elbo <= evidence + EXACT_RTOL * np.abs(evidence)))
            out["train." + kind] = bool(ascent and below and elbo.mean() > init_elbo)
        return out

    def named_metrics(self, slot):
        return [
            ("train.reinforce_steps_per_s", 1000.0 / slot["plain"], "steps/s"),
            ("train.combined_steps_per_s", 1000.0 / slot["full"], "steps/s"),
            ("train.reinforce_probe_s", slot["aux1"] / 1000.0, "s"),
            ("train.combined_probe_s", slot["aux2"] / 1000.0, "s"),
        ] + [("train.%s_probe_units_tested" % kind,
              self.units_tested.get(kind, 0), "units") for kind in self.KINDS]


# ---------------------------------------------------------------------------

class Variance(Workload):
    """`boolcube bench` for all seven kinds on a biased-p randpoly(10,3),
    then both enumeration oracles for the seven kinds."""

    SCORE = ("reinforce", "reinforce_const_baseline", "straight_through",
             "muprop")
    SMOOTHED = ("fourier_cv", "fourier_cv_alt", "combined")
    N = 10
    RHO = 0.5
    INNER = 4
    BASELINE = 0.5

    def __init__(self, seed, tiny, out):
        super().__init__(seed, out)
        rng = np.random.default_rng([seed, 2])
        self.p = rng.uniform(0.2, 0.8, self.N)
        self.trials = 20000 if tiny else 100000
        self.enum_reps = 1 if tiny else 3
        self.function = "randpoly(%d,3,0.5,%d)" % (self.N, seed)
        self.f = funcspec.parse_function(self.function).build()
        self.dist = cube.ProductDistribution(self.p)
        self.configs = {}
        for kind in self.SCORE + self.SMOOTHED:
            path = os.path.join(out, "bench_%s.json" % kind)
            with open(path, "w") as fh:
                json.dump({"function": self.function,
                           "p": ",".join(repr(float(v)) for v in self.p),
                           "estimators": [kind], "rho": self.RHO,
                           "k": self.INNER, "baseline": self.BASELINE,
                           "trials": self.trials, "seed": seed}, fh)
            self.configs[kind] = path
        self._exact_var: dict[str, np.ndarray] = {}
        self._grad = None

    def _est(self, kind):
        return estimators.EstimatorConfig(kind, rho=self.RHO,
                                          t_rho_samples=self.INNER)

    def _exact_gradient(self) -> np.ndarray:
        if self._grad is None:
            self._grad = ref.conditional_gradient(self.f.values(), self.p)
        return self._grad

    def _exact_variance(self, kind: str) -> np.ndarray:
        if kind not in self._exact_var:
            self._exact_var[kind] = estimators.variance_by_enumeration(
                self._est(kind), self.f, self.dist, baseline=self.BASELINE)
        return self._exact_var[kind]

    # -- operations --------------------------------------------------------

    def _bench(self, kind: str) -> int:
        return quiet_cli(["bench", "--config", self.configs[kind],
                          "--out", os.path.join(self.out, "bench")])

    def _check_bench(self, kind: str, rc: int) -> bool:
        if rc != 0:
            return False
        path = os.path.join(self.out, "bench", "bench_%s.csv" % kind)

        def full():
            rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=3,
                              usecols=(1, 2))
            mean, var = rows[:, 0], rows[:, 1]
            se = np.sqrt(var / self.trials)
            unbiased = np.all(np.abs(mean - self._exact_gradient())
                              <= Z_BOUND * se + 1e-12)
            want = self._exact_variance(kind)
            ok = unbiased and np.all(np.abs(var - want)
                                     <= VARIANCE_RTOL * want + 1e-12)
            if kind == "reinforce":
                own = ref.reinforce_moments(self.f.values(), self.p)[1]
                ok = ok and np.all(np.abs(var - own) <= VARIANCE_RTOL * own + 1e-12)
            return ok

        return self.same_as_first("bench." + kind, read_bytes(path), full)

    def _expected(self, kind: str) -> np.ndarray:
        return estimators.expected_value_by_enumeration(
            self._est(kind), self.f, self.dist, baseline=self.BASELINE)

    def _check_expected(self, kind: str, ev) -> bool:
        return close(ev, self._exact_gradient())

    def _variance(self, kind: str) -> np.ndarray:
        return estimators.variance_by_enumeration(
            self._est(kind), self.f, self.dist, baseline=self.BASELINE)

    def _check_variance(self, kind: str, var) -> bool:
        ok = bool(np.all(np.isfinite(var)) and np.all(var >= 0.0))
        if kind in ("reinforce", "reinforce_const_baseline"):
            table = self.f.values()
            if kind == "reinforce_const_baseline":
                table = table - self.BASELINE
            ok = ok and close(var, ref.reinforce_moments(table, self.p)[1])
        return ok

    def ops(self):
        def group(prefix, slot, kinds, run, check, divisor=1.0):
            return [Op("%s.%s" % (prefix, k), slot, k, lambda k=k: run(k),
                       lambda out, k=k: check(k, out), divisor) for k in kinds]

        def all_kinds(name, slot, run, check):
            # One operation for the seven kinds: each takes a few ms,
            # less than the collection that precedes every operation.
            kinds = self.SCORE + self.SMOOTHED
            return Op(name, slot, "enum", lambda: {k: run(k) for k in kinds},
                      lambda out: all(check(k, out[k]) for k in kinds))

        out = (group("bench", "plain", self.SCORE, self._bench,
                     self._check_bench, len(self.SCORE))
               + group("bench", "full", self.SMOOTHED, self._bench,
                       self._check_bench, len(self.SMOOTHED)))
        return out + [
            all_kinds("expected", "aux1", self._expected, self._check_expected),
            all_kinds("variance", "aux2", self._variance, self._check_variance),
        ] * self.enum_reps

    def named_metrics(self, slot):
        return [
            ("variance.score_trials_per_s",
             self.trials / (slot["plain"] / 1000.0), "trials/s"),
            ("variance.smoothed_trials_per_s",
             self.trials / (slot["full"] / 1000.0), "trials/s"),
            ("variance.enum_s", (slot["aux1"] + slot["aux2"]) / 1000.0, "s"),
        ]


# ---------------------------------------------------------------------------

class Spectral(Workload):
    """Exact analysis at n = 16 under a biased distribution, on a dense
    random table and on a sparse random degree-4 polynomial; building
    that polynomial from text; evaluating a dense expansion at n = 8."""

    N = 16
    RHO = 0.6
    EVAL_N = 8

    def __init__(self, seed, tiny, out):
        super().__init__(seed, out)
        rng = np.random.default_rng([seed, 3])
        n = self.N
        self.dense_reps = 1 if tiny else 3
        self.sparse_reps = 2 if tiny else 4
        self.eval_reps = 1 if tiny else 3
        self.p = rng.uniform(0.2, 0.8, n)
        self.dist = cube.ProductDistribution(self.p)
        self.inputs = {"dense": fourier.BooleanFunction(
            n, table=rng.normal(size=1 << n))}
        # A random polynomial: each subset of at most 4 coordinates is
        # kept with probability 1/2, with a standard normal coefficient.
        self.poly = np.zeros(1 << n)
        terms = []
        for size in range(1, 5):
            for members in itertools.combinations(range(n), size):
                keep, c = rng.random() < 0.5, rng.normal()
                if keep:
                    self.poly[sum(1 << i for i in members)] = c
                    terms.append("%r*[%s]" % (c, ",".join(map(str, members))))
        self.poly_text = "poly{%s}" % ";".join(terms)
        self.inputs["sparse"] = fourier.BooleanFunction(
            n, table=ref.poly_table(self.poly))
        m = self.EVAL_N
        self.eval_p = rng.uniform(0.2, 0.8, m)
        self.eval_dist = cube.ProductDistribution(self.eval_p)
        self.eval_coeffs = rng.normal(size=1 << m)
        self.expansion = fourier.FourierExpansion(
            m, {cube.SubsetIndex(s): float(c) for s, c in enumerate(self.eval_coeffs)})
        self.eval_points = np.where(rng.random((4096, m)) < self.eval_p, 1, -1)
        self.grad_points = self.eval_points[:16]
        self._expansions: dict[str, fourier.FourierExpansion] = {}
        self._refs: dict[str, object] = {}

    def _ref(self, key: str, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    # -- operations --------------------------------------------------------

    def _transform(self, key: str):
        self._expansions[key] = fourier.transform(self.inputs[key], self.dist)
        return self._expansions[key]

    def _check_transform(self, key: str, e) -> bool:
        """Parseval: the squared coefficients sum to E_p[f^2]."""
        t = self.inputs[key].values()
        want = self._ref("moment." + key, lambda: ref.point_weights(self.p) @ (t * t))
        coeffs = np.fromiter(e.coeffs.values(), dtype=np.float64)
        return abs(coeffs @ coeffs - want) <= EXACT_RTOL * want

    def _check_inverse(self, key: str, back) -> bool:
        return close(back.values(), self.inputs[key].values())

    def _check_noise(self, key: str, smooth) -> bool:
        want = self._ref("noise." + key, lambda: ref.keep_or_redraw(
            self.inputs[key].values(), self.RHO, self.p))
        return close(smooth.values(), want)

    def _check_gradient(self, key: str, grad) -> bool:
        want = self._ref("grad." + key, lambda: ref.conditional_gradient(
            self.inputs[key].values(), self.p))
        return close(grad, want)

    def _build(self):
        return funcspec.parse_function(self.poly_text).build()

    def _check_build(self, f) -> bool:
        """The table is the polynomial's, and at p = 1/2 the transform
        gives back the polynomial's own coefficients."""
        if not close(f.values(), self.inputs["sparse"].values()):
            return False
        e = fourier.transform(f, cube.ProductDistribution.uniform(self.N))
        got = np.zeros(1 << self.N)
        for s, c in e.coeffs.items():
            got[s.mask] = c
        return close(got, self.poly)

    def _eval_ref(self):
        table = ref.biased_table(self.eval_coeffs, self.eval_p)
        return (table[ref.point_indices(self.eval_points)],
                ref.multilinear_derivative(table, self.grad_points))

    def _check_values(self, values) -> bool:
        return close(values, self._ref("eval", self._eval_ref)[0])

    def _check_grads(self, grads) -> bool:
        return close(grads, self._ref("eval", self._eval_ref)[1])

    def ops(self):
        def analysis(key, slot):
            f = self.inputs[key]
            return [
                Op("transform." + key, slot, key, lambda: self._transform(key),
                   lambda e: self._check_transform(key, e)),
                Op("noise_exact." + key, slot, key,
                   lambda: operators.noise_exact(f, self.RHO, self.dist),
                   lambda out: self._check_noise(key, out)),
                Op("exact_gradient." + key, slot, key,
                   lambda: operators.exact_gradient(f, self.dist),
                   lambda out: self._check_gradient(key, out)),
                Op("inverse_transform." + key, slot, key,
                   lambda: fourier.inverse_transform(self._expansions.pop(key),
                                                     self.dist),
                   lambda out: self._check_inverse(key, out)),
            ]

        evaluate = [
            Op("evaluate_batch", "aux2", "eval",
               lambda: self.expansion.evaluate_batch(self.eval_points,
                                                     self.eval_dist),
               self._check_values),
            Op("multilinear_gradient", "aux2", "eval",
               lambda: np.array([fourier.multilinear_gradient(
                   self.expansion, x, self.eval_dist) for x in self.grad_points]),
               self._check_grads),
        ]
        return (analysis("dense", "full") * self.dense_reps
                + analysis("sparse", "plain") * self.sparse_reps
                + [Op("build", "aux1", "build", self._build, self._check_build)]
                + evaluate * self.eval_reps)

    def named_metrics(self, slot):
        return [
            ("spectral.dense_s", slot["full"] / 1000.0, "s"),
            ("spectral.sparse_s", slot["plain"] / 1000.0, "s"),
            ("spectral.build_s", slot["aux1"] / 1000.0, "s"),
            ("spectral.eval_s", slot["aux2"] / 1000.0, "s"),
        ]


WORKLOADS = {"train": Train, "variance": Variance, "spectral": Spectral}
