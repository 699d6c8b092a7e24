"""Spans around boolcube's public functions, recorded from outside.

`Tracer.install` replaces each listed function or method with a
wrapper, under every name a boolcube module looks it up by (a function
imported into five modules is patched in all five), and `uninstall`
puts the originals back.  A wrapper records one span: name, start,
end, the index of the enclosing span and the context label the
benchmark set for the operation.  Spans are held in flat arrays and
written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced function; "Class.method" names a
# method, patched on its class.
TRACED = (
    ("cli", "main"),
    ("cli", "_write"),
    ("sbn", "save_checkpoint"),
    ("sbn", "save_dataset"),
    ("estimators", "VarianceReport.to_csv"),
    ("sbn", "TrainResult.to_csv"),
    ("sbn", "Trainer.step"),
    ("nets", "log_sigmoid"),
    ("nets", "sigmoid"),
    ("nets", "bern_ll"),
    ("nets", "bern_ll_grad_t"),
    ("nets", "MLP.forward"),
    ("nets", "MLP.backward"),
    ("nets", "Momentum.ascend"),
    ("rng", "stream"),
    ("estimators", "benchmark_variance"),
    ("estimators", "expected_value_by_enumeration"),
    ("estimators", "variance_by_enumeration"),
    ("cube", "sample"),
    ("cube", "correlated_sample"),
    ("cube", "weights"),
    ("cube", "enumerate_points"),
    ("fourier", "transform"),
    ("fourier", "inverse_transform"),
    ("fourier", "BooleanFunction.batch"),
    ("fourier", "FourierExpansion.evaluate_batch"),
    ("fourier", "multilinear_gradient"),
    ("operators", "noise_exact"),
    ("operators", "exact_gradient"),
    ("funcspec", "parse_function"),
    ("funcspec", "FunctionSpec.build"),
)

# The function whose returned coefficient maps are counted.
_COUNTED = "fourier.transform"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.contexts: list[str] = []
        self._context_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.context_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.coeffs_materialized = 0
        self._stack: list[int] = []
        self._context = self._intern_context("")
        self._undo: list[tuple[object, str, object]] = []

    def _intern_context(self, label: str) -> int:
        if label not in self._context_ids:
            self._context_ids[label] = len(self.contexts)
            self.contexts.append(label)
        return self._context_ids[label]

    def set_context(self, label: str):
        self._context = self._intern_context(label)

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        counted = name == _COUNTED
        stack, clock = self._stack, time.perf_counter
        spans = (self.name_id, self.context_id, self.parent, self.start,
                 self.end)

        def traced(*args, **kwargs):
            idx = len(self.start)
            spans[0].append(nid)
            spans[1].append(self._context)
            spans[2].append(stack[-1] if stack else -1)
            spans[3].append(clock())
            spans[4].append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[4][idx] = clock()
            if counted:
                self.coeffs_materialized += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every traced name in every loaded boolcube module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "boolcube" or k.startswith("boolcube.")]
        for mod_name, attr in TRACED:
            home = sys.modules["boolcube." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap("%s.%s" % (mod_name, attr), orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap("%s.%s" % (mod_name, attr), orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "context_id": np.frombuffer(self.context_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[tuple[str, str], tuple[float, float, int]]:
        """{(name, context): (total seconds, self seconds, calls)}; self
        time is a span's duration minus that of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        key = a["name_id"].astype(np.int64) * len(self.contexts) + a["context_id"]
        for k in np.unique(key):
            sel = key == k
            name = self.names[int(k) // len(self.contexts)]
            ctx = self.contexts[int(k) % len(self.contexts)]
            out[(name, ctx)] = (float(dur[sel].sum()), float(own[sel].sum()),
                                int(sel.sum()))
        return out

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names),
                            contexts=np.array(self.contexts), **self.arrays())
