"""Per-layer tracing for the traced run, from outside the library.

Wrappers are installed where each name is looked up at call time: module
globals such as ``gsfactor.factorizer.factorize`` (the name the closed form
and the oracle call), class attributes such as ``Poly.__mul__``, and kernel
methods on ``ModPKernel`` / ``DigitKernel``.  Each call records a span (name,
start, end, parent span, request id) in flat in-memory arrays; self time is a
span's duration minus the durations of its direct children.  Nothing under
``src/`` changes, and the untraced run installs nothing.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from gsfactor import _kernels, cli, dickson, factorizer, ffield, polyring, recurrence

KERNELS = ("ModPKernel", "DigitKernel")
KERNEL_METHODS = (
    "squarefree_parts",
    "distinct_degree_parts",
    "equal_degree_split",
    "powmod",
    "gcd",
    "mul",
    "pdivmod",
)

# metric prefix -> the module attributes its wrapper replaces
FUNCTIONS = {
    "cli.main": [(cli, "main")],
    "dickson.build_ctx": [(dickson, "build_ctx"), (cli, "build_ctx")],
    "dickson.build_g": [(dickson, "build_g"), (factorizer, "build_g")],
    "factorizer.classify": [(factorizer, "classify"), (cli, "classify")],
    "factorizer.factor_closed_form": [
        (factorizer, "factor_closed_form"),
        (cli, "factor_closed_form"),
    ],
    "factorizer.constant_terms": [(factorizer, "constant_terms"), (cli, "constant_terms")],
    "factorizer.sign_class": [(factorizer, "sign_class"), (cli, "sign_class")],
    "factorizer.verify_against_oracle": [
        (factorizer, "verify_against_oracle"),
        (cli, "verify_against_oracle"),
    ],
    # factorizer imports build_profile inside its functions, from the module
    "recurrence.build_profile": [(recurrence, "build_profile")],
    "ffield.mult_order": [(ffield, "mult_order"), (recurrence, "mult_order"), (factorizer, "mult_order")],
    "ffield.sqrt": [(ffield, "sqrt"), (recurrence, "sqrt"), (factorizer, "sqrt")],
    "ffield.make_field_q": [(ffield, "make_field_q"), (cli, "make_field_q")],
    "polyring.factorize": [(polyring, "factorize"), (factorizer, "factorize")],
    "polyring.decompose_by": [(polyring, "decompose_by"), (factorizer, "decompose_by")],
    "polyring.roots_in_field": [(polyring, "roots_in_field"), (factorizer, "roots_in_field")],
    "polyring.Factorization.expand": [(polyring.Factorization, "expand")],
    "polyring.poly_mul": [(polyring.Poly, "__mul__")],
    "polyring.poly_divmod": [(polyring.Poly, "__divmod__")],
}
for _k in KERNELS:
    for _m in KERNEL_METHODS:
        FUNCTIONS[f"kernels.{_k}.{_m}"] = [(getattr(_kernels, _k), _m)]


def _mul_ops(args) -> int:
    return len(args[1]) * len(args[2])


def _pdivmod_ops(args) -> int:
    la, lb = len(args[1]), len(args[2])
    return (la - lb + 1) * lb if la >= lb else 0


def _edf_splits(args) -> int:
    return int(len(args[1]) - 1 > args[2])  # deg f > d: the call must split f


# counters kept beside the spans: metric name -> (wrapped function, count from args)
COUNTERS = {}
for _k in KERNELS:
    COUNTERS[f"kernels.{_k}.mul.coeff_ops"] = (f"kernels.{_k}.mul", _mul_ops)
    COUNTERS[f"kernels.{_k}.pdivmod.coeff_ops"] = (f"kernels.{_k}.pdivmod", _pdivmod_ops)
    COUNTERS[f"kernels.{_k}.edf_splitting"] = (f"kernels.{_k}.equal_degree_split", _edf_splits)


class Tracer:
    """Span recorder.  The wrappers are built once; ``install`` puts them in
    place and ``uninstall`` restores the library's own functions."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.request: array = array("l")
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.counts.update({f"kernels.{k}.rand_vec": 0 for k in KERNELS})
        self.current_request = -1
        self._stack: list[int] = []
        self._sites = []  # (owner, attribute, its own value or None if inherited, wrapper)
        for name, sites in FUNCTIONS.items():
            owner, attr = sites[0]
            counters = [(key, f) for key, (target, f) in COUNTERS.items() if target == name]
            wrapper = self.wrap(name, getattr(owner, attr), counters)
            for owner, attr in sites:
                self._sites.append((owner, attr, owner.__dict__.get(attr), wrapper))
        for k in KERNELS:
            cls = getattr(_kernels, k)
            counter = self._counter(f"kernels.{k}.rand_vec", cls.rand_vec)
            self._sites.append((cls, "rand_vec", cls.__dict__.get("rand_vec"), counter))

    def wrap(self, name: str, fn, counters=()):
        nid = len(self.names)
        self.names.append(name)
        stack, counts = self._stack, self.counts
        starts, ends, parents = self.start, self.end, self.parent
        name_ids, requests = self.name_id, self.request
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, count in counters:
                counts[key] += count(args)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._sites:
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "request": np.array(self.request, dtype=np.int64),
            "names": np.array(self.names),
        }

    def save(self, path: str):
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, requests: int) -> dict:
        """Per-request calls and self time for every wrapped name, plus the
        derived ratios; every metric is present even when its layer is idle."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=len(self.names))
        per = max(requests, 1)
        out = {}
        for i, name in enumerate(self.names):
            if name == "request":
                continue
            out[f"{name}.calls"] = (calls[i] / per, "calls/req")
            out[f"{name}.self_s"] = (self_s[i] / per, "s/req")
        total = dict(zip(self.names, calls))
        for key in COUNTERS:
            if key.endswith(".coeff_ops"):
                out[key] = (self.counts[key] / per, "ops/req")
        for k in KERNELS:
            draws = self.counts[f"kernels.{k}.rand_vec"]
            splits = self.counts[f"kernels.{k}.edf_splitting"]
            out[f"kernels.{k}.edf_useful_ratio"] = (splits / draws if draws else 0.0, "ratio")
        mains = total["cli.main"]
        out["cli.closed_forms_per_request"] = (
            total["factorizer.factor_closed_form"] / mains if mains else 0.0,
            "ratio",
        )
        out["recurrence.profiles_per_request"] = (
            total["recurrence.build_profile"] / per,
            "calls/req",
        )
        return out
