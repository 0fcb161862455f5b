"""Nested spans around the public functions of invkloos, for traced rounds.

install() replaces each target with a wrapper in every loaded invkloos
module that holds it (functions) or on its class (methods), so calls
are recorded where the program's own callers look them up and the
pipeline runs unchanged.  Spans stay in memory and are written out once
the round ends.  Calls run on one thread, so spans nest strictly and a
span's children cover exactly the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (home module, function or Class.method, layer bucket)
TARGETS = (
    ("gf", "FieldTable.__init__", "gf.tables"),
    ("gf", "ExtensionMaps.__init__", "gf.tables"),
    ("gf", "build_field", "gf.tables"),
    ("gf", "field_maps", "gf.tables"),
    ("expsum", "kloosterman_sum", "expsum.kernel"),
    ("expsum", "toric_sum", "expsum.toric"),
    ("expsum", "e_sum", "expsum.toric"),
    ("expsum", "ik_laurent", "expsum.toric"),
    ("expsum", "gauss_formula_parts", "expsum.oracle"),
    ("expsum", "gauss_formula_sum", "expsum.oracle"),
    ("expsum", "gauss_sum", "expsum.oracle"),
    ("expsum", "tn_transform", "expsum.transform"),
    ("cyclotomic", "CycloRational.ord_q", "cyclotomic.valuation"),
    ("cyclotomic", "CycloRational.ord_pi", "cyclotomic.valuation"),
    ("cyclotomic", "CycloRational.norm", "cyclotomic.valuation"),
    ("cyclotomic", "SumValue.__mul__", "cyclotomic.sumvalue_mul"),
    ("cyclotomic", "SumValue.__rmul__", "cyclotomic.sumvalue_mul"),
    ("cyclotomic", "SumValue.__eq__", "cyclotomic.sumvalue_eq"),
    ("cyclotomic", "SumValue.is_zero", "cyclotomic.sumvalue_eq"),
    ("cyclotomic", "SumValue.from_hist", "cyclotomic.convert"),
    ("cyclotomic", "reduce_mod_phi", "cyclotomic.convert"),
    ("cyclotomic", "embed_complex", "cyclotomic.convert"),
    ("lfun", "newton_to_elementary", "lfun.newton"),
    ("lfun", "elementary_to_power", "lfun.newton"),
    ("lfun", "newton_polygon", "lfun.polygon"),
    ("lfun", "complex_weights", "lfun.roots"),
    ("lfun", "lfunction_pipeline", "lfun.self"),
    ("lfun", "power_sums", "lfun.self"),
    ("lfun", "strip_trivial_roots", "lfun.self"),
    ("lfun", "assemble_lfunction", "lfun.self"),
    ("lfun", "predicted_power_sum", "lfun.self"),
    ("lfun", "heldout_check", "lfun.self"),
    ("polytope", "hodge_data", "polytope.hodge"),
    ("polytope", "build_polytope", "polytope.build"),
    ("polytope", "ik_polytope", "polytope.build"),
    ("polytope", "facial_ordinary", "polytope.build"),
    ("polytope", "diagonal_nondegenerate", "polytope.build"),
    ("suites", "suite_thm0", "suites.self"),
    ("suites", "suite_thm2", "suites.self"),
    ("suites", "suite_cor1", "suites.self"),
    ("suites", "suite_thm1", "suites.self"),
    ("suites", "suite_identities", "suites.self"),
    ("suites", "suite_thm33", "suites.self"),
    ("suites", "suite_prop31", "suites.self"),
)


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


# work counts read off a call's bound arguments
COUNTERS = {
    "FieldTable.__init__": lambda a: {"gf.tables_built": 1,
                                      "gf.elements": a["self"].q,
                                      "gf.table_bytes": _array_bytes(a["self"])},
    "ExtensionMaps.__init__": lambda a: {"gf.tables_built": 1,
                                         "gf.table_bytes": _array_bytes(a["self"])},
    "kloosterman_sum": lambda a: {
        "expsum.torus_points": (a["F"].q ** a["k"] - 1) ** a["n"]},
    "toric_sum": lambda a: {
        "expsum.toric_points": (a["F"].q ** a["k"] - 1) ** a["f"].n_vars},
}

# per-layer metrics that are a bucket's summed self time
SELF_TIME_METRICS = {
    "gf.tables_s": "gf.tables",
    "expsum.kernel_s": "expsum.kernel",
    "expsum.toric_s": "expsum.toric",
    "expsum.oracle_s": "expsum.oracle",
    "expsum.transform_s": "expsum.transform",
    "cyclotomic.valuation_s": "cyclotomic.valuation",
    "cyclotomic.sumvalue_mul_s": "cyclotomic.sumvalue_mul",
    "cyclotomic.sumvalue_eq_s": "cyclotomic.sumvalue_eq",
    "cyclotomic.convert_s": "cyclotomic.convert",
    "lfun.newton_s": "lfun.newton",
    "lfun.polygon_s": "lfun.polygon",
    "lfun.roots_s": "lfun.roots",
    "lfun.self_s": "lfun.self",
    "polytope.hodge_s": "polytope.hodge",
    "polytope.build_s": "polytope.build",
    "suites.self_s": "suites.self",
}


class Tracer:
    """Span recorder; spans are (name, parent index, t0_ns, t1_ns)."""

    def __init__(self):
        self.spans: list = []
        self.bucket: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.warnings: list[str] = []
        self.recording = True
        self._stack: list[int] = []

    def wrap(self, name: str, bucket: str, fn, counter=None):
        self.bucket[name] = bucket
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            parent = stack[-2] if len(stack) > 1 else -1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, parent, t0, time.perf_counter_ns())
                stack.pop()
            if counter:
                self._count(name, counter, sig, args, kwargs)
            return result
        return traced

    def _count(self, name, counter, sig, args, kwargs):
        try:
            self.counts.update(counter(sig.bind(*args, **kwargs).arguments))
        except (TypeError, KeyError, AttributeError) as exc:
            self.warn(f"cannot count {name}: {exc!r}")

    def warn(self, msg: str) -> None:
        if msg not in self.warnings:
            self.warnings.append(msg)
            print(f"bench trace: {msg}", file=sys.stderr)

    def install(self, package) -> None:
        """Wrap every target that exists in the loaded package."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package.__name__
                                         or k.startswith(package.__name__ + "."))]
        for home, attr, bucket in TARGETS:
            mod = sys.modules.get(f"{package.__name__}.{home}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(meth) if owner is not None else None
            if raw is None:
                self.warn(f"target {home}.{attr} not found")
                continue
            name = f"{home}.{attr}"
            counter = COUNTERS.get(attr)
            if owner_name:
                if isinstance(raw, classmethod):
                    setattr(owner, meth, classmethod(
                        self.wrap(name, bucket, raw.__func__, counter)))
                else:
                    setattr(owner, meth, self.wrap(name, bucket, raw, counter))
                continue
            traced = self.wrap(name, bucket, raw, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, traced)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        own = self_times(self.spans)
        by_bucket: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        outer: Counter = Counter()
        for name, seconds in own.items():
            by_bucket[self.bucket[name]] += seconds
        for name, parent, _, _ in self.spans:
            b = self.bucket[name]
            calls[b] += 1
            if parent < 0 or self.bucket[self.spans[parent][0]] != b:
                outer[b] += 1
        out = {m: by_bucket[b] for m, b in SELF_TIME_METRICS.items()}
        kernel_s = out["expsum.kernel_s"]
        points = self.counts["expsum.torus_points"]
        out.update({
            "gf.tables_built": self.counts["gf.tables_built"],
            "gf.elements": self.counts["gf.elements"],
            "gf.table_mib": self.counts["gf.table_bytes"] / 2 ** 20,
            "expsum.kernel_calls": calls["expsum.kernel"],
            "expsum.torus_points": points,
            "expsum.kernel_rate": points / kernel_s if kernel_s else 0.0,
            "expsum.toric_points": self.counts["expsum.toric_points"],
            "cyclotomic.valuation_calls": outer["cyclotomic.valuation"],
            "cyclotomic.sumvalue_mul_calls": calls["cyclotomic.sumvalue_mul"],
        })
        return out

    def write(self, path: str) -> None:
        """Flush the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "layer": self.bucket[name],
                                     "t0_ns": t0, "t1_ns": t1}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its children's."""
    child_ns = [0] * len(spans)
    for _, parent, t0, t1 in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for (name, _, t0, t1), inner in zip(spans, child_ns):
        out[name] += (t1 - t0 - inner) / 1e9
    return dict(out)
