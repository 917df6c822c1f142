"""Outside-in span tracing of trainyard, without editing the library.

Every public function named in ``trainyard.__all__``, plus the expansion
witness check, is replaced by a timing wrapper at every module binding
(the package namespace and each ``from .x import ...`` copy), so calls
nested inside other layers are seen too.  Spans are kept in memory until
the run ends; a layer's self time is its spans' durations minus their
children's.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("rodset", "series", "counts", "expansion", "structure", "cli")
WITNESS = "_identity_holds"


def _max_bits(values) -> int:
    return max((abs(c).bit_length() for c in values), default=0)


def _trimmed_len(p) -> int:
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return n


def _divexact_steps(p, q) -> int:
    """Inner-loop steps of the dense exact division, computed from argument lengths."""
    lp, lq = _trimmed_len(p), _trimmed_len(q)
    if not lp or not lq or lp < lq:
        return 0
    m = lp - lq
    if abs(q[0]) != 1:
        return (m + 1) * lq
    c = lq - 1
    if m <= c:
        return m * (m + 1) // 2
    return c * (c + 1) // 2 + (m - c) * c


def _nnz(p) -> int:
    return sum(1 for c in p if c)


# Per-function probes: (args, kwargs, result) -> info stored in the span.
PROBES = {
    "poly_mul": lambda a, k, r: (_nnz(a[0]) * _nnz(a[1]), _max_bits(r)),
    "poly_divexact": lambda a, k, r: (_divexact_steps(a[0], a[1]), r is not None,
                                      _max_bits(r or ())),
    "series_inverse": lambda a, k, r: _max_bits(r),
    "series_mul": lambda a, k, r: _max_bits(r),
    "train_counts": lambda a, k, r: (type(a[0]).__name__ == "RodSet", len(r)),
    "enumerate_trains": lambda a, k, r: r.total,
    "solve_Q": lambda a, k, r: r.q_finite is not None,
    "scan_two_expansions": lambda a, k, r: (a[1] * (a[1] - 1) // 2, len(r)),
}


class Tracer:
    """Installs and removes span wrappers on an imported trainyard package."""

    def __init__(self, package):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []
        expansion = sys.modules[package.__name__ + ".expansion"]
        witness = getattr(expansion, WITNESS, None)
        if not inspect.isfunction(witness):
            raise RuntimeError(f"trainyard.expansion.{WITNESS} is missing; cannot time the witness")
        self.targets = {getattr(package, name): name for name in package.__all__
                        if inspect.isfunction(getattr(package, name))}
        self.targets[witness] = WITNESS
        self.layer_of = {name: fn.__module__.rsplit(".", 1)[-1]
                         for fn, name in self.targets.items()}
        self.modules = [package] + [sys.modules[package.__name__ + "." + m] for m in LAYERS
                                    if package.__name__ + "." + m in sys.modules]

    def _wrap(self, fn, name):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if probe is not None:
                spans[idx] = (name, t0, t1, parent, probe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.targets.items()}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def summarize(spans: list, layer_of: dict) -> dict:
    """Per-layer metrics of one traced lap (times in seconds, counts exact)."""
    n = len(spans)
    child = [0.0] * n
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    m: dict = defaultdict(float)
    under_expansion = [False] * n
    counters = defaultdict(int)
    for i, (name, t0, t1, parent, info) in enumerate(spans):
        dur = t1 - t0
        own = dur - child[i]
        layer = layer_of[name]
        pname = spans[parent][0] if parent >= 0 else None
        m[layer + ".busy_s"] += own
        if parent >= 0:
            under_expansion[i] = under_expansion[parent] or layer_of[pname] == "expansion"
        if layer == "expansion" and not under_expansion[i]:
            m["_expansion_top_s"] += dur
        if name == WITNESS:
            m["expansion.witness_busy_s"] += dur
        elif name in ("poly_mul", "poly_divexact", "series_inverse", "enumerate_trains",
                      "sequence_discrepancies", "dual", "rodset_from_counts"):
            m[f"{layer}.{name}.busy_s"] += own
        if info is None:
            if name in ("poly_mul", "poly_divexact", "solve_Q", "train_counts"):
                counters[f"{layer}.{name}.calls"] += 1
            continue
        if name == "poly_mul":
            counters["series.poly_mul.calls"] += 1
            counters["series.poly_mul.coeff_products"] += info[0]
            counters["series.max_coeff_bits"] = max(counters["series.max_coeff_bits"], info[1])
        elif name == "poly_divexact":
            steps, divides, bits = info
            counters["series.poly_divexact.calls"] += 1
            counters["series.poly_divexact.inner_steps"] += steps
            counters["series.max_coeff_bits"] = max(counters["series.max_coeff_bits"], bits)
            if pname == "detect_period":
                counters["structure.detect_period.candidates"] += 1
                counters["structure.detect_period.peeled"] += divides
            elif pname == "borwein_classify":
                counters["structure.borwein.divisions"] += 1
        elif name in ("series_inverse", "series_mul"):
            counters["series.max_coeff_bits"] = max(counters["series.max_coeff_bits"], info)
        elif name == "train_counts":
            finite, terms = info
            counters["counts.train_counts.calls"] += 1
            counters["counts.train_counts.terms"] += terms
            m["counts.train_counts." + ("finite" if finite else "source") + "_busy_s"] += own
        elif name == "enumerate_trains":
            counters["counts.enumerate_trains.trains_walked"] += info
        elif name == "solve_Q":
            counters["expansion.solve_Q.calls"] += 1
            counters["_solve_Q_decided"] += info
        elif name == "scan_two_expansions":
            counters["structure.scan_two.pairs_tried"] += info[0]
            counters["structure.scan_two.hits"] += info[1]
        if name == "solve_Q" and pname == "scan_two_expansions":
            counters["structure.scan_two.confirmations"] += 1
    out = dict(m)
    out.update(counters)
    out["expansion.witness_share"] = (out.get("expansion.witness_busy_s", 0.0)
                                      / out["_expansion_top_s"]) if out.get("_expansion_top_s") else 0.0
    calls = out.get("expansion.solve_Q.calls", 0)
    out["expansion.solve_Q.decided_ratio"] = out.pop("_solve_Q_decided", 0) / calls if calls else 0.0
    confirmations = out.get("structure.scan_two.confirmations", 0)
    out["structure.scan_two.hit_ratio"] = (out.get("structure.scan_two.hits", 0) / confirmations
                                           if confirmations else 0.0)
    out.pop("_expansion_top_s", None)
    out["trace.spans"] = n
    return out
