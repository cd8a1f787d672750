"""Span tracing from outside the package: wrappers around public functions.

Each wrapped call records one span (name, start, end, parent span, item
id) into typed arrays kept in memory; self times and counts are derived
from them when the run ends.  Wrappers are installed in every loaded
`abelianity` module that binds the function, because `cli` calls through
module attributes and calls inside a module look the name up in that
module's globals.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, function) pairs that get a span, named "<module>.<function>"
SPANNED = (
    ("cli", "main"), ("cli", "emit"),
    ("lattice", "intersect_surfaces"), ("lattice", "lambda_of_intersection"),
    ("lattice", "classify_intersection"), ("lattice", "classify_lambda"),
    ("lattice", "solve_condition2"), ("lattice", "surfaces_through_line"),
    ("lattice", "super_abelianity_check"),
    ("oracle", "exchange_exponents"), ("oracle", "cycle_collapses"),
    ("oracle", "centrality_exponents"),
    ("elliptic", "yfunc"), ("elliptic", "centrality_ratio"),
    ("elliptic", "ufunc_a"), ("elliptic", "theta"),
    ("elliptic", "u_zero_pole_adjacent"),
    ("poisson", "f_compact"), ("poisson", "f_series"), ("poisson", "f_kk"),
    ("poisson", "theta_logderiv_series"), ("poisson", "params_for_line"),
)


class Tracer:
    """In-memory span store plus the counters the spans cannot carry.

    `summary` and `counts` cover only the items numbered below `limit`,
    so that they do not depend on how long a run goes on.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts: Counter = Counter()
        self.item = -1
        self._stack = [-1]
        self._undo: list = []

    def _span(self, name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.name_of)
            self.name_of.append(nid)
            self.parent.append(self._stack[-1])
            self.item_of.append(self.item)
            self.end.append(0.0)
            self.failed.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap SPANNED functions and count ExponentMultiset.build traffic."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        oracle = sys.modules[package.__name__ + ".oracle"]
        hooks = {("lattice", "solve_condition2"): self._count_families}
        for modname, fname in SPANNED:
            home = sys.modules[f"{package.__name__}.{modname}"]
            original = getattr(home, fname)
            wrapped = self._span(f"{modname}.{fname}", original,
                                 hooks.get((modname, fname)))
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self._undo.append((mod, fname, original))
                    setattr(mod, fname, wrapped)

        multiset = oracle.ExponentMultiset
        build = multiset.__dict__["build"]
        raw = build.__func__

        def counted_build(cls, numerator, denominator):
            numerator, denominator = list(numerator), list(denominator)
            result = raw(cls, numerator, denominator)
            if self.item < self.limit:
                self.counts["oracle.exponent_terms"] += len(numerator) + len(denominator)
                self.counts["oracle.multiset_entries"] += len(result.entries)
            return result

        self._undo.append((multiset, "build", build))
        multiset.build = classmethod(counted_build)

    def _count_families(self, families) -> None:
        if self.item < self.limit:
            self.counts["lattice.families_found"] += len(families)

    def uninstall(self) -> None:
        for obj, name, original in reversed(self._undo):
            setattr(obj, name, original)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self time in seconds and errors
        (exceptions raised) of the spans below `limit`."""
        spans = [idx for idx in range(len(self.start))
                 if self.item_of[idx] < self.limit]
        child = array("d", bytes(8 * len(self.start)))
        for idx in spans:
            par = self.parent[idx]
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
               for name in self.names}
        for idx in spans:
            rec = out[self.names[self.name_of[idx]]]
            rec["calls"] += 1
            rec["self_s"] += self.end[idx] - self.start[idx] - child[idx]
            rec["errors"] += self.failed[idx]
        return out

    def dump(self, path) -> None:
        """Write the spans as tab-separated text, one span per line."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\titem\tstart\tend\n")
            for idx in range(len(self.start)):
                fh.write(f"{idx}\t{self.names[self.name_of[idx]]}\t"
                         f"{self.parent[idx]}\t{self.item_of[idx]}\t"
                         f"{self.start[idx]!r}\t{self.end[idx]!r}\n")
