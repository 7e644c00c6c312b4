"""Span tracing of the engine's public functions, from outside the engine.

``Tracer.installed()`` replaces each traced function at every binding
site: modules import with ``from ... import``, so ``sullivan.cohomology``
and ``sullivan.reduction`` each hold their own name for ``betti``, and
``sullivan.verify`` holds ``reduce`` as ``reduce_model``.  Every module of
the package is scanned for names bound to the original function, each one
is rebound to a wrapper, and leaving the context restores them all.

A span records its binding site (and so its layer), start, end, parent span
and iteration; spans stay in memory in flat arrays until ``write``.  Times
come from ``Sampler.clock``, so reference-kernel ticks are excised.  A
layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import contextlib
import gc
import json
import statistics
import sys
from array import array
from collections import Counter

# (module, attribute or Class.method, layer name)
TARGETS = (
    ("sullivan.gradedalg", "basis_of_degree", "gradedalg.basis_of_degree"),
    ("sullivan.gradedalg", "substitute", "gradedalg.substitute"),
    ("sullivan.cdga", "apply_d", "cdga.apply_d"),
    ("sullivan.cdga", "validate", "cdga.validate"),
    ("sullivan.linalg", "RowSpace.add", "linalg.RowSpace.add"),
    ("sullivan.linalg", "RowSpace.reduce", "linalg.RowSpace.reduce"),
    ("sullivan.cohomology", "betti", "cohomology.betti"),
    ("sullivan.cohomology", "Cohomology.representatives", "cohomology.representatives"),
    ("sullivan.cohomology", "is_quasi_iso", "cohomology.is_quasi_iso"),
    ("sullivan.cohomology", "quotient_ring_dims", "cohomology.quotient_ring_dims"),
    ("sullivan.reduction", "reduce", "reduction.reduce"),
    ("sullivan.reduction", "find_reducible", "reduction.find_reducible"),
    ("sullivan.constructors", "biquotient_model", "constructors.biquotient_model"),
    ("sullivan.constructors", "projectivize", "constructors.projectivize"),
    ("sullivan.dsl", "parse_model", "dsl.parse_model"),
    ("sullivan.dsl", "render_model", "dsl.render_model"),
    ("sullivan.verify", "run_case", "verify.run_case"),
    ("sullivan.cli", "main", "cli.main"),
)
LAYERS = tuple(layer for _, _, layer in TARGETS)
ROOT = "iteration"
VERIFY_SITE = "sullivan.reduction.betti"  # betti as reduce calls it, per step


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sullivan" or name.startswith("sullivan."))]


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.sites: list[tuple[str, str]] = [(ROOT, "perfbench")]  # (layer, binding)
        self.site_of = array("i")
        self.parent = array("i")
        self.iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ranges: list[tuple[int, int]] = []  # span index range per iteration
        self.counters: list[Counter] = []
        self._stack: list[int] = []
        self._count: Counter = Counter()
        self._bases: set = set()

    # -- recording ----------------------------------------------------------

    def _open(self, site: int) -> int:
        i = len(self.start)
        self.site_of.append(site)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.iteration.append(len(self.ranges))
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self._stack.pop()
        self.end[i] = self.clock()

    def _wrap(self, site: int, fn, after):
        def traced(*args, **kwargs):
            i = self._open(site)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters recorded at the boundaries ----------------------------------

    def _after_basis(self, args, result) -> None:
        self._count["monomials"] += len(result)
        self._count["basis_max"] = max(self._count["basis_max"], len(result))
        self._bases.add((frozenset(args[0]), args[1]))

    def _after_apply_d(self, args, result) -> None:
        self._count["terms_out"] += len(result.terms)

    def _after_add(self, args, result) -> None:
        self._count["nnz_in"] += len(args[1])

    def _after_reduce(self, args, result) -> None:
        self._count["steps"] += len(result[1].steps)

    def _released_hook(self):
        # Installed as RowSpace.__del__: the rows a space holds when it is
        # dropped are its final fill.
        def released(space) -> None:
            self._count["nnz_rows"] += sum(len(row) for _, row, _ in space.rows)

        return released

    # -- installing at every binding site -------------------------------------

    @contextlib.contextmanager
    def installed(self):
        hooks = {
            "gradedalg.basis_of_degree": self._after_basis,
            "cdga.apply_d": self._after_apply_d,
            "linalg.RowSpace.add": self._after_add,
            "reduction.reduce": self._after_reduce,
        }
        undo = []
        modules = _package_modules()
        for module_name, attr, layer in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # never imported by this workload
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                site = self._site(layer, f"{module_name}.{attr}")
                setattr(cls, method, self._wrap(site, original, hooks.get(layer)))
                undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        site = self._site(layer, f"{m.__name__}.{name}")
                        setattr(m, name, self._wrap(site, original, hooks.get(layer)))
                        undo.append((m, name, original))
        rowspace = sys.modules["sullivan.linalg"].RowSpace
        rowspace.__del__ = self._released_hook()
        try:
            yield
        finally:
            gc.collect()
            del rowspace.__del__
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _site(self, layer: str, binding: str) -> int:
        key = (layer, binding)
        if key not in self.sites:
            self.sites.append(key)
        return self.sites.index(key)

    def run_iteration(self, fn):
        """Run fn() under a root span; spans and counters form one iteration."""
        first = len(self.start)
        self._count = Counter()
        self._bases = set()
        root = self._open(0)
        try:
            with self.installed():
                return fn()
        finally:
            self._close(root)
            self._count["distinct_bases"] = len(self._bases)
            self.ranges.append((first, len(self.start)))
            self.counters.append(self._count)

    # -- per-layer metrics ----------------------------------------------------

    def iteration_metrics(self, k: int) -> dict[str, float]:
        first, last = self.ranges[k]
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= 0:
                child[p - first] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        verify_s = 0.0
        reduce_s = 0.0
        verify_calls = 0
        for i in range(first, last):
            layer, binding = self.sites[self.site_of[i]]
            took = self.end[i] - self.start[i]
            calls[layer] += 1
            self_s[layer] += took - child[i - first]
            if binding == VERIFY_SITE:
                verify_calls += 1
                verify_s += took
            elif layer == "reduction.reduce":
                reduce_s += took
        c = self.counters[k]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["gradedalg.basis_of_degree.monomials"] = c["monomials"]
        out["gradedalg.basis_repeat_ratio"] = (
            calls["gradedalg.basis_of_degree"] / c["distinct_bases"] if c["distinct_bases"] else 0.0
        )
        out["cdga.apply_d.terms_out"] = c["terms_out"]
        out["linalg.nnz_in"] = c["nnz_in"]
        out["linalg.nnz_rows"] = c["nnz_rows"]
        out["linalg.fill_ratio"] = c["nnz_rows"] / c["nnz_in"] if c["nnz_in"] else 0.0
        out["cohomology.basis_max"] = c["basis_max"]
        out["reduction.reduce.steps"] = c["steps"]
        out["reduction.verify_betti_calls"] = verify_calls
        out["reduction.verify_share"] = verify_s / reduce_s if reduce_s else 0.0
        return out

    def metrics(self) -> dict[str, float]:
        """Median over the traced iterations of each per-iteration metric."""
        per_iteration = [self.iteration_metrics(k) for k in range(len(self.ranges))]
        return {
            key: statistics.median(m[key] for m in per_iteration)
            for key in per_iteration[0]
        }

    def write(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["sites"] = [{"layer": layer, "binding": binding} for layer, binding in self.sites]
        doc["spans"] = {
            "site": self.site_of.tolist(),
            "parent": self.parent.tolist(),
            "iteration": self.iteration.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
