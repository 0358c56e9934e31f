"""Spans around the public functions of the g2forms layers, from outside.

`Tracer.install` replaces each traced function by a wrapper in every loaded
g2forms module namespace that holds it (a method is replaced on its class),
so calls between modules are recorded too.  A span is (function, parent span,
operation, start, end); spans live in flat arrays in memory and are written
out once, at the end.  A span's self time is its duration minus the time its
child spans cover; a function's inclusive time counts only its outermost
spans, so recursion is not counted twice.
"""

import functools
import importlib
import sys
import time
from array import array

#: the traced functions, by layer: (module, qualified name)
TRACED = [
    ("linalg", name) for name in (
        "rref", "nullspace", "solve", "intersect_nullspaces", "mat_mul",
        "det", "charpoly", "leading_principal_minors")
] + [
    ("multilinear", name) for name in (
        "pullback", "algebra_action", "wedge", "interior")
] + [
    ("stable_forms", name) for name in (
        "classify_coeffs", "hitchin_matrix", "hitchin_bilinear",
        "metric_from_3form", "hodge_star", "classification_report")
] + [
    ("liealg", name) for name in (
        "reductive_complement", "MatrixLieAlgebra.coords", "invariant_3forms",
        "invariant_dims", "irreducible_dims", "invariant_form_types")
] + [
    ("homogeneous", name) for name in (
        "invariant_kforms", "build_complex", "complex_ranks",
        "ce_differential", "nearly_parallel_check", "nearly_parallel_rays")
] + [
    ("catalog", name) for name in (
        "build_entry", "verify_entry", "generator_compatibility_report")
] + [
    ("section5", name) for name in (
        "rank_chain_report", "coclosed_family_report",
        "nearly_parallel_report", "example_429_report")
]


def _rref_cells(args, result):
    a = args[0]
    return len(a) * (len(a[0]) if a else 0)


def _samples(args, result):
    return result["samples"]


#: work counters read at a span's end: name -> (traced function, count)
COUNTERS = {
    "linalg.rref.cells": (("linalg", "rref"), _rref_cells),
    "liealg.invariant_form_types.samples":
        (("liealg", "invariant_form_types"), _samples),
}


def layer_metric_names():
    """Every per-layer metric the tracer yields, with its unit."""
    out = []
    for mod, name in TRACED:
        out += [(f"{mod}.{name}.calls", "count"), (f"{mod}.{name}.s", "s"),
                (f"{mod}.{name}.self_s", "s")]
    return out + [(name, "count") for name in COUNTERS]


PACKAGE = "g2forms"


class Tracer:
    def __init__(self):
        self.fid = array("i")
        self.parent = array("q")
        self.opid = array("q")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = {name: 0 for name in COUNTERS}
        self.op = -1
        self._stack = []
        self._active = [0] * len(TRACED)
        self._patched = []      # (namespace, attribute, original)

    def _wrap(self, fid, fn, hooks):
        fids, parents, ops = self.fid, self.parent, self.opid
        outer, starts, ends = self.outer, self.start, self.end
        stack, active = self._stack, self._active
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            outer.append(active[fid] == 0)
            ends.append(0.0)
            active[fid] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[fid] -= 1
            for name, count in hooks:
                counts[name] += count(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Patch every traced function into every namespace that holds it."""
        owners = {mod: importlib.import_module(f"{PACKAGE}.{mod}")
                  for mod, _ in TRACED}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or
                                         name.startswith(PACKAGE + "."))]
        for fid, (mod, qualname) in enumerate(TRACED):
            owner = owners[mod]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            hooks = [(name, count) for name, (target, count)
                     in COUNTERS.items() if target == (mod, qualname)]
            wrapper = self._wrap(fid, original, hooks)
            if cls_path:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def summary(self):
        """Per-function calls, inclusive and self seconds, plus counters."""
        n = len(self.fid)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(TRACED)
        incl = [0.0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        for i in range(n):
            f = self.fid[i]
            calls[f] += 1
            self_s[f] += dur[i] - child[i]
            if self.outer[i]:
                incl[f] += dur[i]
        out = {}
        for f, (mod, name) in enumerate(TRACED):
            out[f"{mod}.{name}.calls"] = calls[f]
            out[f"{mod}.{name}.s"] = incl[f]
            out[f"{mod}.{name}.self_s"] = self_s[f]
        out.update(self.counts)
        roots = [i for i in range(n) if self.parent[i] < 0]
        out["_root_s"] = sum(dur[i] for i in roots)
        out["_root_child_s"] = sum(child[i] for i in roots)
        return out

    def save(self, path):
        """Write the spans as one compressed numpy archive."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array([f"{m}.{q}" for m, q in TRACED]),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.opid, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
