"""Spans and counters recorded around relsem's layer entry points.

``install`` replaces each traced function with a wrapper at every name a
relsem module binds it to (``represent`` imports ``generate`` and
``find_isomorphism`` by name, for instance), and patches methods on their
class.  Spans are kept in memory as ``[name, op, parent, start, end]`` and
only recorded while an operation runs, so checks made outside the timed
region leave no trace.  ``uninstall`` restores the originals.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from relsem import _accel, classify, generation, naive, partitions, represent
from relsem import relations, semigroups

# Traced spans, in report order.  "op" is the whole user-visible operation.
SPANS = (
    "op",
    "represent.search_d_transitive",
    "represent.admissible_generator_counts",
    "represent.confirm",
    "represent.verify_witness",
    "accel.rgs_batches",
    "accel.scan_candidates",
    "accel.equal_on_pairs",
    "generation.from_partition",
    "generation.generate",
    "generation.to_abstract",
    "semigroups.table_check",
    "semigroups.find_isomorphism",
    "classify.check_product_class",
    "partitions.product",
    "partitions.verify_smallest",
    "naive.closure_pairs",
)

# Counters reported per operation, beside the span call counts.
COUNTERS = (
    "accel.rgs_batches.rows",
    "accel.scan_candidates.rows",
    "accel.scan_candidates.examined",
    "accel.scan_candidates.survivors",
    "accel.compose_mask.calls",
    "represent.candidates_examined",
    "represent.confirm.hits",
    "generation.generate.elements",
    "relations.compose.calls",
    "classify.check_product_class.members",
    "partitions.verify_smallest.partitions_checked",
    "partitions.verify_smallest.class_members",
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in SPANS:
        if name != "op":
            units[f"{name}.calls"] = "count/op"
        units[f"{name}.busy_s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
        units[f"{name}.self_pct"] = "%"
    for name in COUNTERS:
        units[name] = "count/op"
    units["represent.confirm.hit_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.ops = 0
        self._stack = []
        self._op = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, self._op, parent, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn, arg):
        """Run one operation under a root span."""
        self._op = self.ops
        self.ops += 1
        idx = self._open("op")
        try:
            return fn(arg)
        finally:
            self._close(idx)
            self._op = None

    def timed(self, name, fn, count=None):
        """Wrap fn in a span; ``count(result, args)`` adds to counters."""
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                for key, n in count(result, args).items():
                    self.counts[key] += n
            return result
        return wrapper

    def timed_batches(self, name, gen_fn):
        """Wrap a batch generator so that each ``next()`` is one span."""
        def wrapper(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                idx = self._open(name) if self._op is not None else None
                try:
                    rows = next(it)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        self._close(idx)
                if idx is not None:
                    self.counts[f"{name}.rows"] += rows.shape[0]
                yield rows
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args):
            if self._op is not None:
                self.counts[name] += 1
            return fn(*args)
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "relsem" and not mod_name.startswith("relsem."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        t = self.timed
        self._replace(represent.search_d_transitive, t(
            "represent.search_d_transitive", represent.search_d_transitive,
            lambda r, a: {"represent.candidates_examined":
                          r.candidates_examined}))
        self._replace(represent.admissible_generator_counts, t(
            "represent.admissible_generator_counts",
            represent.admissible_generator_counts))
        self._replace(represent._confirm_candidate, t(
            "represent.confirm", represent._confirm_candidate,
            lambda r, a: {"represent.confirm.hits": int(r is not None)}))
        self._replace(represent.verify_witness, t(
            "represent.verify_witness", represent.verify_witness))
        self._replace(_accel.rgs_batches, self.timed_batches(
            "accel.rgs_batches", _accel.rgs_batches))
        self._replace(_accel.scan_candidates, t(
            "accel.scan_candidates", _accel.scan_candidates,
            lambda r, a: {
                "accel.scan_candidates.rows": a[0].shape[0],
                "accel.scan_candidates.examined": int(r),
                "accel.scan_candidates.survivors":
                    int(np.count_nonzero(a[7] == 2))}))
        self._replace(_accel.equal_on_pairs, t(
            "accel.equal_on_pairs", _accel.equal_on_pairs))
        self._replace(_accel.compose_mask, self.counted(
            "accel.compose_mask.calls", _accel.compose_mask))
        self._replace(generation.from_partition, t(
            "generation.from_partition", generation.from_partition))
        self._replace(generation.generate, t(
            "generation.generate", generation.generate,
            lambda r, a: {"generation.generate.elements": len(r)}))
        self._replace(semigroups.find_isomorphism, t(
            "semigroups.find_isomorphism", semigroups.find_isomorphism))
        self._replace(classify.check_product_class, t(
            "classify.check_product_class", classify.check_product_class,
            lambda r, a: {"classify.check_product_class.members":
                          int(r.member)}))
        self._replace(partitions.product, t(
            "partitions.product", partitions.product))
        self._replace(partitions.verify_smallest, t(
            "partitions.verify_smallest", partitions.verify_smallest,
            lambda r, a: {
                "partitions.verify_smallest.partitions_checked":
                    r.partitions_checked,
                "partitions.verify_smallest.class_members": r.class_members}))
        self._replace(naive.closure_pairs, t(
            "naive.closure_pairs", naive.closure_pairs))
        gs = generation.GeneratedSemigroup
        self._patch_method(gs, "to_abstract", t(
            "generation.to_abstract", gs.to_abstract))
        ab = semigroups.AbstractSemigroup
        self._patch_method(ab, "__init__", t(
            "semigroups.table_check", ab.__init__))
        br = relations.BinaryRelation
        self._patch_method(br, "compose", self.counted(
            "relations.compose.calls", br.compose))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-operation means of every span and counter (overhead excluded)."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, _op, parent, start, end in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for (name, _op, _parent, start, end), inner in zip(self.spans, child):
            own[name] += end - start - inner
        ops = max(self.ops, 1)
        total = busy["op"] or 1.0
        out = {}
        for name in SPANS:
            if name != "op":
                out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.busy_s"] = busy[name] / ops
            out[f"{name}.self_s"] = own[name] / ops
            out[f"{name}.self_pct"] = 100.0 * own[name] / total
        for name in COUNTERS:
            out[name] = self.counts[name] / ops
        confirms = calls["represent.confirm"]
        out["represent.confirm.hit_ratio"] = (
            self.counts["represent.confirm.hits"] / confirms if confirms else 0.0)
        return out
