"""The benchmark's workloads: seeded inputs, one operation, and its check.

Each workload hands out its inputs in rounds.  A round is a stratified
sample whose cost mix is the same for every seed, so a run that measures
whole rounds reports figures that do not depend on where it stopped.  An
operation is one call a user makes through the command line; ``check``
compares its result with an independent route and returns None or a
description of the disagreement.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import relsem
from relsem import classify, generation, partitions, represent, semigroups
from relsem.partitions import Partition, ProductKind
from relsem.relations import BinaryRelation, GroundSet
from relsem.semigroups import AbstractSemigroup

import oracle

KINDS = tuple(ProductKind)
SRC = Path(relsem.__file__).resolve().parent.parent


class RepresentCorpus:
    """``relsem represent --max-ground 3`` over the semigroups of order <= 4."""

    name = "represent-corpus"
    MAX_GROUND = 3
    STRIDE = 8

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        # The corpus and its brute-force answers come from a child process,
        # so that their memory does not count in this process's peak RSS.
        out = subprocess.run(
            [sys.executable, str(Path(oracle.__file__)), str(SRC),
             str(self.MAX_GROUND)],
            capture_output=True, text=True, timeout=120, check=True)
        corpus = [(tuple(map(tuple, table)), tuple(counts),
                   None if want is None else (want[0], tuple(want[1])))
                  for table, counts, want in json.loads(out.stdout)]
        self._expected = {table: want for table, _, want in corpus}
        # Sort by the candidate rows a search sweeps, so that every stride-th
        # target forms a sample with the cost mix of the whole corpus.
        corpus.sort(key=lambda c: (self._sweep_rows(c[1]), len(c[0]), c[0]))
        # Targets whose sweep reaches four blocks come twice: the corpus
        # splits into a 3-block and a 4-block cost cluster near its median,
        # and the weighting puts the median inside a cluster, not at its edge.
        self.targets = [(table, self.semigroup(table))
                        for table, counts, _ in corpus
                        for _ in range(2 if max(counts, default=0) >= 4 else 1)]

    @staticmethod
    def semigroup(table) -> AbstractSemigroup:
        return AbstractSemigroup([f"x{i}" for i in range(len(table))], table)

    @classmethod
    def _sweep_rows(cls, counts) -> int:
        if not counts:
            return 0
        rows = 0
        for n in range(1, cls.MAX_GROUND + 1):
            rows += sum(oracle.stirling2(n * n, k)
                        for k in range(1, max(counts) + 1))
            rows += sum(oracle.stirling2(n * n, k) for k in counts)
        return rows

    def rounds(self):
        while True:
            offsets = list(range(self.STRIDE))
            self.rng.shuffle(offsets)
            for off in offsets:
                batch = self.targets[off::self.STRIDE]
                self.rng.shuffle(batch)
                yield batch

    @classmethod
    def run(cls, target):
        return represent.search_d_transitive(target[1], max_ground=cls.MAX_GROUND)

    @classmethod
    def warmup_input(cls):
        return (None, cls.semigroup([[(i + j) % 4 for j in range(4)]
                                     for i in range(4)]))

    def check(self, target, report):
        table, h = target
        expected = self._expected[table]
        if expected is None:
            return None if report.witness is None else "witness where none exists"
        w = report.witness
        if w is None:
            return f"missed the witness {expected}"
        got = (w.ground.size, w.blocks.base.assignment)
        if got != expected:
            return f"first witness {got}, expected {expected}"
        if not represent.verify_witness(h, w):
            return "witness fails verify_witness"
        return None


class ClosureClassify:
    """``relsem gen`` then ``relsem classify`` on product and random closures."""

    name = "closure-classify"
    BLOCKS = range(3, 10)
    # (smallest, largest, jobs per round) for closures of random relations.
    # Narrow size windows keep the cost of a round the same for every seed.
    # Above ~110 elements the cost at one size varies by a factor of three.
    RANDOM_SIZES = ((2, 5, 4), (8, 12, 3), (16, 20, 3), (28, 34, 3),
                    (45, 52, 3), (70, 78, 3), (100, 110, 3))
    NAIVE_CHECK_LIMIT = 130

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _product_job(self, k: int, kind: ProductKind):
        # k + 1 points, one block of two: every seed costs the same
        labels = list(range(k)) + [self.rng.randrange(k)]
        self.rng.shuffle(labels)
        return ("product", Partition(GroundSet(k + 1), labels), kind)

    def _random_jobs(self):
        want = {bucket: bucket[2] for bucket in self.RANDOM_SIZES}
        cap = max(bucket[1] for bucket in self.RANDOM_SIZES)
        jobs = []
        while any(want.values()):
            n = self.rng.choice((3, 4))
            density = self.rng.choice((0.2, 0.3, 0.4, 0.5))
            masks = []
            for _ in range(self.rng.choice((2, 3))):
                mask = 0
                for bit in range(n * n):
                    if self.rng.random() < density:
                        mask |= 1 << bit
                masks.append(mask)
            closed = oracle.closure_pairs(
                [frozenset((x, y) for x in range(n) for y in range(n)
                           if mask >> (x * n + y) & 1) for mask in masks],
                cap=cap)
            size = None if closed is None else len(closed[0])
            for bucket, left in want.items():
                if left and size is not None and bucket[0] <= size <= bucket[1]:
                    want[bucket] -= 1
                    rels = tuple(BinaryRelation(GroundSet(n),
                                                [(m >> (x * n)) & ((1 << n) - 1)
                                                 for x in range(n)])
                                 for m in masks)
                    jobs.append(("random", rels, None))
                    break
        return jobs

    def rounds(self):
        while True:
            batch = [self._product_job(k, kind)
                     for k in self.BLOCKS for kind in KINDS]
            batch += self._random_jobs()
            self.rng.shuffle(batch)
            yield batch

    @staticmethod
    def run(job):
        source, arg, kind = job
        if source == "product":
            closure = generation.from_partition(arg, kind)
        else:
            closure = generation.generate(arg)
        h = closure.to_abstract()
        verdicts = {}
        isos = {}
        for k in KINDS:
            verdict = classify.check_product_class(h, k)
            verdicts[k] = verdict
            if verdict.member:
                model = verdict.model.semigroup.to_abstract()
                isos[k] = (model, semigroups.find_isomorphism(h, model))
        return closure, h, verdicts, isos

    @staticmethod
    def warmup_input():
        return ("product", Partition.finest(GroundSet(4)), ProductKind.SYM_UNIT)

    def check(self, job, result):
        source, arg, kind = job
        closure, h, verdicts, isos = result
        if source == "product":
            want = oracle.product_closure_size(arg.block_count, kind.value)
            if len(closure) != want:
                return f"{kind.value} closure has {len(closure)} elements, law says {want}"
            if not verdicts[kind].member:
                return f"{kind.value} closure is not a member of its own class"
        for k, (model, iso) in isos.items():
            if not oracle.is_isomorphism(h.table, model.table, iso):
                return f"no isomorphism onto the {k.value} canonical model"
        if len(closure) <= self.NAIVE_CHECK_LIMIT:
            gens = ([closure.elements[i] for i in closure.generator_indices]
                    if source == "product" else arg)
            elements, table = oracle.closure_pairs(
                [frozenset(g.pairs()) for g in gens])
            mine = [frozenset(e.pairs()) for e in closure.elements]
            if set(mine) != set(elements):
                return "closure differs from the set-of-pairs closure"
            where = {e: i for i, e in enumerate(elements)}
            pos = [where[e] for e in mine]
            if any(table[pos[i]][pos[j]] != pos[closure.table[i][j]]
                   for i in range(len(mine)) for j in range(len(mine))):
                return "Cayley table differs from the set-of-pairs closure"
        return None


class SmallestOracle:
    """``relsem oracle --ground 3``: every partition with n <= 3, every kind."""

    name = "smallest-oracle"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.jobs = [(p, kind)
                     for n in (1, 2, 3)
                     for p in partitions.enumerate_partitions(n)
                     for kind in KINDS]

    def rounds(self):
        while True:
            batch = list(self.jobs)
            self.rng.shuffle(batch)
            yield batch

    @staticmethod
    def run(job):
        return partitions.verify_smallest(job[0], job[1])

    @staticmethod
    def warmup_input():
        return (Partition.finest(GroundSet(3)), ProductKind.SYM_UNIT)

    def check(self, job, result):
        p, kind = job
        n = p.ground.size
        if not result.passed:
            return f"verification failed: {result.failure}"
        if result.partitions_checked != oracle.bell(n * n):
            return (f"checked {result.partitions_checked} partitions, "
                    f"Bell({n * n}) = {oracle.bell(n * n)}")
        members = oracle.bell(oracle.product_block_count(p.block_count, kind.value))
        if result.class_members != members:
            return f"class has {result.class_members} members, expected {members}"
        return None


WORKLOADS = {w.name: w for w in (RepresentCorpus, ClosureClassify, SmallestOracle)}
