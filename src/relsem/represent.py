"""Disjoint-transitive representations: construction and bounded search.

A representation witness for a semigroup h consists of a ground set X, a
partition of the pair set of X whose blocks generate a closure isomorphic
to h, and the isomorphism itself; the zero of h, when present, must land
on the empty relation.  Constructive witnesses come from the class
models; ``search_d_transitive`` sweeps all candidate partitions at
bounded ground size and either finds the canonically first witness or
certifies exhaustion of the declared bounds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import _accel
from .classify import canonical_model
from .errors import GuardExceededError
from .generation import GeneratedSemigroup, generate
from .naive import closure_pairs, compose_pairs
from .partitions import LabeledPartition, Partition, ProductKind
from .relations import GroundSet
from .semigroups import AbstractSemigroup, find_isomorphism

#: Largest ground size a search accepts.  At n = 8 every block count
#: k >= 2 already gives S(64, 2) = 2**63 - 1 candidate partitions, which
#: no sweep finishes; refusing up front also keeps the exact candidate
#: estimate, whose cost grows with the cube of max_ground, from running
#: long on a huge bound.
MAX_SEARCH_GROUND = 7


@dataclass(frozen=True)
class DTransitiveWitness:
    """A verified d-transitive monomorphism, spelled out concretely.

    ``iso[x]`` is the closure element index that input element x maps to;
    ``generator_map[b]`` is the input element whose image is block b.
    """

    ground: GroundSet
    blocks: LabeledPartition
    closure: GeneratedSemigroup
    iso: tuple[int, ...]
    generator_map: tuple[int, ...]


@dataclass(frozen=True)
class SearchBounds:
    max_ground: int
    block_counts: tuple[int, ...]


@dataclass(frozen=True)
class SearchReport:
    """Outcome of ``search_d_transitive``.

    ``candidates_examined`` counts the partitions with an admissible block
    count up to and including the witness (all of them on exhaustion).
    ``rows_swept`` counts the partitions this call fingerprinted, which is
    0 when every catalogue it needed was already swept far enough, and
    ``confirmations`` the survivors of the invariant prefilter that went
    to an exact isomorphism check.
    """

    witness: DTransitiveWitness | None
    candidates_examined: int
    bounds: SearchBounds
    rows_swept: int = 0
    confirmations: int = 0

    @property
    def found(self) -> bool:
        return self.witness is not None


# ---------------------------------------------------------------------------
# constructive witnesses
# ---------------------------------------------------------------------------

def _witness_from_blocks(h: AbstractSemigroup, blocks: LabeledPartition,
                         iso: tuple[int, ...],
                         closure: GeneratedSemigroup) -> DTransitiveWitness:
    inverse = [0] * h.size
    for x, y in enumerate(iso):
        inverse[y] = x
    generator_map = tuple(inverse[closure.generator_indices[b]]
                          for b in range(blocks.block_count))
    witness = DTransitiveWitness(blocks.ground, blocks, closure, iso,
                                 generator_map)
    if not verify_witness(h, witness):
        raise RuntimeError("constructed witness failed verification")
    return witness


def represent_right_zero(h: AbstractSemigroup) -> DTransitiveWitness:
    """Witness for a right-zero semigroup: one column strip per element."""
    return _represent_one_sided(h, right=True)


def represent_left_zero(h: AbstractSemigroup) -> DTransitiveWitness:
    """Witness for a left-zero semigroup: one row strip per element."""
    return _represent_one_sided(h, right=False)


def _represent_one_sided(h: AbstractSemigroup, right: bool) -> DTransitiveWitness:
    m = h.size
    t = h.table
    for x in range(m):
        for y in range(m):
            expected = y if right else x
            if t[x][y] != expected:
                side = "right" if right else "left"
                raise ValueError(f"not a {side} zero semigroup")
    ground = GroundSet(m, labels=h.names)
    pair_ground = GroundSet(m * m)
    if right:
        base = Partition(pair_ground, [idx % m for idx in range(m * m)])
    else:
        base = Partition(pair_ground, [idx // m for idx in range(m * m)])
    blocks = LabeledPartition(ground, base, labels=h.names)
    closure = generate(blocks.block_relations(), labels=h.names)
    iso = tuple(range(m))
    return _witness_from_blocks(h, blocks, iso, closure)


def represent_member(h: AbstractSemigroup, kind: ProductKind) -> DTransitiveWitness:
    """Witness for a member of one of the four product classes.

    The canonical model isomorphism is composed with the identity
    embedding of the closure into the relation semigroup; the generator
    set is the model's product partition.
    """
    model = canonical_model(h, kind)
    closure = model.semigroup
    blocks = _blocks_of(closure.ground, model.kind)
    inverse = [0] * h.size
    for i, x in enumerate(model.to_input):
        inverse[x] = i
    iso = tuple(inverse)
    return _witness_from_blocks(h, blocks, iso, closure)


def _blocks_of(ground: GroundSet, kind: ProductKind) -> LabeledPartition:
    from .partitions import product

    return product(Partition.finest(ground), kind)


# ---------------------------------------------------------------------------
# admissible generator counts
# ---------------------------------------------------------------------------

def _closes_to_all(h: AbstractSemigroup, subset) -> bool:
    """Whether the elements of ``subset`` generate all of h."""
    m = h.size
    closure = set(subset)
    frontier = list(closure)
    while frontier:
        fresh = []
        for a in list(closure):
            for b in frontier:
                for p in (h.table[a][b], h.table[b][a]):
                    if p not in closure:
                        closure.add(p)
                        fresh.append(p)
        frontier = fresh
    return len(closure) == m


def admissible_generator_counts(h: AbstractSemigroup) -> tuple[int, ...]:
    """Sizes of zero-free generating subsets of h.

    The zero can never be a generator image (its image must be the empty
    relation, and blocks are nonempty), so candidate block counts are the
    sizes of generating subsets avoiding the zero.  Supersets of a
    generating set generate, so the result is a contiguous range; it is
    empty when no zero-free subset generates (for instance when the zero
    is not a product of nonzero elements).
    """
    m = h.size
    if m > 16:
        raise GuardExceededError(
            "generator-count enumeration is limited to 16 elements; pass "
            "block_counts explicitly")
    zero = h.zero()
    nonzero = [i for i in range(m) if i != zero]
    if not _closes_to_all(h, nonzero):
        return ()
    for s in range(1, len(nonzero) + 1):
        if any(_closes_to_all(h, c) for c in combinations(nonzero, s)):
            return tuple(range(s, len(nonzero) + 1))
    return ()


def _stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def count_candidates(max_ground: int, block_counts) -> int:
    """Exact number of candidate partitions a search sweep will examine."""
    total = 0
    for n in range(1, max_ground + 1):
        m2 = n * n
        for k in block_counts:
            if k <= m2:
                total += _stirling2(m2, k)
    return total


# ---------------------------------------------------------------------------
# the candidate catalogue
# ---------------------------------------------------------------------------

class _Chunk(NamedTuple):
    """The entries one RGS batch contributed to a catalogue.

    ``rows`` are the entries' restricted growth strings, ``fingerprints``
    their ``_accel.fingerprint_rows`` columns, ``examined[e]`` the number
    of admissible rows of the stream up to and including entry e, and
    ``total`` that number at the end of the batch.
    """

    rows: np.ndarray
    fingerprints: np.ndarray
    examined: np.ndarray
    total: int


class _Catalogue:
    """The partitions of the n*n pair set whose blocks close to ``size``
    elements, in RGS order, swept from the stream only as far as asked.

    Which partitions these are depends only on n, on ``size`` and on the
    admissible block counts, never on a target's table, so every search
    with the same key shares one catalogue.  Chunks are appended once a
    whole batch is fingerprinted and never change afterwards.
    """

    def __init__(self, n: int, size: int, counts: tuple[int, ...],
                 batch_size: int):
        self.n = n
        self.size = size
        self.mask = sum(1 << k for k in counts)
        self.chunks: list[_Chunk] = []
        self.done = False
        self.failed = False
        self._stream = _accel.rgs_batches(n * n, max(counts), batch_size)
        self._lock = threading.Lock()

    @property
    def examined(self) -> int:
        """Admissible rows in the batches swept so far."""
        return self.chunks[-1].total if self.chunks else 0

    def walk(self):
        """Yield ``(chunk, rows fingerprinted to reach it)`` in RGS order."""
        i = 0
        while True:
            swept = 0
            if i >= len(self.chunks):
                with self._lock:
                    while i >= len(self.chunks) and not self.done:
                        swept += self._extend()
                if i >= len(self.chunks):
                    return
            yield self.chunks[i], swept
            i += 1

    def _extend(self) -> int:
        if self.failed:
            raise RuntimeError("an earlier sweep of this catalogue failed")
        try:
            rows = next(self._stream, None)
            if rows is None:
                self.done = True
                return 0
            fp = np.empty((rows.shape[0], _accel.FP_WIDTH), dtype=np.int32)
            _accel.fingerprint_rows(rows, self.n, self.mask, self.size, fp)
            examined = self.examined + np.cumsum(fp[:, _accel.FP_SIZE] > 0)
            hits = np.nonzero(fp[:, _accel.FP_SIZE] == self.size)[0]
            chunk = _Chunk(rows[hits], fp[hits], examined[hits],
                           int(examined[-1]))
        except BaseException:
            # the stream may have lost the batch: never extend this one again
            self.failed = True
            raise
        self.chunks.append(chunk)
        return rows.shape[0]


_CATALOGUES: dict[tuple, _Catalogue] = {}
_CATALOGUES_LOCK = threading.Lock()


def _catalogue(n: int, size: int, counts: tuple[int, ...],
               batch_size: int) -> _Catalogue:
    key = (n, size, counts)
    with _CATALOGUES_LOCK:
        catalogue = _CATALOGUES.get(key)
        if catalogue is None or catalogue.failed:
            catalogue = _Catalogue(n, size, counts, batch_size)
            _CATALOGUES[key] = catalogue
        return catalogue


def clear_catalogues() -> None:
    """Forget every catalogue; the next search of each key sweeps afresh."""
    with _CATALOGUES_LOCK:
        _CATALOGUES.clear()


# ---------------------------------------------------------------------------
# the bounded search
# ---------------------------------------------------------------------------

def search_d_transitive(h: AbstractSemigroup, max_ground: int = 4,
                        block_counts=None,
                        max_candidates: int = 20_000_000,
                        batch_size: int = 65536) -> SearchReport:
    """Find a d-transitive witness at ground size up to ``max_ground``.

    Candidate partitions of the pair set are enumerated in restricted
    growth order with block counts restricted to the sizes of zero-free
    generating subsets of h (any witness partition must have such a block
    count, so the restriction loses nothing).  Survivors of the closure
    and invariant prefilter get an exact isomorphism check; the first
    witness in canonical order is returned.  An exhausted report lists the
    exact bounds swept.

    The closures are looked up in a per-process catalogue keyed by
    (ground size, |h|, admissible block counts at that size), which is
    swept on demand in batches of ``batch_size`` rows and shared by every
    later search with the same key.
    """
    if max_ground < 1:
        raise ValueError("max_ground must be >= 1")
    m = h.size
    if block_counts is None:
        counts = admissible_generator_counts(h)
    else:
        counts = tuple(sorted(set(int(k) for k in block_counts)))
        if any(k < 1 for k in counts):
            raise ValueError("block counts must be positive")
    bounds = SearchBounds(max_ground, counts)
    if not counts:
        return SearchReport(None, 0, bounds)
    if max_ground > MAX_SEARCH_GROUND:
        raise GuardExceededError(
            f"search supports ground sizes up to {MAX_SEARCH_GROUND}")
    estimate = count_candidates(max_ground, counts)
    if estimate > max_candidates:
        raise GuardExceededError(
            f"{estimate} candidate partitions exceed the guard of "
            f"{max_candidates}; lower the bounds or raise max_candidates")

    need_empty = 1 if h.zero() is not None else 0
    target_idem = len(h.idempotents())
    target_has_identity = 1 if h.identity() is not None else 0

    examined = 0
    swept = 0
    confirmations = 0
    for n in range(1, max_ground + 1):
        counts_n = tuple(k for k in counts if k <= n * n)
        if not counts_n:
            continue
        catalogue = _catalogue(n, m, counts_n, batch_size)
        for chunk, rows in catalogue.walk():
            swept += rows
            survivors = np.nonzero(_accel.fingerprint_matches(
                chunk.fingerprints, m, need_empty, target_idem,
                target_has_identity))[0]
            for e in survivors:
                confirmations += 1
                witness = _confirm_candidate(h, n, chunk.rows[e])
                if witness is not None:
                    return SearchReport(
                        witness, examined + int(chunk.examined[e]), bounds,
                        swept, confirmations)
        examined += catalogue.examined
    return SearchReport(None, examined, bounds, swept, confirmations)


def _confirm_candidate(h: AbstractSemigroup, n: int,
                       assignment) -> DTransitiveWitness | None:
    ground = GroundSet(n)
    base = Partition(GroundSet(n * n), [int(v) for v in assignment])
    blocks = LabeledPartition(ground, base)
    closure = generate(blocks.block_relations())
    iso = find_isomorphism(h, closure.to_abstract())
    if iso is None:
        return None
    inverse = [0] * h.size
    for x, y in enumerate(iso):
        inverse[y] = x
    labels = tuple(h.names[inverse[closure.generator_indices[b]]]
                   for b in range(blocks.block_count))
    blocks = LabeledPartition(ground, base, labels)
    return _witness_from_blocks(h, blocks, iso, closure)


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------

def verify_witness(h: AbstractSemigroup, w: DTransitiveWitness) -> bool:
    """Recheck a witness from scratch on the set-of-pairs route.

    Confirms that the blocks partition the pair set, that the claimed map
    is a bijective homomorphism onto the closure of the blocks, that the
    zero (if any) lands on the empty relation, and that the generator
    preimages generate h.
    """
    m = h.size
    n = w.ground.size
    assignment = w.blocks.base.assignment
    if len(assignment) != n * n or len(w.iso) != m:
        return False
    k = w.blocks.block_count
    if len(w.generator_map) != k:
        return False
    block_pairs = [set() for _ in range(k)]
    for idx, b in enumerate(assignment):
        block_pairs[b].add((idx // n, idx % n))
    if any(not pairs for pairs in block_pairs):
        return False
    if sum(len(pairs) for pairs in block_pairs) != n * n:
        return False

    closed = closure_pairs([frozenset(p) for p in block_pairs], cap=m)
    if closed is None:
        return False
    elements, _ = closed
    if len(elements) != m:
        return False

    if len(w.closure) != m:
        return False
    image = [frozenset(w.closure.elements[w.iso[x]].pairs()) for x in range(m)]
    if len(set(image)) != m or set(image) != set(elements):
        return False
    for x in range(m):
        for y in range(m):
            if compose_pairs(image[x], image[y]) != image[h.table[x][y]]:
                return False
    zero = h.zero()
    if zero is not None and image[zero] != frozenset():
        return False
    for b in range(k):
        if image[w.generator_map[b]] != frozenset(block_pairs[b]):
            return False
    return _closes_to_all(h, w.generator_map)
