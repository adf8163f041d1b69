"""Partitions of finite sets and the four canonical partitions of X*X.

Partitions are stored in canonical restricted-growth form: block indices
are ordered by the minimal element they contain, so equal partitions have
identical assignment tuples.  A LabeledPartition is a partition of the
pair set of some ground set X; pair (x, y) is encoded at index x*n + y,
with n = |X|.  That encoding is fixed and shared by every module: it is
also the bit of (x, y) in a relation's packed int, so a block's relation
is stored as the bitmask of its pair indices (``_accel.block_masks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from . import _accel
from .errors import (FormatError, GroundMismatchError, GuardExceededError,
                     NotEquivalenceError, RefinementError)
from .relations import BinaryRelation, GroundSet, _significant_lines


class Partition:
    """A block decomposition of a ground set, in canonical form."""

    __slots__ = ("ground", "assignment", "block_count")

    def __init__(self, ground: GroundSet, assignment: Iterable):
        labels = list(assignment)
        if len(labels) != ground.size:
            raise ValueError("assignment length must equal ground size")
        canon: dict = {}
        normalized = []
        for lab in labels:
            if lab not in canon:
                canon[lab] = len(canon)
            normalized.append(canon[lab])
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "assignment", tuple(normalized))
        object.__setattr__(self, "block_count", len(canon))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def from_blocks(cls, ground: GroundSet, blocks: Iterable[Iterable[int]]):
        n = ground.size
        assignment = [None] * n
        for b, block in enumerate(blocks):
            block = list(block)
            if not block:
                raise ValueError("blocks must be nonempty")
            for x in block:
                if not 0 <= x < n:
                    raise ValueError(f"element {x} outside 0..{n - 1}")
                if assignment[x] is not None:
                    raise ValueError(f"element {x} appears in two blocks")
                assignment[x] = b
        if any(a is None for a in assignment):
            missing = [x for x in range(n) if assignment[x] is None]
            raise ValueError(f"elements not covered: {missing}")
        return cls(ground, assignment)

    @classmethod
    def finest(cls, ground: GroundSet):
        """Every element in its own block."""
        return cls(ground, range(ground.size))

    @classmethod
    def coarsest(cls, ground: GroundSet):
        """One block containing everything."""
        return cls(ground, [0] * ground.size)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.block_count)]
        for x, b in enumerate(self.assignment):
            out[b].append(x)
        return tuple(tuple(block) for block in out)

    def block_of(self, x: int) -> int:
        return self.assignment[x]

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.ground.size == other.ground.size
                and self.assignment == other.assignment)

    def __hash__(self):
        return hash((self.ground.size, self.assignment))

    def __repr__(self):
        return f"Partition(n={self.ground.size}, blocks={list(self.blocks())!r})"


# ---------------------------------------------------------------------------
# partitions <-> equivalence relations
# ---------------------------------------------------------------------------

def to_equivalence(p: Partition) -> BinaryRelation:
    """The induced equivalence: the union of the squares of the blocks."""
    # row x of the equivalence is the block of x
    masks = _accel.block_masks(p.assignment, p.block_count)
    return BinaryRelation(p.ground, [masks[b] for b in p.assignment])


def from_equivalence(r: BinaryRelation) -> Partition:
    """The partition of equivalence classes; rejects non-equivalences."""
    violation = r.equivalence_violation()
    if violation is not None:
        raise NotEquivalenceError(violation)
    # row x is the class of x; Partition numbers the classes canonically
    return Partition(r.ground, r.rows)


# ---------------------------------------------------------------------------
# refinement order (three independent routes, cross-checked in tests)
# ---------------------------------------------------------------------------

def refinement_by_class_inclusion(p1: Partition, p2: Partition) -> bool:
    """Definition route: the class of x in p1 sits inside its class in p2."""
    if p1.ground.size != p2.ground.size:
        raise GroundMismatchError("partitions over different ground sets")
    members1 = [set() for _ in range(p1.block_count)]
    members2 = [set() for _ in range(p2.block_count)]
    for x in range(p1.ground.size):
        members1[p1.assignment[x]].add(x)
        members2[p2.assignment[x]].add(x)
    return all(members1[p1.assignment[x]] <= members2[p2.assignment[x]]
               for x in range(p1.ground.size))


def refinement_by_relation_inclusion(p1: Partition, p2: Partition) -> bool:
    """Equivalence route: the induced relation of p1 is a subset of p2's."""
    if p1.ground.size != p2.ground.size:
        raise GroundMismatchError("partitions over different ground sets")
    return to_equivalence(p1).key() & ~to_equivalence(p2).key() == 0


def refinement_by_block_union(p1: Partition, p2: Partition) -> bool:
    """Union route: each block of p2 is a union of blocks of p1."""
    if p1.ground.size != p2.ground.size:
        raise GroundMismatchError("partitions over different ground sets")
    blocks1 = [frozenset(b) for b in p1.blocks()]
    for block2 in p2.blocks():
        b2 = frozenset(block2)
        union = frozenset()
        for b1 in blocks1:
            if b1 & b2:
                union |= b1
        if union != b2:
            return False
    return True


def is_refinement(p1: Partition, p2: Partition) -> bool:
    """True iff p1 is finer than p2."""
    return refinement_by_relation_inclusion(p1, p2)


def factor_map(p1: Partition, p2: Partition) -> tuple[int, ...]:
    """The surjection sending each p1 block to the p2 block containing it."""
    if not is_refinement(p1, p2):
        raise RefinementError("first partition does not refine the second")
    out = [None] * p1.block_count
    for x in range(p1.ground.size):
        out[p1.assignment[x]] = p2.assignment[x]
    return tuple(out)


# ---------------------------------------------------------------------------
# the four products
# ---------------------------------------------------------------------------

class ProductKind(Enum):
    """The four canonical partitions of the pair set built from P."""

    PLAIN = "plain"         # all block products
    UNIT = "unit"           # diagonal products merged into one block
    SYM = "sym"             # products symmetrized
    SYM_UNIT = "symunit"    # symmetrized with the merged diagonal

    @classmethod
    def parse(cls, text: str) -> "ProductKind":
        for kind in cls:
            if kind.value == text.strip().lower():
                return kind
        raise ValueError(f"unknown product kind {text!r}")


#: Label used for the merged diagonal block (it equals the induced
#: equivalence of the base partition).
MERGED_DIAGONAL_LABEL = "R_P"


class LabeledPartition:
    """A partition of the pair set of X, with one display label per block."""

    __slots__ = ("ground", "base", "labels")

    def __init__(self, ground: GroundSet, base: Partition,
                 labels: tuple[str, ...] | None = None):
        if base.ground.size != ground.size * ground.size:
            raise ValueError("base partition must cover the pair set of X")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != base.block_count:
                raise ValueError("one label per block required")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledPartition is immutable")

    @property
    def block_count(self) -> int:
        return self.base.block_count

    def label(self, b: int) -> str:
        if self.labels is not None:
            return self.labels[b]
        return f"b{b}"

    def pair_block(self, x: int, y: int) -> int:
        return self.base.assignment[x * self.ground.size + y]

    def block_relation(self, b: int) -> BinaryRelation:
        return self.block_relations()[b]

    def block_relations(self) -> tuple[BinaryRelation, ...]:
        """Every block as a relation, built in one pass over the pairs."""
        masks = _accel.block_masks(self.base.assignment, self.block_count)
        return tuple(BinaryRelation.from_key(self.ground, m) for m in masks)

    def __eq__(self, other):
        if not isinstance(other, LabeledPartition):
            return NotImplemented
        return self.ground.size == other.ground.size and self.base == other.base

    def __hash__(self):
        return hash((self.ground.size, self.base))

    def __repr__(self):
        return (f"LabeledPartition(n={self.ground.size}, "
                f"blocks={self.block_count})")


def _pair_key(kind: ProductKind, j1: int, j2: int):
    if kind is ProductKind.PLAIN:
        return (j1, j2)
    if kind is ProductKind.UNIT:
        return MERGED_DIAGONAL_LABEL if j1 == j2 else (j1, j2)
    if kind is ProductKind.SYM:
        return (min(j1, j2), max(j1, j2))
    return MERGED_DIAGONAL_LABEL if j1 == j2 else (min(j1, j2), max(j1, j2))


def _render_key(kind: ProductKind, key) -> str:
    if key == MERGED_DIAGONAL_LABEL:
        return MERGED_DIAGONAL_LABEL
    j1, j2 = key
    if kind in (ProductKind.SYM, ProductKind.SYM_UNIT):
        inner = f"{j1}" if j1 == j2 else f"{j1},{j2}"
        return "{" + inner + "}"
    return f"({j1},{j2})"


def product(p: Partition, kind: ProductKind) -> LabeledPartition:
    """Build one of the four canonical partitions of the pair set of X.

    Block counts over a k-block partition: k*k for PLAIN, k*k - k + 1 for
    UNIT, k*(k+1)/2 for SYM and k*(k-1)/2 + 1 for SYM_UNIT.
    """
    n = p.ground.size
    a = p.assignment
    keys = [_pair_key(kind, a[idx // n], a[idx % n]) for idx in range(n * n)]
    base = Partition(GroundSet(n * n), keys)
    # labels follow the canonical block order (first occurrence of each key)
    seen: dict = {}
    labels = []
    for key in keys:
        if key not in seen:
            seen[key] = True
            labels.append(_render_key(kind, key))
    return LabeledPartition(p.ground, base, tuple(labels))


def canonical_labeling(p: Partition, kind: ProductKind) -> LabeledPartition:
    """The explicit composite labeling whose fibers realize ``product``.

    Starts from the pairing (x, y) -> (block(x), block(y)) and post-composes
    the collapsing steps one at a time: the diagonal of the index square is
    merged into a single label for UNIT kinds, and mirror labels are fused
    for SYM kinds.  The underlying partition equals ``product(p, kind)``;
    the construction is kept separate so tests can compare the two routes.
    """
    n = p.ground.size
    a = p.assignment

    def paired(x, y):
        return (a[x], a[y])

    def fuse_mirror(v):
        j1, j2 = v
        return frozenset(((j1, j2), (j2, j1)))

    def merge_diagonal(v):
        j1, j2 = v
        return MERGED_DIAGONAL_LABEL if j1 == j2 else v

    def merge_diagonal_sets(v):
        if len(v) == 1:
            (j1, j2), = v
            if j1 == j2:
                return MERGED_DIAGONAL_LABEL
        return v

    values = []
    for x in range(n):
        for y in range(n):
            v = paired(x, y)
            if kind is ProductKind.UNIT:
                v = merge_diagonal(v)
            elif kind is ProductKind.SYM:
                v = fuse_mirror(v)
            elif kind is ProductKind.SYM_UNIT:
                v = merge_diagonal_sets(fuse_mirror(v))
            values.append(v)
    base = Partition(GroundSet(n * n), values)
    seen: dict = {}
    labels = []
    for v in values:
        if v not in seen:
            seen[v] = True
            labels.append(_render_value(kind, v))
    return LabeledPartition(p.ground, base, tuple(labels))


def _render_value(kind: ProductKind, v) -> str:
    if v == MERGED_DIAGONAL_LABEL:
        return MERGED_DIAGONAL_LABEL
    if isinstance(v, frozenset):
        js = sorted(set(j for pair in v for j in pair))
        return "{" + ",".join(str(j) for j in js) + "}"
    return f"({v[0]},{v[1]})"


# ---------------------------------------------------------------------------
# symmetry and coherence
# ---------------------------------------------------------------------------

def is_symmetric_partition(q: LabeledPartition) -> bool:
    """True iff every block, read as a relation, equals its converse."""
    n = q.ground.size
    a = q.base.assignment
    return all(a[x * n + y] == a[y * n + x]
               for x in range(n) for y in range(n))


def _check_equivalence_input(q: LabeledPartition, r: BinaryRelation):
    if r.ground.size != q.ground.size:
        raise GroundMismatchError("relation and labeling over different grounds")
    violation = r.equivalence_violation()
    if violation is not None:
        raise NotEquivalenceError(violation)


def is_coherent(q: LabeledPartition, r: BinaryRelation) -> bool:
    """Base coherence: the label of (x1, x2) only depends on r-classes.

    For all x1, x2, x3, x4 with (x1, x3) and (x2, x4) related, the labels
    of (x1, x2) and (x3, x4) must agree.
    """
    _check_equivalence_input(q, r)
    n = q.ground.size
    a = q.base.assignment
    related = r.pairs()
    for x1, x3 in related:
        for x2, x4 in related:
            if a[x1 * n + x2] != a[x3 * n + x4]:
                return False
    return True


def has_constant_diagonal(q: LabeledPartition) -> bool:
    n = q.ground.size
    a = q.base.assignment
    first = a[0]
    return all(a[x * n + x] == first for x in range(n))


def is_coherent_unit(q: LabeledPartition, r: BinaryRelation) -> bool:
    """Coherent with a constant diagonal label."""
    return is_coherent(q, r) and has_constant_diagonal(q)


def is_coherent_sym(q: LabeledPartition, r: BinaryRelation) -> bool:
    """Coherent and symmetric as a mapping."""
    return is_coherent(q, r) and is_symmetric_partition(q)


def is_coherent_sym_unit(q: LabeledPartition, r: BinaryRelation) -> bool:
    """Coherent, symmetric, constant on the diagonal."""
    return (is_coherent(q, r) and is_symmetric_partition(q)
            and has_constant_diagonal(q))


def coherence_checker(kind: ProductKind):
    return {
        ProductKind.PLAIN: is_coherent,
        ProductKind.UNIT: is_coherent_unit,
        ProductKind.SYM: is_coherent_sym,
        ProductKind.SYM_UNIT: is_coherent_sym_unit,
    }[kind]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_partitions(m: int, max_blocks: int | None = None) -> Iterator[Partition]:
    """All partitions of an m-set with at most max_blocks blocks.

    Yields in restricted-growth-string lexicographic order, each exactly
    once.  This is the canonical deterministic order for every partition
    stream in the package.
    """
    if m < 1:
        raise ValueError("set size must be >= 1")
    maxk = m if max_blocks is None else min(max_blocks, m)
    if maxk < 1:
        raise ValueError("max_blocks must be >= 1")
    ground = GroundSet(m)
    for rows in _accel.rgs_batches(m, maxk, batch_size=1024):
        for row in rows.tolist():
            yield Partition(ground, row)


# ---------------------------------------------------------------------------
# smallest-element verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmallestVerification:
    """Outcome of the exhaustive smallest-partition check."""

    kind: ProductKind
    ground_size: int
    partitions_checked: int
    class_members: int
    passed: bool
    failure: str | None = None


def _equality_index_pairs(assignment) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (p < q) on which the given assignment is constant."""
    m = len(assignment)
    i0, i1 = [], []
    for pi in range(m):
        for qi in range(pi + 1, m):
            if assignment[pi] == assignment[qi]:
                i0.append(pi)
                i1.append(qi)
    return np.asarray(i0, dtype=np.int64), np.asarray(i1, dtype=np.int64)


def _coherence_index_pairs(n: int, r: BinaryRelation) -> tuple[np.ndarray, np.ndarray]:
    """Pair-index pairs that coherence w.r.t. r forces to share a label."""
    related = r.pairs()
    i0, i1 = [], []
    for x1, x3 in related:
        for x2, x4 in related:
            pi = x1 * n + x2
            qi = x3 * n + x4
            if pi < qi:
                i0.append(pi)
                i1.append(qi)
    return np.asarray(i0, dtype=np.int64), np.asarray(i1, dtype=np.int64)


def verify_smallest(p: Partition, kind: ProductKind, guard: int = 3,
                    batch_size: int = 65536) -> SmallestVerification:
    """Exhaustively confirm that ``product(p, kind)`` is the class minimum.

    Enumerates every partition of the pair set of X (Bell(n*n) candidates,
    so the default guard caps n at 3), filters to the coherence class of
    the kind, and asserts the product refines each member.  For the
    symmetric kinds it additionally asserts the product refines every
    symmetric partition refined by the corresponding unsymmetrized
    product.  Returns a report; the first counterexample, if any, is
    described by its restricted growth string.
    """
    n = p.ground.size
    if n > guard:
        raise GuardExceededError(
            f"ground size {n} exceeds the guard {guard}; enumeration over "
            f"Bell({n * n}) partitions was refused")
    m2 = n * n
    r_p = to_equivalence(p)
    prod = product(p, kind)
    checker = coherence_checker(kind)
    if not checker(prod, r_p):
        return SmallestVerification(kind, n, 0, 0, False,
                                    "product is not in its own class")

    coh0, coh1 = _coherence_index_pairs(n, r_p)
    prod0, prod1 = _equality_index_pairs(prod.base.assignment)
    need_diag = kind in (ProductKind.UNIT, ProductKind.SYM_UNIT)
    need_sym = kind in (ProductKind.SYM, ProductKind.SYM_UNIT)
    diag = np.asarray([x * n + x for x in range(n)], dtype=np.int64)
    diag0, diag1 = diag[:-1], diag[1:]
    ident = np.arange(m2, dtype=np.int64)
    transpose = np.asarray([(idx % n) * n + (idx // n) for idx in range(m2)],
                           dtype=np.int64)
    if need_sym:
        base_kind = ProductKind.UNIT if kind is ProductKind.SYM_UNIT else ProductKind.PLAIN
        base_prod = product(p, base_kind)
        base0, base1 = _equality_index_pairs(base_prod.base.assignment)

    checked = 0
    members = 0
    failure = None
    for rows in _accel.rgs_batches(m2, m2, batch_size):
        checked += rows.shape[0]
        in_class = _accel.equal_on_pairs(rows, coh0, coh1)
        if need_diag:
            in_class &= _accel.equal_on_pairs(rows, diag0, diag1)
        sym_mask = None
        if need_sym:
            sym_mask = _accel.equal_on_pairs(rows, ident, transpose)
            in_class &= sym_mask
        refined = _accel.equal_on_pairs(rows, prod0, prod1)
        members += int(np.count_nonzero(in_class))
        bad = in_class & ~refined
        if bad.any():
            idx = int(np.argmax(bad))
            failure = (f"class member not refined by the product: "
                       f"rgs={''.join(map(str, rows[idx]))}")
            break
        if need_sym:
            base_refined = _accel.equal_on_pairs(rows, base0, base1)
            bad2 = sym_mask & base_refined & ~refined
            if bad2.any():
                idx = int(np.argmax(bad2))
                failure = (f"symmetric partition refined by the base product "
                           f"but not by the symmetrized product: "
                           f"rgs={''.join(map(str, rows[idx]))}")
                break
    return SmallestVerification(kind, n, checked, members,
                                failure is None, failure)


# ---------------------------------------------------------------------------
# .part text format
# ---------------------------------------------------------------------------

def parse_part(text: str) -> Partition:
    """Parse the .part format: `n: <size>` then one `block: i j ...` per block."""
    lines = list(_significant_lines(text))
    if not lines or not lines[0].startswith("n:"):
        raise FormatError("missing 'n: <size>' header")
    try:
        n = int(lines[0][2:].strip())
    except ValueError as exc:
        raise FormatError(f"bad size in header: {lines[0]!r}") from exc
    if n < 1:
        raise FormatError("ground size must be >= 1")
    blocks = []
    for line in lines[1:]:
        if not line.startswith("block:"):
            raise FormatError(f"expected 'block: ...' line, got {line!r}")
        try:
            block = [int(tok) for tok in line[6:].split()]
        except ValueError as exc:
            raise FormatError(f"non-integer element in {line!r}") from exc
        if not block:
            raise FormatError("blocks must be nonempty")
        blocks.append(block)
    try:
        return Partition.from_blocks(GroundSet(n), blocks)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_part(p: Partition) -> str:
    lines = [f"n: {p.ground.size}"]
    for block in p.blocks():
        lines.append("block: " + " ".join(str(x) for x in block))
    return "\n".join(lines) + "\n"


def load_part(path) -> Partition:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_part(fh.read())


def save_part(p: Partition, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_part(p))
