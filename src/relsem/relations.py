"""Finite binary relations over an indexed ground set.

A relation is stored as its packed int, ``key()``: the bit for pair (x, y)
sits at position x*n + y, the pair's index in every partition of the pair
set, so row x occupies bits [x*n, (x+1)*n) and a pair-set block's key is
the bitmask of its pair indices.  The algebra and the laws are bit
expressions over that int; ``rows`` derives the per-row view on demand.
Values are immutable and hashable, equality is extensional (ground size
plus pair set), and all operations are pure functions, so relations are
safe to share freely.

Ground sets are index based (0..n-1); optional labels are presentation
only and never influence semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ._accel import compose_mask
from .errors import FormatError, GroundMismatchError


@dataclass(frozen=True)
class GroundSet:
    """An n-element index set, optionally carrying display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("ground set must have at least one element")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.size:
                raise ValueError("label count must equal ground size")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be pairwise distinct")

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return str(i)


def _check_same_ground(a: "BinaryRelation", b: "BinaryRelation"):
    if a.ground.size != b.ground.size:
        raise GroundMismatchError(
            f"ground sets differ: {a.ground.size} vs {b.ground.size}")


class BinaryRelation:
    """A subset of the Cartesian square of a ground set."""

    __slots__ = ("ground", "_key")

    def __init__(self, ground: GroundSet, rows: Iterable[int]):
        rows = tuple(rows)
        n = ground.size
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        mask = (1 << n) - 1
        key = 0
        for x, row in enumerate(rows):
            if row < 0 or row & ~mask:
                raise ValueError("row has bits outside the ground set")
            key |= row << (x * n)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "_key", key)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryRelation is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, ground: GroundSet, pairs: Iterable[tuple[int, int]]):
        n = ground.size
        key = 0
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) outside 0..{n - 1}")
            key |= 1 << (x * n + y)
        return cls.from_key(ground, key)

    @classmethod
    def from_key(cls, ground: GroundSet, key: int):
        """The relation whose ``key()`` is ``key``."""
        if key < 0 or key >> (ground.size * ground.size):
            raise ValueError("key has bits outside the pair set")
        rel = object.__new__(cls)
        object.__setattr__(rel, "ground", ground)
        object.__setattr__(rel, "_key", key)
        return rel

    @classmethod
    def diagonal(cls, ground: GroundSet):
        return cls.from_pairs(ground, ((x, x) for x in range(ground.size)))

    @classmethod
    def full(cls, ground: GroundSet):
        return cls.from_key(ground, (1 << (ground.size * ground.size)) - 1)

    @classmethod
    def empty(cls, ground: GroundSet):
        return cls.from_key(ground, 0)

    # -- basic queries -------------------------------------------------

    def key(self) -> int:
        """Packed integer with row x at bits [x*n, (x+1)*n); total order."""
        return self._key

    @property
    def rows(self) -> tuple[int, ...]:
        """Row x as an int whose bit y is set iff (x, y) is present."""
        n = self.ground.size
        mask = (1 << n) - 1
        return tuple(self._key >> (x * n) & mask for x in range(n))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs in row-major sorted order."""
        n = self.ground.size
        out = []
        k = self._key
        while k:
            low = k & -k
            out.append(divmod(low.bit_length() - 1, n))
            k ^= low
        return tuple(out)

    @property
    def pair_count(self) -> int:
        return self._key.bit_count()

    def __contains__(self, pair) -> bool:
        x, y = pair
        n = self.ground.size
        return 0 <= x < n and 0 <= y < n and bool(self._key >> (x * n + y) & 1)

    def is_empty(self) -> bool:
        return self._key == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryRelation):
            return NotImplemented
        return self.ground.size == other.ground.size and self._key == other._key

    def __hash__(self) -> int:
        return hash((self.ground.size, self._key))

    def __repr__(self) -> str:
        return f"BinaryRelation(n={self.ground.size}, pairs={list(self.pairs())!r})"

    # -- algebra -------------------------------------------------------

    def compose(self, other: "BinaryRelation") -> "BinaryRelation":
        """Relation product: (x, y) iff some z has (x, z) here, (z, y) there."""
        _check_same_ground(self, other)
        return BinaryRelation.from_key(
            self.ground, compose_mask(self._key, other._key, self.ground.size))

    def converse(self) -> "BinaryRelation":
        n = self.ground.size
        out = 0
        for x, y in self.pairs():
            out |= 1 << (y * n + x)
        return BinaryRelation.from_key(self.ground, out)

    def __or__(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation.from_key(self.ground, self._key | other._key)

    def __and__(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation.from_key(self.ground, self._key & other._key)

    # -- relational laws -----------------------------------------------

    def is_reflexive(self) -> bool:
        return self.diagonal(self.ground)._key & ~self._key == 0

    def is_symmetric(self) -> bool:
        return self == self.converse()

    def is_transitive(self) -> bool:
        k = self._key
        return compose_mask(k, k, self.ground.size) & ~k == 0

    def is_equivalence(self) -> bool:
        return self.equivalence_violation() is None

    def equivalence_violation(self) -> str | None:
        """First violated equivalence law with a witness, or None."""
        for x in range(self.ground.size):
            if (x, x) not in self:
                return f"not reflexive: ({x}, {x}) missing"
        pairs = self.pairs()
        for x, y in pairs:
            if (y, x) not in self:
                return f"not symmetric: ({x}, {y}) present, ({y}, {x}) missing"
        rows = self.rows
        for x, y in pairs:
            extra = rows[y] & ~rows[x]
            if extra:
                z = (extra & -extra).bit_length() - 1
                return (f"not transitive: ({x}, {y}) and ({y}, {z}) "
                        f"present, ({x}, {z}) missing")
        return None

    # -- domain and range ----------------------------------------------

    def domain(self) -> frozenset[int]:
        return frozenset(x for x, row in enumerate(self.rows) if row)

    def range(self) -> frozenset[int]:
        return frozenset(y for _, y in self.pairs())


# ---------------------------------------------------------------------------
# .rel text format
# ---------------------------------------------------------------------------

def _significant_lines(text: str) -> Iterator[str]:
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_rel(text: str) -> BinaryRelation:
    """Parse the .rel format: a `n: <size>` header, then one `x y` per line."""
    lines = list(_significant_lines(text))
    if not lines or not lines[0].startswith("n:"):
        raise FormatError("missing 'n: <size>' header")
    try:
        n = int(lines[0][2:].strip())
    except ValueError as exc:
        raise FormatError(f"bad size in header: {lines[0]!r}") from exc
    if n < 1:
        raise FormatError("ground size must be >= 1")
    ground = GroundSet(n)
    pairs = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'x y' pair, got {line!r}")
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"non-integer pair {line!r}") from exc
        if not (0 <= x < n and 0 <= y < n):
            raise FormatError(f"pair ({x}, {y}) outside 0..{n - 1}")
        pairs.append((x, y))
    return BinaryRelation.from_pairs(ground, pairs)


def format_rel(rel: BinaryRelation) -> str:
    lines = [f"n: {rel.ground.size}"]
    lines.extend(f"{x} {y}" for x, y in rel.pairs())
    return "\n".join(lines) + "\n"


def load_rel(path) -> BinaryRelation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rel(fh.read())


def save_rel(rel: BinaryRelation, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_rel(rel))
