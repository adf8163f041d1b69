"""Finite binary relations over an indexed ground set.

A relation is stored as one Python int per row: bit y of ``rows[x]`` is set
iff the pair (x, y) belongs to the relation.  Values are immutable and
hashable, equality is extensional (ground size plus pair set), and all
operations are pure functions, so relations are safe to share freely.

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

    __slots__ = ("ground", "rows")

    def __init__(self, ground: GroundSet, rows: Iterable[int]):
        rows = tuple(rows)
        n = ground.size
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        mask = (1 << n) - 1
        for row in rows:
            if row < 0 or row & ~mask:
                raise ValueError("row has bits outside the ground set")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryRelation is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, ground: GroundSet, pairs: Iterable[tuple[int, int]]):
        n = ground.size
        rows = [0] * n
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"pair ({x}, {y}) outside 0..{n - 1}")
            rows[x] |= 1 << y
        return cls(ground, rows)

    @classmethod
    def from_key(cls, ground: GroundSet, key: int):
        """The relation whose ``key()`` is ``key``."""
        n = ground.size
        mask = (1 << n) - 1
        if key >> (n * n):
            raise ValueError("key has bits outside the pair set")
        return cls(ground, ((key >> (x * n)) & mask for x in range(n)))

    @classmethod
    def diagonal(cls, ground: GroundSet):
        return cls(ground, tuple(1 << x for x in range(ground.size)))

    @classmethod
    def full(cls, ground: GroundSet):
        mask = (1 << ground.size) - 1
        return cls(ground, (mask,) * ground.size)

    @classmethod
    def empty(cls, ground: GroundSet):
        return cls(ground, (0,) * ground.size)

    # -- basic queries -------------------------------------------------

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs in row-major sorted order."""
        out = []
        for x, row in enumerate(self.rows):
            y = 0
            while row:
                if row & 1:
                    out.append((x, y))
                row >>= 1
                y += 1
        return tuple(out)

    @property
    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def __contains__(self, pair) -> bool:
        x, y = pair
        n = self.ground.size
        return 0 <= x < n and 0 <= y < n and bool(self.rows[x] >> y & 1)

    def is_empty(self) -> bool:
        return all(row == 0 for row in self.rows)

    def key(self) -> int:
        """Packed integer with row x at bits [x*n, (x+1)*n); total order."""
        n = self.ground.size
        acc = 0
        for x, row in enumerate(self.rows):
            acc |= row << (x * n)
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryRelation):
            return NotImplemented
        return self.ground.size == other.ground.size and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ground.size, self.rows))

    def __repr__(self) -> str:
        return f"BinaryRelation(n={self.ground.size}, pairs={list(self.pairs())!r})"

    # -- algebra -------------------------------------------------------

    def compose(self, other: "BinaryRelation") -> "BinaryRelation":
        """Relation product: (x, y) iff some z has (x, z) here, (z, y) there."""
        _check_same_ground(self, other)
        n = self.ground.size
        return BinaryRelation.from_key(
            self.ground, compose_mask(self.key(), other.key(), n))

    def converse(self) -> "BinaryRelation":
        n = self.ground.size
        out = [0] * n
        for x, row in enumerate(self.rows):
            y = 0
            while row:
                if row & 1:
                    out[y] |= 1 << x
                row >>= 1
                y += 1
        return BinaryRelation(self.ground, out)

    def __or__(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation(self.ground,
                              tuple(a | b for a, b in zip(self.rows, other.rows)))

    def __and__(self, other: "BinaryRelation") -> "BinaryRelation":
        _check_same_ground(self, other)
        return BinaryRelation(self.ground,
                              tuple(a & b for a, b in zip(self.rows, other.rows)))

    # -- relational laws -----------------------------------------------

    def is_reflexive(self) -> bool:
        return all(self.rows[x] >> x & 1 for x in range(self.ground.size))

    def is_symmetric(self) -> bool:
        return self.rows == self.converse().rows

    def is_transitive(self) -> bool:
        # row(x) must absorb row(z) for every z reachable from x
        for row in self.rows:
            t = row
            z = 0
            while t:
                if t & 1 and self.rows[z] & ~row:
                    return False
                t >>= 1
                z += 1
        return True

    def is_equivalence(self) -> bool:
        return self.equivalence_violation() is None

    def equivalence_violation(self) -> str | None:
        """First violated equivalence law with a witness, or None."""
        n = self.ground.size
        for x in range(n):
            if not self.rows[x] >> x & 1:
                return f"not reflexive: ({x}, {x}) missing"
        for x in range(n):
            row = self.rows[x]
            y = 0
            t = row
            while t:
                if t & 1 and not self.rows[y] >> x & 1:
                    return f"not symmetric: ({x}, {y}) present, ({y}, {x}) missing"
                t >>= 1
                y += 1
        for x in range(n):
            row = self.rows[x]
            t = row
            y = 0
            while t:
                if t & 1:
                    extra = self.rows[y] & ~row
                    if extra:
                        z = (extra & -extra).bit_length() - 1
                        return (f"not transitive: ({x}, {y}) and ({y}, {z}) "
                                f"present, ({x}, {z}) missing")
                t >>= 1
                y += 1
        return None

    # -- domain and range ----------------------------------------------

    def domain(self) -> frozenset[int]:
        return frozenset(x for x, row in enumerate(self.rows) if row)

    def range(self) -> frozenset[int]:
        acc = 0
        for row in self.rows:
            acc |= row
        return frozenset(y for y in range(self.ground.size) if acc >> y & 1)


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
