"""Finite abstract semigroups as validated Cayley tables.

Elements are referred to by index; names are display strings kept in the
order of the table.  Associativity is checked at construction, so every
AbstractSemigroup value in circulation is a real semigroup.  The class is
immutable; all operations return fresh values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (AssociativityError, FormatError, NotCommutativeBandError)
from .relations import _significant_lines


class AbstractSemigroup:
    """An m-element semigroup given by names and an m*m index table."""

    __slots__ = ("names", "table")

    def __init__(self, names: Sequence[str], table):
        names = tuple(names)
        m = len(names)
        if m == 0:
            raise ValueError("a semigroup is nonempty")
        if len(set(names)) != m:
            raise ValueError("element names must be distinct")
        for name in names:
            if not name or any(ch.isspace() for ch in name) or "#" in name:
                raise ValueError(f"name {name!r} is empty or not writable")
        rows = tuple(tuple(row) for row in table)
        if len(rows) != m or any(len(row) != m for row in rows):
            raise ValueError(f"table must be {m}x{m}")
        for row in rows:
            for v in row:
                if not 0 <= v < m:
                    raise ValueError(f"table entry {v} out of range")
        for i in range(m):
            for j in range(m):
                ij = rows[i][j]
                for k in range(m):
                    if rows[ij][k] != rows[i][rows[j][k]]:
                        raise AssociativityError(i, j, k)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", rows)

    def __setattr__(self, name, value):
        raise AttributeError("AbstractSemigroup is immutable")

    # -- basics ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.names)

    def product(self, i: int, j: int) -> int:
        return self.table[i][j]

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __eq__(self, other):
        if not isinstance(other, AbstractSemigroup):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __hash__(self):
        return hash((self.names, self.table))

    def __repr__(self):
        return f"AbstractSemigroup({list(self.names)!r})"

    # -- special elements --------------------------------------------------

    def identity(self) -> int | None:
        """The two-sided identity; a single element is its own identity."""
        m = self.size
        if m == 1:
            return 0
        for e in range(m):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(m)):
                return e
        return None

    def zero(self) -> int | None:
        """The absorbing element; only reported for size >= 2."""
        m = self.size
        if m < 2:
            return None
        for z in range(m):
            if all(self.table[z][x] == z == self.table[x][z] for x in range(m)):
                return z
        return None

    def is_idempotent(self, i: int) -> bool:
        return self.table[i][i] == i

    def idempotents(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.is_idempotent(i))

    def nontrivial_idempotents(self) -> tuple[int, ...]:
        trivial = {self.identity(), self.zero()}
        return tuple(i for i in self.idempotents() if i not in trivial)

    def power_orbit_size(self, i: int) -> int:
        """Number of distinct powers of the element."""
        seen = set()
        x = i
        while x not in seen:
            seen.add(x)
            x = self.table[x][i]
        return len(seen)

    # -- subsets ----------------------------------------------------------

    def is_closed(self, subset: Iterable[int]) -> bool:
        sub = set(subset)
        return all(self.table[i][j] in sub for i in sub for j in sub)

    def restrict(self, subset: Iterable[int]) -> "AbstractSemigroup":
        """The subsemigroup on the given closed index set."""
        sub = sorted(set(subset))
        if not sub:
            raise ValueError("subset must be nonempty")
        if not self.is_closed(sub):
            raise ValueError("subset is not closed under the product")
        pos = {old: new for new, old in enumerate(sub)}
        names = tuple(self.names[i] for i in sub)
        table = tuple(tuple(pos[self.table[i][j]] for j in sub) for i in sub)
        return AbstractSemigroup(names, table)


# ---------------------------------------------------------------------------
# identity adjunction, ideals
# ---------------------------------------------------------------------------

def adjoin_identity(h: AbstractSemigroup) -> AbstractSemigroup:
    """Return h itself if it has an identity, else extend by a fresh one."""
    if h.identity() is not None:
        return h
    m = h.size
    fresh = "1"
    while fresh in h.names:
        fresh += "'"
    names = h.names + (fresh,)
    table = [list(row) + [i] for i, row in enumerate(h.table)]
    table.append(list(range(m + 1)))
    return AbstractSemigroup(names, table)


def is_ideal(h: AbstractSemigroup, subset: Iterable[int]) -> bool:
    """True iff products of the subset with the whole set land inside it."""
    sub = set(subset)
    if not sub:
        raise ValueError("subset must be nonempty")
    m = h.size
    for c in sub:
        for x in range(m):
            if h.table[c][x] not in sub or h.table[x][c] not in sub:
                return False
    return True


# ---------------------------------------------------------------------------
# the natural order of a commutative band
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandOrder:
    """Natural partial order of a commutative band inside a semigroup.

    ``le`` holds pairs (a, b) meaning a <= b; ``covers`` holds Hasse edges
    (greater, smaller).  Indices refer to the enclosing semigroup.
    """

    elements: tuple[int, ...]
    le: frozenset[tuple[int, int]]
    covers: tuple[tuple[int, int], ...]


def band_order(h: AbstractSemigroup, subset: Iterable[int]) -> BandOrder:
    """Order a commutative band by: smaller absorbs into greater.

    The defining rule is (b <= a) iff a*b = a.  The pre-condition that the
    subset is a closed commutative set of idempotents is verified; the
    resulting relation is checked to be a partial order.
    """
    elements = tuple(sorted(set(subset)))
    if not elements:
        raise NotCommutativeBandError("empty subset")
    for i in elements:
        if not h.is_idempotent(i):
            raise NotCommutativeBandError(f"{h.names[i]} is not idempotent")
    for i in elements:
        for j in elements:
            p = h.table[i][j]
            if p not in elements:
                raise NotCommutativeBandError(
                    f"product {h.names[i]}*{h.names[j]} leaves the subset")
            if p != h.table[j][i]:
                raise NotCommutativeBandError(
                    f"{h.names[i]} and {h.names[j]} do not commute")
    le = set()
    for a in elements:
        for b in elements:
            if h.table[a][b] == a:
                le.add((b, a))
    # reflexivity holds by idempotency; antisymmetry by commutativity
    for (b, a) in le:
        if (a, b) in le and a != b:
            raise NotCommutativeBandError(
                f"order not antisymmetric at {h.names[a]}, {h.names[b]}")
    for a in elements:
        for b in elements:
            if (b, a) not in le:
                continue
            for c in elements:
                if (c, b) in le and (c, a) not in le:
                    raise NotCommutativeBandError(
                        f"order not transitive at {h.names[c]} <= "
                        f"{h.names[b]} <= {h.names[a]}")
    covers = []
    for a in elements:
        for b in elements:
            if a == b or (b, a) not in le:
                continue
            if any(c != a and c != b and (b, c) in le and (c, a) in le
                   for c in elements):
                continue
            covers.append((a, b))
    covers.sort()
    return BandOrder(elements, frozenset(le), tuple(covers))


def hasse_dot(h: AbstractSemigroup, order: BandOrder, name: str = "band") -> str:
    """Graphviz rendering; edges point from greater to smaller element."""
    lines = [f"digraph {name} {{"]
    for i in order.elements:
        lines.append(f'  "{h.names[i]}";')
    for greater, smaller in order.covers:
        lines.append(f'  "{h.names[greater]}" -> "{h.names[smaller]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def _refined_colors(h: AbstractSemigroup) -> tuple[int, ...]:
    """Permutation-invariant element colors via iterated refinement."""
    m = h.size
    table = h.table
    colors = []
    for x in range(m):
        colors.append((int(h.is_idempotent(x)), h.power_orbit_size(x)))
    ranks = _rank(colors)
    for _ in range(m):
        sigs = []
        for x in range(m):
            neigh = sorted((ranks[y], ranks[table[x][y]], ranks[table[y][x]])
                           for y in range(m))
            sigs.append((ranks[x], tuple(neigh)))
        new_ranks = _rank(sigs)
        if new_ranks == ranks:
            break
        ranks = new_ranks
    return ranks


def _rank(values) -> tuple[int, ...]:
    order = {v: i for i, v in enumerate(sorted(set(values)))}
    return tuple(order[v] for v in values)


def find_isomorphism(h1: AbstractSemigroup,
                     h2: AbstractSemigroup) -> tuple[int, ...] | None:
    """A product-preserving bijection h1 -> h2 as an index tuple, or None.

    Candidates are pruned by iterated invariant colors, then explored by
    backtracking in element-index order, so the first witness found is
    deterministic.
    """
    m = h1.size
    if h2.size != m:
        return None
    c1 = _refined_colors(h1)
    c2 = _refined_colors(h2)
    if sorted(c1) != sorted(c2):
        return None
    t1, t2 = h1.table, h2.table
    mapping = [-1] * m
    used = [False] * m

    def consistent(x: int, y: int) -> bool:
        for u in range(m):
            v = mapping[u]
            if v < 0:
                continue
            p = t1[x][u]
            q = t2[y][v]
            if mapping[p] >= 0:
                if mapping[p] != q:
                    return False
            elif c1[p] != c2[q]:
                return False
            p = t1[u][x]
            q = t2[v][y]
            if mapping[p] >= 0:
                if mapping[p] != q:
                    return False
            elif c1[p] != c2[q]:
                return False
        return True

    def extend(x: int) -> bool:
        if x == m:
            return all(mapping[t1[i][j]] == t2[mapping[i]][mapping[j]]
                       for i in range(m) for j in range(m))
        for y in range(m):
            if used[y] or c1[x] != c2[y]:
                continue
            mapping[x] = y
            used[y] = True
            if consistent(x, y) and extend(x + 1):
                return True
            mapping[x] = -1
            used[y] = False
        return False

    if extend(0):
        return tuple(mapping)
    return None


# ---------------------------------------------------------------------------
# band constructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandDecomposition:
    """A core ideal plus group blocks covering the complement."""

    core: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]


def _disjoint_names(parts: Sequence[AbstractSemigroup]) -> list[str]:
    used: set[str] = set()
    names = []
    for part in parts:
        for name in part.names:
            candidate = name
            k = 2
            while candidate in used:
                candidate = f"{name}_{k}"
                k += 1
            used.add(candidate)
            names.append(candidate)
    return names


def band_union_with_core(core: AbstractSemigroup,
                         groups: Sequence[AbstractSemigroup]) -> AbstractSemigroup:
    """Disjoint union where every cross product collapses to the core zero.

    Within the core and within each group the original products apply; any
    mixed product equals the zero of the core.
    """
    zero = core.zero()
    if zero is None:
        raise ValueError("core must have a zero")
    parts = [core] + list(groups)
    names = _disjoint_names(parts)
    offsets = []
    total = 0
    for part in parts:
        offsets.append(total)
        total += part.size
    owner = []
    for pi, part in enumerate(parts):
        owner.extend([pi] * part.size)
    table = [[zero] * total for _ in range(total)]
    for i in range(total):
        for j in range(total):
            if owner[i] == owner[j]:
                part = parts[owner[i]]
                off = offsets[owner[i]]
                table[i][j] = off + part.table[i - off][j - off]
    return AbstractSemigroup(names, table)


def identity_absorbing_union(c: AbstractSemigroup,
                             s: AbstractSemigroup) -> AbstractSemigroup:
    """Disjoint union where every element of s is a two-sided identity on c."""
    names = _disjoint_names([c, s])
    mc = c.size
    total = mc + s.size
    table = [[0] * total for _ in range(total)]
    for i in range(total):
        for j in range(total):
            if i < mc and j < mc:
                table[i][j] = c.table[i][j]
            elif i >= mc and j >= mc:
                table[i][j] = mc + s.table[i - mc][j - mc]
            elif i < mc:
                table[i][j] = i
            else:
                table[i][j] = j
    return AbstractSemigroup(names, table)


# ---------------------------------------------------------------------------
# stock examples
# ---------------------------------------------------------------------------

def right_zero_semigroup(m: int) -> AbstractSemigroup:
    """x*y = y on m elements."""
    names = tuple(f"r{i}" for i in range(m))
    return AbstractSemigroup(names, [[j for j in range(m)] for _ in range(m)])


def left_zero_semigroup(m: int) -> AbstractSemigroup:
    """x*y = x on m elements."""
    names = tuple(f"l{i}" for i in range(m))
    return AbstractSemigroup(names, [[i] * m for i in range(m)])


def cyclic_group(m: int) -> AbstractSemigroup:
    """The cyclic group of order m, identity first."""
    names = tuple("e" if i == 0 else f"g{i}" for i in range(m))
    return AbstractSemigroup(names, [[(i + j) % m for j in range(m)]
                                     for i in range(m)])


def null_band(m: int) -> AbstractSemigroup:
    """A zero plus m-1 idempotents whose distinct products collapse to it."""
    if m < 2:
        raise ValueError("a null band needs a zero and at least one idempotent")
    names = ("z",) + tuple(f"e{i}" for i in range(1, m))
    table = [[i if i == j and i > 0 else 0 for j in range(m)] for i in range(m)]
    return AbstractSemigroup(names, table)


def group_with_zero(m: int) -> AbstractSemigroup:
    """A zero adjoined to the cyclic group of order m - 1."""
    if m < 2:
        raise ValueError("need at least the zero and one group element")
    g = m - 1
    names = ("z",) + tuple("e" if i == 0 else f"g{i}" for i in range(g))
    table = [[0] * m for _ in range(m)]
    for i in range(g):
        for j in range(g):
            table[i + 1][j + 1] = 1 + (i + j) % g
    return AbstractSemigroup(names, table)


# ---------------------------------------------------------------------------
# .cay text format
# ---------------------------------------------------------------------------

def parse_cay(text: str) -> AbstractSemigroup:
    """Parse the .cay format: an elements line, `table:`, then m name rows."""
    lines = list(_significant_lines(text))
    if not lines or not lines[0].startswith("elements:"):
        raise FormatError("missing 'elements:' header")
    names = lines[0][len("elements:"):].split()
    if not names:
        raise FormatError("no element names")
    if len(lines) < 2 or lines[1] != "table:":
        raise FormatError("missing 'table:' separator")
    m = len(names)
    rows = lines[2:]
    if len(rows) != m:
        raise FormatError(f"expected {m} table rows, got {len(rows)}")
    pos = {name: i for i, name in enumerate(names)}
    if len(pos) != m:
        raise FormatError("duplicate element names")
    table = []
    for row in rows:
        entries = row.split()
        if len(entries) != m:
            raise FormatError(f"table row has {len(entries)} entries, wanted {m}")
        try:
            table.append([pos[e] for e in entries])
        except KeyError as exc:
            raise FormatError(f"unknown element name {exc.args[0]!r}") from exc
    try:
        return AbstractSemigroup(names, table)
    except (ValueError, AssociativityError) as exc:
        raise FormatError(f"invalid table: {exc}") from exc


def format_cay(h: AbstractSemigroup) -> str:
    lines = ["elements: " + " ".join(h.names), "table:"]
    for row in h.table:
        lines.append(" ".join(h.names[v] for v in row))
    return "\n".join(lines) + "\n"


def load_cay(path) -> AbstractSemigroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cay(fh.read())


def save_cay(h: AbstractSemigroup, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_cay(h))
