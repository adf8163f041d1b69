"""Independent routes the benchmark checks relsem's answers against.

Nothing here calls the code paths under measurement: semigroups are
enumerated by backtracking, partitions recursively, closures on frozensets
of pairs (``relsem.naive``) and isomorphisms by trying every permutation.

Run as a script, it prints the represent-corpus expectations as JSON, so
that the benchmark process does not carry their memory:

    python3 perfbench/oracle.py <src-dir> <max-ground>
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from itertools import combinations, permutations

if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])

from relsem.naive import closure_pairs  # noqa: E402


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def product_block_count(k: int, kind: str) -> int:
    """Blocks of the pair-set product of a k-block partition."""
    return {"plain": k * k, "unit": k * k - k + 1,
            "sym": k * (k + 1) // 2, "symunit": k * (k - 1) // 2 + 1}[kind]


def product_closure_size(k: int, kind: str) -> int:
    """The closure size laws for a k-block base partition."""
    return {"plain": k * k + 1, "unit": k * k + 2,
            "sym": 2 * k * k - k + 1, "symunit": 2 * k * k - k + 2}[kind]


# ---------------------------------------------------------------------------
# the corpus of small semigroups
# ---------------------------------------------------------------------------

def _associative_so_far(t, m) -> bool:
    for x in range(m):
        for y in range(m):
            xy = t[x][y]
            if xy < 0:
                continue
            for z in range(m):
                yz = t[y][z]
                if yz < 0:
                    continue
                left, right = t[xy][z], t[x][yz]
                if left >= 0 and right >= 0 and left != right:
                    return False
    return True


def _labeled_semigroups(m: int):
    t = [[-1] * m for _ in range(m)]
    out = []

    def fill(cell):
        if cell == m * m:
            out.append(tuple(tuple(row) for row in t))
            return
        x, y = divmod(cell, m)
        for v in range(m):
            t[x][y] = v
            if _associative_so_far(t, m):
                fill(cell + 1)
        t[x][y] = -1

    fill(0)
    return out


def _canonical_form(table) -> tuple:
    m = len(table)
    best = None
    for perm in permutations(range(m)):
        inv = [0] * m
        for i, p in enumerate(perm):
            inv[p] = i
        flat = tuple(perm[table[inv[a]][inv[b]]]
                     for a in range(m) for b in range(m))
        if best is None or flat < best:
            best = flat
    return best


def semigroup_corpus(max_order: int = 4) -> list:
    """One Cayley table per isomorphism class of order 1..max_order."""
    corpus = []
    for m in range(1, max_order + 1):
        seen = set()
        for table in _labeled_semigroups(m):
            key = _canonical_form(table)
            if key not in seen:
                seen.add(key)
                corpus.append(table)
    return corpus


# ---------------------------------------------------------------------------
# d-transitive search by brute force
# ---------------------------------------------------------------------------

def _zero(table):
    m = len(table)
    if m < 2:
        return None
    for z in range(m):
        if all(table[z][x] == z == table[x][z] for x in range(m)):
            return z
    return None


def _generates(table, subset) -> bool:
    got = set(subset)
    grew = True
    while grew:
        grew = False
        for a in list(got):
            for b in list(got):
                for p in (table[a][b], table[b][a]):
                    if p not in got:
                        got.add(p)
                        grew = True
    return len(got) == len(table)


def admissible_counts(table) -> tuple[int, ...]:
    """Sizes of zero-free generating subsets: the block counts a search sweeps."""
    zero = _zero(table)
    nonzero = [x for x in range(len(table)) if x != zero]
    for s in range(1, len(nonzero) + 1):
        if any(_generates(table, c) for c in combinations(nonzero, s)):
            return tuple(range(s, len(nonzero) + 1))
    return ()


def _rgs(length: int):
    out = []

    def grow(prefix, top):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for v in range(top + 2):
            prefix.append(v)
            grow(prefix, max(top, v))
            prefix.pop()

    grow([0], 0)
    return out


@lru_cache(maxsize=None)
def _pair_set_closures(n: int, cap: int):
    entries = []
    for rgs in _rgs(n * n):
        k = max(rgs) + 1
        blocks = [set() for _ in range(k)]
        for idx, b in enumerate(rgs):
            blocks[b].add((idx // n, idx % n))
        closed = closure_pairs([frozenset(b) for b in blocks], cap=cap)
        if closed is not None:
            entries.append((rgs, k, closed[0], closed[1]))
    return entries


def naive_search(table, max_ground: int):
    """First (ground size, RGS) with a d-transitive witness, or None."""
    m = len(table)
    zero = _zero(table)
    for n in range(1, max_ground + 1):
        for rgs, k, elements, ctable in _pair_set_closures(n, max(m, 4)):
            if len(elements) != m:
                continue
            for perm in permutations(range(m)):
                if any(ctable[perm[x]][perm[y]] != perm[table[x][y]]
                       for x in range(m) for y in range(m)):
                    continue
                if zero is not None and elements[perm[zero]]:
                    continue
                if _generates(table, [x for x in range(m) if perm[x] < k]):
                    return n, rgs
    return None


# ---------------------------------------------------------------------------
# isomorphisms
# ---------------------------------------------------------------------------

def is_isomorphism(t1, t2, iso) -> bool:
    m = len(t1)
    if iso is None or len(t2) != m or sorted(iso) != list(range(m)):
        return False
    return all(iso[t1[x][y]] == t2[iso[x]][iso[y]]
               for x in range(m) for y in range(m))


# ---------------------------------------------------------------------------
# represent-corpus expectations
# ---------------------------------------------------------------------------

def corpus_expectations(max_ground: int) -> list:
    """[table, admissible counts, first witness or None] per corpus semigroup."""
    return [[table, admissible_counts(table), naive_search(table, max_ground)]
            for table in semigroup_corpus(4)]


if __name__ == "__main__":
    print(json.dumps(corpus_expectations(int(sys.argv[2]))))
