"""Set-of-pairs relation closure, kept independent of the bitset path.

This module exists as the second route of every dual-route check: the
generation module and the search kernels work on packed relations, while
the functions here manipulate plain frozensets of index pairs.  Tests and
the verification harness compare the two.
"""

from __future__ import annotations

from typing import Iterable


def compose_pairs(a: frozenset, b: frozenset) -> frozenset:
    """Compose two relations given as frozensets of (x, y) pairs."""
    by_first: dict[int, list[int]] = {}
    for x, y in b:
        by_first.setdefault(x, []).append(y)
    out = set()
    for x, z in a:
        for y in by_first.get(z, ()):
            out.add((x, y))
    return frozenset(out)


def closure_pairs(generators: Iterable[Iterable[tuple[int, int]]],
                  cap: int | None = None):
    """Closure of pair-set relations under composition.

    Returns ``(elements, table)`` with elements in breadth-first order
    (generators first, new levels sorted by their pair lists), or None if
    the closure grows past ``cap`` elements, the generators included.
    """
    gens: list[frozenset] = []
    for g in generators:
        g = frozenset(g)
        if g not in gens:
            gens.append(g)
    if not gens:
        raise ValueError("at least one generator required")
    if cap is not None and len(gens) > cap:
        return None
    elements = list(gens)
    seen = set(elements)
    frontier = list(elements)
    while frontier:
        fresh = set()
        for e in frontier:
            for g in gens:
                for p in (compose_pairs(e, g), compose_pairs(g, e)):
                    if p not in seen and p not in fresh:
                        fresh.add(p)
                        if cap is not None and len(seen) + len(fresh) > cap:
                            return None
        frontier = sorted(fresh, key=sorted)
        seen.update(fresh)
        elements.extend(frontier)
    index = {e: i for i, e in enumerate(elements)}
    table = [[index[compose_pairs(a, b)] for b in elements] for a in elements]
    return elements, table
