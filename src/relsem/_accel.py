"""Packed-relation kernels: composition, closure, RGS enumeration, scans.

A relation over a ground set of size n is packed into one Python int: the
bit for pair (x, y) sits at position x*n + y, so row x occupies bits
[x*n, (x+1)*n) and comparing packed values orders relations by their
rows.  ``compose_mask`` is the one composition and ``closure`` the one
closure routine of the package; generation, the representation search
and its fingerprints all go through them.  Partitions of the n*n pair set
travel as numpy uint8 rows in restricted growth form, and the batched
label comparisons of the smallest-partition oracle are vectorized numpy.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    return "python"


# ---------------------------------------------------------------------------
# packed-relation composition and closure
# ---------------------------------------------------------------------------

def compose_mask(a, b, n):
    """Compose two packed relations: bit (x, y) set iff some z links them."""
    rowmask = (1 << n) - 1
    res = 0
    shift = 0
    while a:
        arow = a & rowmask
        if arow:
            # OR together the rows of b named by the set bits of a's row;
            # bits above the row are masked off once at the end
            orow = 0
            while arow:
                low = arow & -arow
                orow |= b >> ((low.bit_length() - 1) * n)
                arow ^= low
            res |= (orow & rowmask) << shift
        a >>= n
        shift += n
    return res


def closure(gens, n, cap):
    """Close packed relations under two-sided composition with ``gens``.

    Returns the generators first, deduplicated in their given order, then
    each new word length in turn, sorted by packed value.  Returns None
    once the closure would exceed ``cap`` elements, the generators
    included.
    """
    gens = list(dict.fromkeys(gens))
    if len(gens) > cap:
        return None
    elements = list(gens)
    seen = set(gens)
    frontier = gens
    while frontier:
        room = cap - len(elements)
        fresh = []
        for e in frontier:
            for g in gens:
                for p in (compose_mask(e, g, n), compose_mask(g, e, n)):
                    if p not in seen:
                        if len(fresh) == room:
                            return None
                        seen.add(p)
                        fresh.append(p)
        fresh.sort()
        elements += fresh
        frontier = fresh
    return elements


def block_masks(assignment, k):
    """Bit i of ``masks[b]`` is set iff ``assignment[i] == b``.

    For a partition of the n*n pair set, ``masks[b]`` is block b's packed
    relation.
    """
    masks = [0] * k
    for idx, block in enumerate(assignment):
        masks[block] |= 1 << idx
    return masks


# ---------------------------------------------------------------------------
# restricted growth strings
# ---------------------------------------------------------------------------

def rgs_fill(a, b, maxk, out):
    """Write successive restricted growth strings into ``out``.

    ``a`` is the next string to emit and ``b[i]`` caches max(a[:i]); both
    are lists, updated in place.  Returns ``(count, done)`` where ``done``
    signals that the emitted rows exhausted the stream.
    """
    m = len(a)
    count = 0
    while count < out.shape[0]:
        out[count] = a
        count += 1
        for i in range(m - 1, 0, -1):
            if a[i] < min(b[i] + 1, maxk - 1):
                a[i] += 1
                cur = max(b[i], a[i])
                for j in range(i + 1, m):
                    a[j] = 0
                    b[j] = cur
                break
        else:
            return count, True
    return count, False


def rgs_batches(m, maxk, batch_size=65536):
    """Yield numpy batches of all restricted growth strings of length m.

    Strings use at most ``maxk`` block labels and appear in lexicographic
    order, each exactly once.  Every yielded array is freshly allocated.
    """
    if m < 1:
        raise ValueError("length must be >= 1")
    if maxk < 1:
        raise ValueError("maxk must be >= 1")
    a = [0] * m
    b = [0] * m
    done = False
    while not done:
        out = np.empty((batch_size, m), dtype=np.uint8)
        count, done = rgs_fill(a, b, maxk, out)
        yield out[:count]


# ---------------------------------------------------------------------------
# batched label comparisons (smallest-partition oracle)
# ---------------------------------------------------------------------------

def equal_on_pairs(rows, i0, i1):
    """For each row, test whether row[i0[t]] == row[i1[t]] for every t."""
    if i0.shape[0] == 0:
        return np.ones(rows.shape[0], dtype=np.bool_)
    return (rows[:, i0] == rows[:, i1]).all(axis=1)


# ---------------------------------------------------------------------------
# closure fingerprints for the d-transitive representation search
# ---------------------------------------------------------------------------

#: Columns of a fingerprint row written by ``fingerprint_rows``.
FP_BLOCKS, FP_SIZE, FP_EMPTY, FP_ZERO, FP_IDEMPOTENTS, FP_IDENTITY = range(6)
FP_WIDTH = 6


def fingerprint_rows(rows, n, admissible_mask, cap, out):
    """Closure fingerprints of partitions of the n*n pair set.

    Each row of ``rows`` is a partition of the pair indices in restricted
    growth form.  ``out[r, FP_BLOCKS]`` receives its block count k.  A row
    whose k has bit k set in ``admissible_mask`` is examined: its blocks
    are packed into relations and closed with ``closure`` under ``cap``.
    ``out[r, FP_SIZE]`` is the closure size, ``cap + 1`` past the cap, and
    0 for rows not examined.  Only for closures of exactly ``cap`` elements
    are the isomorphism invariants written: the empty relation, a zero
    (reported for two or more elements only), the idempotent count and an
    identity; elsewhere those columns are 0.  Returns the number of rows
    examined.
    """
    # plain Python ints compose several times faster than numpy scalars;
    # converting a slice at a time keeps the lists small
    examined = 0
    for start in range(0, rows.shape[0], 1024):
        stop = start + 1024
        examined += _fingerprint_loop(rows[start:stop].tolist(), n,
                                      admissible_mask, cap, out[start:stop])
    return examined


def _fingerprint_loop(rows, n, admissible_mask, cap, out):
    fps = []
    examined = 0
    for row in rows:
        k = max(row) + 1
        if not admissible_mask >> k & 1:
            fps.append((k, 0, 0, 0, 0, 0))
            continue
        examined += 1
        els = closure(block_masks(row, k), n, cap)
        if els is None:
            fps.append((k, cap + 1, 0, 0, 0, 0))
        elif len(els) != cap:
            fps.append((k, len(els), 0, 0, 0, 0))
        else:
            fps.append((k, cap) + _invariants(els, n))
    if fps:
        out[:] = fps
    return examined


def _invariants(els, n):
    """Empty relation, zero, idempotent count and identity of a closure."""
    zero = len(els) >= 2 and any(
        all(compose_mask(z, x, n) == z == compose_mask(x, z, n) for x in els)
        for z in els)
    identity = any(
        all(compose_mask(e, x, n) == x == compose_mask(x, e, n) for x in els)
        for e in els)
    idempotents = sum(compose_mask(e, e, n) == e for e in els)
    return int(0 in els), int(zero), idempotents, int(identity)


def fingerprint_matches(fp, target_size, need_empty, target_idem,
                        target_has_identity):
    """Rows of a fingerprint array whose invariants fit the target table.

    A zero in the closure rules out a zero-free target; a target with a
    zero needs the empty relation in the closure.
    """
    return ((fp[:, FP_SIZE] == target_size)
            & (fp[:, FP_EMPTY] == need_empty)
            & ((fp[:, FP_ZERO] == 0) | (need_empty == 1))
            & (fp[:, FP_IDEMPOTENTS] == target_idem)
            & (fp[:, FP_IDENTITY] == target_has_identity))


def scan_candidates(rows, n, admissible_mask, target_size, need_empty,
                    target_idem, target_has_identity, flags):
    """Filter partitions of the n*n pair set as representation candidates.

    The rows are fingerprinted with ``cap = target_size`` (see
    ``fingerprint_rows``) and compared with the target's invariants.
    ``flags[r]`` is set to 0 (skipped), 1 (examined, rejected) or
    2 (survivor, worth an exact isomorphism check).  Returns the number of
    rows examined.
    """
    fp = np.empty((rows.shape[0], FP_WIDTH), dtype=np.int32)
    examined = fingerprint_rows(rows, n, admissible_mask, target_size, fp)
    flags[:] = fp[:, FP_SIZE] > 0
    flags[fingerprint_matches(fp, target_size, need_empty, target_idem,
                              target_has_identity)] = 2
    return examined
