"""Low-level scan kernels, optionally compiled with numba.

The hot loops of the package (closure filtering during representation
search, restricted-growth-string enumeration, and the batched label
comparisons behind the smallest-partition oracle) operate on plain numpy
arrays.  Relations over a ground set of size n (n <= 7) are packed into a
single int64: the bit for pair (x, y) sits at position x*n + y.

Every kernel exists in two flavours:

* a ``*_py`` reference implementation in plain Python / vectorized numpy,
* a numba ``@njit`` compilation of the same code where that pays off.

``scan_candidates`` is ``fingerprint_rows`` followed by a vectorized
comparison, so both flavours share it.

The active flavour is chosen once at import time.  Set the environment
variable ``RELSEM_NO_NUMBA=1`` to force the fallback path (the benchmark
in ``benchmarks/bench_kernels.py`` compares both in one process).
"""

from __future__ import annotations

import os

import numpy as np

#: Largest ground size the packed int64 representation supports (49 bits).
MAX_PACKED_GROUND = 7

_DISABLE = os.environ.get("RELSEM_NO_NUMBA", "").strip().lower() in ("1", "true", "yes")

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    njit = None
    HAS_NUMBA = False

NUMBA_ENABLED = HAS_NUMBA and not _DISABLE


def backend() -> str:
    return "numba" if NUMBA_ENABLED else "python"


# ---------------------------------------------------------------------------
# packed-relation composition
# ---------------------------------------------------------------------------

def compose_mask_py(a, b, n):
    """Compose two packed relations: bit (x, y) set iff some z links them."""
    rowmask = (1 << n) - 1
    res = 0
    for i in range(n):
        arow = (a >> (i * n)) & rowmask
        if arow == 0:
            continue
        orow = 0
        j = 0
        while arow:
            if arow & 1:
                orow |= (b >> (j * n)) & rowmask
            arow >>= 1
            j += 1
        res |= orow << (i * n)
    return res


# ---------------------------------------------------------------------------
# restricted growth strings
# ---------------------------------------------------------------------------

def rgs_fill_py(a, b, maxk, out):
    """Write successive restricted growth strings into ``out``.

    ``a`` is the next string to emit and ``b[i]`` caches max(a[:i]); both are
    updated in place.  Returns ``(count, done)`` where ``done`` signals that
    the emitted rows exhausted the stream.
    """
    batch = out.shape[0]
    m = a.shape[0]
    count = 0
    done = False
    while count < batch:
        for j in range(m):
            out[count, j] = a[j]
        count += 1
        advanced = False
        for i in range(m - 1, 0, -1):
            cap = b[i] + 1
            if cap > maxk - 1:
                cap = maxk - 1
            if a[i] < cap:
                a[i] += 1
                cur = b[i]
                if a[i] > cur:
                    cur = a[i]
                for j in range(i + 1, m):
                    a[j] = 0
                    b[j] = cur
                advanced = True
                break
        if not advanced:
            done = True
            break
    return count, done


# ---------------------------------------------------------------------------
# batched label comparisons (smallest-partition oracle)
# ---------------------------------------------------------------------------

def equal_on_pairs_py(rows, i0, i1):
    """For each row, test whether row[i0[t]] == row[i1[t]] for every t."""
    if i0.shape[0] == 0:
        return np.ones(rows.shape[0], dtype=np.bool_)
    return (rows[:, i0] == rows[:, i1]).all(axis=1)


def _equal_on_pairs_loop(rows, i0, i1, out):
    npairs = i0.shape[0]
    for r in range(rows.shape[0]):
        ok = True
        for t in range(npairs):
            if rows[r, i0[t]] != rows[r, i1[t]]:
                ok = False
                break
        out[r] = ok
    return out


# ---------------------------------------------------------------------------
# closure fingerprints for the d-transitive representation search
# ---------------------------------------------------------------------------

#: Columns of a fingerprint row written by ``fingerprint_rows``.
FP_BLOCKS, FP_SIZE, FP_EMPTY, FP_ZERO, FP_IDEMPOTENTS, FP_IDENTITY = range(6)
FP_WIDTH = 6


def fingerprint_rows_py(rows, n, admissible_mask, cap, out):
    """Closure fingerprints of partitions of the n*n pair set.

    Each row of ``rows`` is a partition of the pair indices in restricted
    growth form.  ``out[r, FP_BLOCKS]`` receives its block count k.  A row
    whose k has bit k set in ``admissible_mask`` is examined: its blocks
    are packed into int64 relations and the closure under composition is
    generated, aborting past ``cap`` elements.  ``out[r, FP_SIZE]`` is the
    closure size, ``cap + 1`` past the cap, and 0 for rows not examined.
    Only for closures of exactly ``cap`` elements are the isomorphism
    invariants written: the empty relation, a zero (reported for two or
    more elements only), the idempotent count and an identity; elsewhere
    those columns are 0.  Returns the number of rows examined.
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
    m2 = n * n
    masks = [0] * (m2 + 1)
    els = [0] * (cap + 1)
    examined = 0
    for r in range(len(rows)):
        row = rows[r]
        k = 0
        for idx in range(m2):
            v = int(row[idx]) + 1
            if v > k:
                k = v
        out[r, FP_BLOCKS] = k
        for c in range(FP_SIZE, FP_WIDTH):
            out[r, c] = 0
        if ((admissible_mask >> k) & 1) == 0:
            continue
        examined += 1
        out[r, FP_SIZE] = cap + 1
        if k > cap:
            continue
        for bk in range(k):
            masks[bk] = 0
        for idx in range(m2):
            masks[row[idx]] |= 1 << idx
        # closure under two-sided composition with the generators
        cnt = 0
        for bk in range(k):
            els[cnt] = masks[bk]
            cnt += 1
        ok = True
        level_start = 0
        while level_start < cnt and ok:
            level_end = cnt
            for ei in range(level_start, level_end):
                e = els[ei]
                for bk in range(k):
                    g = masks[bk]
                    for side in range(2):
                        if side == 0:
                            p = compose_mask(e, g, n)
                        else:
                            p = compose_mask(g, e, n)
                        seen = False
                        for ci in range(cnt):
                            if els[ci] == p:
                                seen = True
                                break
                        if not seen:
                            if cnt >= cap:
                                ok = False
                                break
                            els[cnt] = p
                            cnt += 1
                    if not ok:
                        break
                if not ok:
                    break
            level_start = level_end
        if not ok:
            continue
        out[r, FP_SIZE] = cnt
        if cnt != cap:
            continue
        # isomorphism invariants
        for ci in range(cnt):
            if els[ci] == 0:
                out[r, FP_EMPTY] = 1
                break
        if cnt >= 2:
            for ci in range(cnt):
                z = els[ci]
                is_zero = True
                for xi in range(cnt):
                    x = els[xi]
                    if compose_mask(z, x, n) != z or compose_mask(x, z, n) != z:
                        is_zero = False
                        break
                if is_zero:
                    out[r, FP_ZERO] = 1
                    break
        idem = 0
        for ci in range(cnt):
            if compose_mask(els[ci], els[ci], n) == els[ci]:
                idem += 1
        out[r, FP_IDEMPOTENTS] = idem
        if cnt == 1:
            out[r, FP_IDENTITY] = 1
        else:
            for ci in range(cnt):
                e = els[ci]
                is_id = True
                for xi in range(cnt):
                    x = els[xi]
                    if compose_mask(e, x, n) != x or compose_mask(x, e, n) != x:
                        is_id = False
                        break
                if is_id:
                    out[r, FP_IDENTITY] = 1
                    break
    return examined


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


def _scan_candidates(fingerprint, rows, n, admissible_mask, target_size,
                     need_empty, target_idem, target_has_identity, flags):
    fp = np.empty((rows.shape[0], FP_WIDTH), dtype=np.int32)
    examined = fingerprint(rows, n, admissible_mask, target_size, fp)
    flags[:] = fp[:, FP_SIZE] > 0
    flags[fingerprint_matches(fp, target_size, need_empty, target_idem,
                              target_has_identity)] = 2
    return examined


def scan_candidates_py(rows, n, admissible_mask, target_size, need_empty,
                       target_idem, target_has_identity, flags):
    """Filter partitions of the n*n pair set as representation candidates.

    The rows are fingerprinted with ``cap = target_size`` (see
    ``fingerprint_rows_py``) and compared with the target's invariants.
    ``flags[r]`` is set to 0 (skipped), 1 (examined, rejected) or
    2 (survivor, worth an exact isomorphism check).  Returns the number of
    rows examined.
    """
    return _scan_candidates(fingerprint_rows_py, rows, n, admissible_mask,
                            target_size, need_empty, target_idem,
                            target_has_identity, flags)


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    compose_mask = njit(cache=True)(compose_mask_py)
    rgs_fill = njit(cache=True)(rgs_fill_py)
    _equal_on_pairs_impl = njit(cache=True)(_equal_on_pairs_loop)
    # _fingerprint_loop calls compose_mask through the module global, which
    # now resolves to the jitted version at compile time
    fingerprint_rows = njit(cache=True)(_fingerprint_loop)

    def equal_on_pairs(rows, i0, i1):
        out = np.empty(rows.shape[0], dtype=np.bool_)
        return _equal_on_pairs_impl(rows, i0, i1, out)
else:
    compose_mask = compose_mask_py
    rgs_fill = rgs_fill_py
    fingerprint_rows = fingerprint_rows_py
    equal_on_pairs = equal_on_pairs_py


def scan_candidates(rows, n, admissible_mask, target_size, need_empty,
                    target_idem, target_has_identity, flags):
    """``scan_candidates_py`` on the active ``fingerprint_rows`` flavour."""
    return _scan_candidates(fingerprint_rows, rows, n, admissible_mask,
                            target_size, need_empty, target_idem,
                            target_has_identity, flags)


def rgs_batches(m, maxk, batch_size=65536):
    """Yield numpy batches of all restricted growth strings of length m.

    Strings use at most ``maxk`` block labels and appear in lexicographic
    order, each exactly once.  Every yielded array is freshly allocated.
    """
    if m < 1:
        raise ValueError("length must be >= 1")
    if maxk < 1:
        raise ValueError("maxk must be >= 1")
    a = np.zeros(m, dtype=np.uint8)
    b = np.zeros(m, dtype=np.uint8)
    done = False
    while not done:
        out = np.empty((batch_size, m), dtype=np.uint8)
        count, done = rgs_fill(a, b, maxk, out)
        yield out[:count]
