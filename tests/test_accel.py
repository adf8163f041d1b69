"""Kernel-level checks: both backends must agree with naive references."""

import math
import random

import numpy as np
import pytest

from relsem import _accel
from relsem.naive import closure_pairs, compose_pairs


def bell(n):
    b = [1]
    for _ in range(n):
        row = [b[-1]]
        for v in b:
            row.append(row[-1] + v)
        b = row
    return b[0]


def stirling2(n, k):
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n
               for i in range(k + 1)) // math.factorial(k)


def all_rgs(m, maxk):
    rows = []
    for batch in _accel.rgs_batches(m, maxk, batch_size=1000):
        rows.extend(tuple(int(v) for v in row) for row in batch)
    return rows


def test_rgs_counts_match_bell_and_stirling():
    for m in range(1, 8):
        rows = all_rgs(m, m)
        assert len(rows) == bell(m)
        for maxk in range(1, m + 1):
            expected = sum(stirling2(m, k) for k in range(1, maxk + 1))
            assert len(all_rgs(m, maxk)) == expected


def test_rgs_rows_are_valid_sorted_and_unique():
    rows = all_rgs(5, 3)
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    for row in rows:
        assert row[0] == 0
        for i in range(1, len(row)):
            assert row[i] <= max(row[:i]) + 1
        assert max(row) <= 2


def _mask_from_pairs(pairs, n):
    acc = 0
    for x, y in pairs:
        acc |= 1 << (x * n + y)
    return acc


def _pairs_from_mask(mask, n):
    return frozenset((idx // n, idx % n)
                     for idx in range(n * n) if mask >> idx & 1)


@pytest.mark.parametrize("backend", ["active", "python"])
def test_compose_mask_matches_pair_composition(backend):
    fn = _accel.compose_mask if backend == "active" else _accel.compose_mask_py
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        a = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(n * n + 1))]
        b = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(n * n + 1))]
        packed = fn(np.int64(_mask_from_pairs(a, n)),
                    np.int64(_mask_from_pairs(b, n)), n)
        assert _pairs_from_mask(int(packed), n) == \
            compose_pairs(frozenset(a), frozenset(b))


def test_equal_on_pairs_both_backends():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 3, size=(500, 9)).astype(np.uint8)
    i0 = np.array([0, 2, 4], dtype=np.int64)
    i1 = np.array([8, 2, 5], dtype=np.int64)
    want = (rows[:, i0] == rows[:, i1]).all(axis=1)
    assert np.array_equal(_accel.equal_on_pairs(rows, i0, i1), want)
    assert np.array_equal(_accel.equal_on_pairs_py(rows, i0, i1), want)
    empty = np.array([], dtype=np.int64)
    assert _accel.equal_on_pairs(rows, empty, empty).all()


def test_scan_candidates_python_and_active_agree():
    rows = np.concatenate(list(_accel.rgs_batches(4, 3)), axis=0)
    flags_a = np.empty(rows.shape[0], dtype=np.uint8)
    flags_b = np.empty(rows.shape[0], dtype=np.uint8)
    args = (2, (1 << 1) | (1 << 2), 2, 0, 1, 1)
    examined_a = _accel.scan_candidates(rows, *args[:1], *args[1:], flags_a)
    examined_b = _accel.scan_candidates_py(rows, *args[:1], *args[1:], flags_b)
    assert examined_a == examined_b
    assert np.array_equal(flags_a, flags_b)
    # the two-element group lives at the diagonal/off-diagonal split
    rgs = ["".join(map(str, row)) for row in rows]
    assert flags_a[rgs.index("0110")] == 2


def test_scan_candidates_agreement_with_wide_block_counts():
    # block counts past 7 put the admissible mask beyond one byte; both
    # backends must still agree over every partition of the 3x3 pair set
    rows = np.concatenate(list(_accel.rgs_batches(9, 9)), axis=0)
    admissible = 0
    for k in range(1, 10):
        admissible |= 1 << k
    for size, empty, idem, ident in ((5, 1, 3, 0), (3, 0, 3, 0),
                                     (2, 0, 1, 1)):
        fa = np.empty(rows.shape[0], dtype=np.uint8)
        fb = np.empty(rows.shape[0], dtype=np.uint8)
        ea = _accel.scan_candidates(rows, 3, admissible, size, empty, idem,
                                    ident, fa)
        eb = _accel.scan_candidates_py(rows, 3, admissible, size, empty,
                                       idem, ident, fb)
        assert ea == eb == rows.shape[0]
        assert np.array_equal(fa, fb)



def _naive_fingerprint(row, n, cap):
    """The fingerprint of one partition row, on frozensets of pairs."""
    blocks = [frozenset((idx // n, idx % n) for idx, b in enumerate(row)
                        if b == blk) for blk in range(max(row) + 1)]
    closed = closure_pairs(blocks, cap=cap)
    if closed is None:
        return [len(blocks), cap + 1, 0, 0, 0, 0]
    elements, table = closed
    m = len(elements)
    if m != cap:
        return [len(blocks), m, 0, 0, 0, 0]
    span = range(m)
    zero = m >= 2 and any(all(table[z][x] == z == table[x][z] for x in span)
                          for z in span)
    identity = any(all(table[e][x] == x == table[x][e] for x in span)
                   for e in span)
    return [len(blocks), m, int(frozenset() in elements), int(zero),
            sum(table[i][i] == i for i in span), int(identity)]


@pytest.mark.parametrize("backend", ["active", "python"])
def test_fingerprint_rows_match_naive_closure(backend):
    fn = _accel.fingerprint_rows if backend == "active" else \
        _accel.fingerprint_rows_py
    rng = random.Random(5)
    samples = [(n, all_rgs(n * n, n * n)) for n in (1, 2)]
    samples.append((3, rng.sample(all_rgs(9, 9), 200)))
    out = np.empty((1, _accel.FP_WIDTH), dtype=np.int32)
    for n, rows in samples:
        every_count = sum(1 << k for k in range(1, n * n + 1))
        for row in rows:
            arr = np.array([row], dtype=np.uint8)
            closed = closure_pairs(
                [frozenset((idx // n, idx % n) for idx, b in enumerate(row)
                           if b == blk) for blk in range(max(row) + 1)],
                cap=40)
            size = 41 if closed is None else len(closed[0])
            # at the closure's size, one below it, and the largest cap used
            for cap in {min(size, 40), max(size - 1, 1), 40}:
                assert fn(arr, n, every_count, cap, out) == 1
                assert out[0].tolist() == _naive_fingerprint(row, n, cap), \
                    (row, cap)
            k = max(row) + 1
            assert fn(arr, n, every_count & ~(1 << k), 40, out) == 0
            assert out[0].tolist() == [k, 0, 0, 0, 0, 0]
