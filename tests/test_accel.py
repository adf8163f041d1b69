"""Kernel-level checks against the naive set-of-pairs references."""

import math
import random

import numpy as np
import pytest

from relsem import _accel
from relsem.naive import closure_pairs, compose_pairs
from relsem.relations import BinaryRelation, GroundSet


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


def _compose_via_relations(a, b, n):
    ground = GroundSet(n)
    return BinaryRelation.from_key(ground, a).compose(
        BinaryRelation.from_key(ground, b)).key()


# "active": the kernel on packed ints; "python": the same kernel reached
# through BinaryRelation.compose, the relation-level route
COMPOSE_ROUTES = {"active": _accel.compose_mask,
                  "python": _compose_via_relations}


@pytest.mark.parametrize("backend", ["active", "python"])
def test_compose_mask_matches_pair_composition(backend):
    fn = COMPOSE_ROUTES[backend]
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        a = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(n * n + 1))]
        b = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(n * n + 1))]
        packed = fn(_mask_from_pairs(a, n), _mask_from_pairs(b, n), n)
        assert _pairs_from_mask(packed, n) == \
            compose_pairs(frozenset(a), frozenset(b))


def test_equal_on_pairs():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 3, size=(500, 9)).astype(np.uint8)
    i0 = np.array([0, 2, 4], dtype=np.int64)
    i1 = np.array([8, 2, 5], dtype=np.int64)
    want = (rows[:, i0] == rows[:, i1]).all(axis=1)
    assert np.array_equal(_accel.equal_on_pairs(rows, i0, i1), want)
    empty = np.array([], dtype=np.int64)
    assert _accel.equal_on_pairs(rows, empty, empty).all()


def test_scan_candidates_finds_the_two_element_group():
    rows = np.concatenate(list(_accel.rgs_batches(4, 3)), axis=0)
    flags = np.empty(rows.shape[0], dtype=np.uint8)
    examined = _accel.scan_candidates(rows, 2, (1 << 1) | (1 << 2), 2, 0, 1,
                                      1, flags)
    assert examined == int(np.count_nonzero(flags))
    # the two-element group lives at the diagonal/off-diagonal split
    rgs = ["".join(map(str, row)) for row in rows]
    assert flags[rgs.index("0110")] == 2


def test_scan_candidates_agreement_with_wide_block_counts():
    # block counts past 7 put the admissible mask beyond one byte; every
    # partition of the 3x3 pair set must still be examined, and the rows
    # with 8 or 9 blocks, whose closures overflow every size here, rejected
    rows = np.concatenate(list(_accel.rgs_batches(9, 9)), axis=0)
    wide = [r for r in range(rows.shape[0]) if rows[r].max() >= 7]
    admissible = 0
    for k in range(1, 10):
        admissible |= 1 << k
    for size, empty, idem, ident in ((5, 1, 3, 0), (3, 0, 3, 0),
                                     (2, 0, 1, 1)):
        flags = np.empty(rows.shape[0], dtype=np.uint8)
        assert _accel.scan_candidates(rows, 3, admissible, size, empty, idem,
                                      ident, flags) == rows.shape[0]
        for r in wide:
            fp = _naive_fingerprint(rows[r].tolist(), 3, size)
            assert fp[1] == size + 1
            assert flags[r] == 1


def _naive_fingerprint(row, n, cap):
    """The fingerprint of one partition row, on frozensets of pairs."""
    blocks = _blocks(row, n)
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


def _fingerprint_samples():
    """All partitions of the pair set at n <= 2, a seeded sample at n = 3."""
    rng = random.Random(5)
    samples = [(n, all_rgs(n * n, n * n)) for n in (1, 2)]
    samples.append((3, rng.sample(all_rgs(9, 9), 200)))
    return samples


def _blocks(row, n):
    return [frozenset((idx // n, idx % n) for idx, b in enumerate(row)
                      if b == blk) for blk in range(max(row) + 1)]


def _fingerprint_list_rows(rows, n, admissible_mask, cap, out):
    return _accel._fingerprint_loop(rows.tolist(), n, admissible_mask, cap,
                                    out)


# "active": the batched entry point on uint8 rows; "python": the per-slice
# loop it runs, fed plain Python lists
FINGERPRINT_ROUTES = {"active": _accel.fingerprint_rows,
                      "python": _fingerprint_list_rows}


@pytest.mark.parametrize("backend", ["active", "python"])
def test_fingerprint_rows_match_naive_closure(backend):
    fn = FINGERPRINT_ROUTES[backend]
    out = np.empty((1, _accel.FP_WIDTH), dtype=np.int32)
    for n, rows in _fingerprint_samples():
        every_count = sum(1 << k for k in range(1, n * n + 1))
        for row in rows:
            arr = np.array([row], dtype=np.uint8)
            closed = closure_pairs(_blocks(row, n), cap=40)
            size = 41 if closed is None else len(closed[0])
            # at the closure's size, one below it, and the largest cap used
            for cap in {min(size, 40), max(size - 1, 1), 40}:
                assert fn(arr, n, every_count, cap, out) == 1
                assert out[0].tolist() == _naive_fingerprint(row, n, cap), \
                    (row, cap)
            k = max(row) + 1
            assert fn(arr, n, every_count & ~(1 << k), 40, out) == 0
            assert out[0].tolist() == [k, 0, 0, 0, 0, 0]


def _naive_levels(blocks):
    """Word lengths of the naive closure, as sets of pair sets."""
    levels = [set(blocks)]
    seen = set(blocks)
    while levels[-1]:
        nxt = {p for e in levels[-1] for g in blocks
               for p in (compose_pairs(e, g), compose_pairs(g, e))} - seen
        levels.append(nxt)
        seen |= nxt
    return levels[:-1]


def _closure_inputs():
    """Partition blocks of the fingerprint samples, then a generator set
    that is no partition: on two points the diagonal, the full and the
    empty relation, three generators that alone exceed a cap of two."""
    for n, rows in _fingerprint_samples():
        for row in rows:
            yield n, _blocks(row, n)
    full = frozenset((x, y) for x in range(2) for y in range(2))
    yield 2, [frozenset({(0, 0), (1, 1)}), full, frozenset()]


def test_closure_matches_naive_closure_level_by_level():
    for n, blocks in _closure_inputs():
        levels = _naive_levels(blocks)
        size = len(closure_pairs(blocks)[0])
        assert size == sum(map(len, levels))
        gens = [_mask_from_pairs(b, n) for b in blocks]
        got = _accel.closure(gens, n, size)
        assert got[:len(gens)] == gens
        start = 0
        for depth, level in enumerate(levels):
            chunk = got[start:start + len(level)]
            assert set(chunk) == {_mask_from_pairs(e, n)
                                  for e in level}, blocks
            assert depth == 0 or chunk == sorted(chunk), blocks
            start += len(level)
        assert start == len(got)
        for cap in {1, len(gens), size - 1, size + 1}:
            if cap >= 1:
                assert (_accel.closure(gens, n, cap) is None) == \
                    (size > cap), (blocks, cap)
                assert (closure_pairs(blocks, cap=cap) is None) == \
                    (size > cap), (blocks, cap)


def test_closure_deduplicates_generators_in_given_order():
    # two points: the diagonal, the full relation and a repeated diagonal
    diag, full = 0b1001, 0b1111
    assert _accel.closure([full, diag, full], 2, 2) == [full, diag]
    assert _accel.closure([full, diag, full], 2, 1) is None
    assert _accel.closure([diag], 2, 1) == [diag]
