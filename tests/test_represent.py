"""Representation witnesses: constructions, bounded search, verification."""

import sys
import threading

import pytest

from relsem import _accel
from relsem.errors import GuardExceededError
from relsem.generation import from_partition, generate
from relsem.partitions import Partition, ProductKind
from relsem.relations import BinaryRelation, GroundSet
from relsem.represent import (admissible_generator_counts, clear_catalogues,
                              count_candidates, represent_left_zero, represent_member,
                              represent_right_zero, search_d_transitive,
                              verify_witness)
from relsem.semigroups import (AbstractSemigroup, cyclic_group,
                               group_with_zero, left_zero_semigroup,
                               null_band, right_zero_semigroup)


def closure_table(k, kind):
    return from_partition(Partition.finest(GroundSet(k)), kind).to_abstract()


def diag_offdiag_monoid(n):
    g = GroundSet(n)
    off = BinaryRelation.from_pairs(
        g, [(x, y) for x in range(n) for y in range(n) if x != y])
    return generate([BinaryRelation.diagonal(g), off]).to_abstract()


# -- admissible generator counts --------------------------------------------------

def test_admissible_counts():
    assert admissible_generator_counts(cyclic_group(2)) == (1, 2)
    assert admissible_generator_counts(AbstractSemigroup(["e"], [[0]])) == (1,)
    # a right-zero semigroup only generates itself
    assert admissible_generator_counts(right_zero_semigroup(3)) == (3,)
    # the zero of a group with zero is unreachable from nonzero elements
    assert admissible_generator_counts(group_with_zero(3)) == ()
    # the flat band needs all nonzero idempotents
    assert admissible_generator_counts(null_band(4)) == (3,)
    h = closure_table(2, ProductKind.PLAIN)
    assert admissible_generator_counts(h) == (2, 3, 4)


def test_count_candidates():
    # Stirling numbers: S(4,2)=7, S(9,2)=255, S(16,2)=32767
    assert count_candidates(4, (2,)) == 7 + 255 + 32767
    assert count_candidates(3, (3,)) == 6 + 3025
    assert count_candidates(1, (1,)) == 1


# -- constructions ------------------------------------------------------------------

def test_right_zero_witness():
    for m in (1, 2, 3):
        h = right_zero_semigroup(m)
        w = represent_right_zero(h)
        assert w.ground.size == m
        assert w.blocks.block_count == m
        for b in range(m):
            rel = w.blocks.block_relation(b)
            assert rel.pairs() == tuple((x, b) for x in range(m))
        assert verify_witness(h, w)


def test_left_zero_witness():
    h = left_zero_semigroup(2)
    w = represent_left_zero(h)
    assert [w.blocks.block_relation(b).pairs() for b in range(2)] == \
        [((0, 0), (0, 1)), ((1, 0), (1, 1))]
    assert verify_witness(h, w)


def test_one_sided_rejects_other_shape():
    with pytest.raises(ValueError):
        represent_right_zero(left_zero_semigroup(2))
    with pytest.raises(ValueError):
        represent_left_zero(cyclic_group(2))


def test_member_witnesses():
    cases = [
        (closure_table(2, ProductKind.PLAIN), ProductKind.PLAIN, 2, 4),
        (closure_table(2, ProductKind.SYM), ProductKind.SYM, 2, 3),
        (closure_table(2, ProductKind.UNIT), ProductKind.UNIT, 2, 3),
        (closure_table(3, ProductKind.SYM_UNIT), ProductKind.SYM_UNIT, 3, 4),
    ]
    for h, kind, ground, blocks in cases:
        w = represent_member(h, kind)
        assert w.ground.size == ground
        assert w.blocks.block_count == blocks
        assert verify_witness(h, w)


def test_sym_member_witness_blocks_for_two_blocks():
    # squares and the symmetrized off-diagonal rectangle
    h = closure_table(2, ProductKind.SYM)
    w = represent_member(h, ProductKind.SYM)
    rels = {frozenset(w.blocks.block_relation(b).pairs())
            for b in range(w.blocks.block_count)}
    assert rels == {frozenset({(0, 0)}), frozenset({(1, 1)}),
                    frozenset({(0, 1), (1, 0)})}


def test_witness_iso_sends_zero_to_empty():
    h = closure_table(2, ProductKind.PLAIN)
    w = represent_member(h, ProductKind.PLAIN)
    zero = h.zero()
    assert w.closure.elements[w.iso[zero]].is_empty()


# -- verify_witness ------------------------------------------------------------------

def test_verify_witness_rejects_corruption():
    h = cyclic_group(2)
    report = search_d_transitive(h, max_ground=2)
    w = report.witness
    assert verify_witness(h, w)
    # swap the isomorphism: no longer a homomorphism
    bad_iso = (w.iso[1], w.iso[0])
    from relsem.represent import DTransitiveWitness

    bad = DTransitiveWitness(w.ground, w.blocks, w.closure, bad_iso,
                             w.generator_map)
    assert not verify_witness(h, bad)
    # witness for the wrong semigroup
    assert not verify_witness(right_zero_semigroup(2), w)


# -- search --------------------------------------------------------------------------

def test_search_two_element_group():
    report = search_d_transitive(cyclic_group(2), max_ground=2)
    assert report.found
    w = report.witness
    assert w.ground.size == 2
    assert sorted(tuple(w.blocks.block_relation(b).pairs())
                  for b in range(2)) == \
        [((0, 0), (1, 1)), ((0, 1), (1, 0))]
    assert report.bounds.block_counts == (1, 2)
    assert report.candidates_examined == 8


def test_search_rediscovers_one_sided_zero():
    for m in (2, 3):
        for build in (right_zero_semigroup, left_zero_semigroup):
            h = build(m)
            report = search_d_transitive(h, max_ground=m)
            assert report.found
            assert report.witness.ground.size == m
            assert verify_witness(h, report.witness)


def test_search_exhausts_diag_offdiag_monoid():
    h = diag_offdiag_monoid(3)
    assert h.size == 3
    report = search_d_transitive(h, max_ground=4)
    assert not report.found
    assert report.bounds.block_counts == (2,)
    assert report.candidates_examined == 7 + 255 + 32767


def test_search_exhausts_group_with_zero():
    report = search_d_transitive(group_with_zero(3), max_ground=3)
    assert not report.found
    assert report.candidates_examined == 0
    assert report.bounds.block_counts == ()


def test_search_exhausts_null_band():
    report = search_d_transitive(null_band(4), max_ground=3)
    assert not report.found
    assert report.candidates_examined == 6 + 3025


def test_search_handles_wide_block_counts():
    # eight admissible generators push the block-count mask past one byte
    report = search_d_transitive(null_band(9), max_ground=3)
    assert not report.found
    assert report.bounds.block_counts == (8,)
    assert report.candidates_examined == 36  # S(9,8)


def test_search_single_element():
    report = search_d_transitive(AbstractSemigroup(["e"], [[0]]), max_ground=1)
    assert report.found
    assert report.witness.ground.size == 1


def test_search_finds_class_members():
    h = closure_table(2, ProductKind.PLAIN)
    report = search_d_transitive(h, max_ground=2)
    assert report.found
    assert report.witness.ground.size == 2
    assert verify_witness(h, report.witness)


def test_search_guards():
    with pytest.raises(GuardExceededError):
        search_d_transitive(cyclic_group(2), max_ground=4, max_candidates=10)
    big = right_zero_semigroup(17)
    with pytest.raises(GuardExceededError):
        search_d_transitive(big, max_ground=2)
    # explicit block counts bypass the subset scan
    report = search_d_transitive(big, max_ground=2, block_counts=[17])
    assert not report.found


def test_search_explicit_blocks_restrict():
    # with only the wrong block count allowed, the group is missed
    report = search_d_transitive(cyclic_group(2), max_ground=2,
                                 block_counts=[3])
    assert not report.found
    assert report.candidates_examined == 6  # S(4,3)


def test_search_agrees_with_naive_oracle_beyond_the_small_corpus():
    # spot checks on semigroups larger than the exhaustive order-4 corpus
    from naive_oracle import naive_search
    from relsem.fixtures import seven_element_absorbing_union
    from relsem.semigroups import band_union_with_core

    cases = [
        closure_table(2, ProductKind.PLAIN),       # found at n=2
        closure_table(2, ProductKind.UNIT),        # found at n=2
        closure_table(2, ProductKind.SYM),         # found at n=2
        null_band(5),
        null_band(6),
        seven_element_absorbing_union(),
        band_union_with_core(closure_table(2, ProductKind.PLAIN),
                             [cyclic_group(2)]),
    ]
    for h in cases:
        report = search_d_transitive(h, max_ground=2)
        expected = naive_search([list(row) for row in h.table], 2)
        assert report.found == (expected is not None), h.names
        if report.found:
            got = (report.witness.ground.size,
                   report.witness.blocks.base.assignment)
            assert got == (expected[0], tuple(expected[1]))
    # the three class closures really are found
    assert search_d_transitive(closure_table(2, ProductKind.SYM),
                               max_ground=2).found


# -- the shared candidate catalogue ------------------------------------------------

def _outcome(report):
    w = report.witness
    return (None if w is None else (w.ground.size, w.blocks.base.assignment),
            report.candidates_examined, report.confirmations)


def test_warm_search_sweeps_nothing_and_reports_the_same():
    clear_catalogues()
    for h in (cyclic_group(2), null_band(4)):
        cold = search_d_transitive(h, max_ground=3)
        warm = search_d_transitive(h, max_ground=3)
        assert cold.rows_swept > 0
        assert warm.rows_swept == 0
        assert _outcome(cold) == _outcome(warm)
    # the group is confirmed by the first survivor; the null band has none
    assert _outcome(warm) == (None, 6 + 3025, 0)
    assert search_d_transitive(cyclic_group(2), max_ground=3).confirmations == 1


def test_search_sweeps_the_stream_only_up_to_the_witness(monkeypatch):
    # the left-zero witness 0011 is the fourth of the eight two-block rows
    # at n = 2, so with two rows per batch only two batches are swept
    opened = []
    fingerprinted = []
    rgs_batches = _accel.rgs_batches
    fingerprint_rows = _accel.fingerprint_rows

    def spy_rgs(m, maxk, batch_size):
        opened.append(m)
        return rgs_batches(m, maxk, batch_size)

    def spy_fingerprint(rows, *args):
        fingerprinted.append(rows.shape[0])
        return fingerprint_rows(rows, *args)

    monkeypatch.setattr(_accel, "rgs_batches", spy_rgs)
    monkeypatch.setattr(_accel, "fingerprint_rows", spy_fingerprint)
    clear_catalogues()
    report = search_d_transitive(left_zero_semigroup(2), max_ground=3,
                                 batch_size=2)
    assert report.witness.blocks.base.assignment == (0, 0, 1, 1)
    assert report.candidates_examined == 3
    assert opened == [4]
    assert fingerprinted == [2, 2]
    assert report.rows_swept == 4
    # a target with the same key resumes the stream where the witness left it
    report = search_d_transitive(right_zero_semigroup(2), max_ground=2)
    assert report.witness.blocks.base.assignment == (0, 1, 0, 1)
    assert report.candidates_examined == 5
    assert fingerprinted == [2, 2, 2]
    assert report.rows_swept == 2
    clear_catalogues()


def test_failed_sweep_is_never_resumed(monkeypatch):
    fingerprint_rows = _accel.fingerprint_rows

    def failing(*args):
        raise MemoryError

    clear_catalogues()
    monkeypatch.setattr(_accel, "fingerprint_rows", failing)
    with pytest.raises(MemoryError):
        search_d_transitive(cyclic_group(2), max_ground=2)
    monkeypatch.setattr(_accel, "fingerprint_rows", fingerprint_rows)
    # the batch the failed sweep drew is not lost: the sweep starts afresh
    report = search_d_transitive(cyclic_group(2), max_ground=2)
    assert report.found
    assert report.candidates_examined == 8
    assert report.rows_swept == 1 + 8


def test_concurrent_searches_sweep_each_row_once():
    targets = [cyclic_group(2), left_zero_semigroup(2),
               right_zero_semigroup(2), null_band(4), null_band(3),
               closure_table(2, ProductKind.SYM)]
    clear_catalogues()
    serial = []
    serial_swept = 0
    for h in targets:
        report = search_d_transitive(h, max_ground=3, batch_size=64)
        serial.append(_outcome(report))
        serial_swept += report.rows_swept
    clear_catalogues()
    results = {}
    swept = []

    def worker(w):
        for i in range(len(targets)):
            i = (i + w) % len(targets)
            report = search_d_transitive(targets[i], max_ground=3,
                                         batch_size=64)
            results[w, i] = _outcome(report)
            swept.append(report.rows_swept)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 * len(targets)
    for (w, i), outcome in results.items():
        assert outcome == serial[i]
    # every row is fingerprinted by exactly one thread
    assert sum(swept) == serial_swept
    clear_catalogues()
