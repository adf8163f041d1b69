"""Closure generation: sizes, determinism, abstract tables."""

import random

import pytest

from naive_oracle import _subset_generates
from relsem.errors import ClosureOverflowError, GroundMismatchError
from relsem.generation import from_partition, generate
from relsem.naive import closure_pairs
from relsem.partitions import (Partition, ProductKind, enumerate_partitions,
                               product, to_equivalence)
from relsem.relations import BinaryRelation, GroundSet
from relsem.semigroups import cyclic_group, find_isomorphism


def offdiagonal(n):
    return BinaryRelation.from_pairs(
        GroundSet(n), [(x, y) for x in range(n) for y in range(n) if x != y])


def singleton(n):
    return Partition.finest(GroundSet(n))


def test_generate_diag_offdiag_three_points():
    g = GroundSet(3)
    gsem = generate([BinaryRelation.diagonal(g), offdiagonal(3)])
    assert len(gsem) == 3
    assert set(gsem.elements) == {BinaryRelation.diagonal(g), offdiagonal(3),
                                  BinaryRelation.full(g)}


def test_generate_diag_offdiag_two_points_is_group():
    g = GroundSet(2)
    gsem = generate([BinaryRelation.diagonal(g), offdiagonal(2)])
    assert len(gsem) == 2
    assert find_isomorphism(gsem.to_abstract(), cyclic_group(2)) is not None


def test_generate_errors():
    with pytest.raises(ValueError):
        generate([])
    with pytest.raises(GroundMismatchError):
        generate([BinaryRelation.diagonal(GroundSet(2)),
                  BinaryRelation.diagonal(GroundSet(3))])


def test_generate_element_cap():
    g = GroundSet(3)
    with pytest.raises(ClosureOverflowError):
        generate([BinaryRelation.diagonal(g), offdiagonal(3)], max_elements=2)
    # the cap binds the generators too, even when they already close
    two = GroundSet(2)
    idempotents = [BinaryRelation.diagonal(two), BinaryRelation.full(two),
                   BinaryRelation.empty(two)]
    assert len(generate(idempotents, max_elements=3)) == 3
    with pytest.raises(ClosureOverflowError):
        generate(idempotents, max_elements=2)


def test_closure_sizes():
    # closure sizes as functions of the block count
    for k in range(2, 6):
        p = singleton(k)
        assert len(from_partition(p, ProductKind.PLAIN)) == k * k + 1
        assert len(from_partition(p, ProductKind.UNIT)) == k * k + 2
        assert len(from_partition(p, ProductKind.SYM)) == 2 * k * k - k + 1
        expected_su = 2 if k == 2 else 2 * k * k - k + 2
        assert len(from_partition(p, ProductKind.SYM_UNIT)) == expected_su
    one = Partition.coarsest(GroundSet(3))
    for kind in ProductKind:
        assert len(from_partition(one, kind)) == 1


def test_closure_sizes_do_not_depend_on_block_shapes():
    # same block count over a larger ground set gives the same closure size
    for n in range(2, 6):
        for p in enumerate_partitions(n):
            if p.block_count < 2:
                continue
            k = p.block_count
            assert len(from_partition(p, ProductKind.PLAIN)) == k * k + 1


def test_sym_closure_matches_naive_pairs():
    for k in (2, 3, 4):
        labeled = product(singleton(k), ProductKind.SYM)
        blocks = [frozenset(rel.pairs()) for rel in labeled.block_relations()]
        els, _ = closure_pairs(blocks)
        gsem = from_partition(singleton(k), ProductKind.SYM)
        assert len(els) == len(gsem)
        assert set(els) == {frozenset(r.pairs()) for r in gsem.elements}


def test_plain_closure_is_blocks_plus_empty():
    for k in (2, 3):
        labeled = product(singleton(k), ProductKind.PLAIN)
        gsem = from_partition(singleton(k), ProductKind.PLAIN)
        blocks = set(labeled.block_relations())
        assert set(gsem.elements) == blocks | {BinaryRelation.empty(gsem.ground)}


def test_unit_closure_is_blocks_plus_empty_plus_equivalence():
    for k in (2, 3):
        p = singleton(k)
        labeled = product(p, ProductKind.UNIT)
        gsem = from_partition(p, ProductKind.UNIT)
        plain_blocks = set(product(p, ProductKind.PLAIN).block_relations())
        expected = plain_blocks | {BinaryRelation.empty(gsem.ground),
                                   to_equivalence(p)}
        assert set(gsem.elements) == expected


def test_idempotent_lists_of_plain_and_unit_closures():
    for k in (2, 3):
        p = singleton(k)
        ground = GroundSet(k)
        squares = {BinaryRelation.from_pairs(ground, [(j, j)]) for j in range(k)}
        plain = from_partition(p, ProductKind.PLAIN)
        ab = plain.to_abstract()
        idem = {plain.elements[i] for i in ab.idempotents()}
        assert idem == squares | {BinaryRelation.empty(ground)}
        unit = from_partition(p, ProductKind.UNIT)
        ab_u = unit.to_abstract()
        idem_u = {unit.elements[i] for i in ab_u.idempotents()}
        assert idem_u == squares | {BinaryRelation.empty(ground),
                                    to_equivalence(p)}


def test_table_matches_compose_extensionally():
    gsem = from_partition(singleton(3), ProductKind.SYM)
    for i, a in enumerate(gsem.elements):
        for j, b in enumerate(gsem.elements):
            assert gsem.elements[gsem.table[i][j]] == a.compose(b)


def test_generator_indices_and_dedup():
    g = GroundSet(2)
    d = BinaryRelation.diagonal(g)
    gsem = generate([d, offdiagonal(2), d], labels=["d", "o", "d2"])
    assert gsem.generator_indices == (0, 1, 0)
    assert gsem.labels[0] == "d"  # first label wins


def test_closure_order_deterministic_and_permutation_invariant():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 5)
        g = GroundSet(n)
        rels = []
        for _ in range(rng.randint(1, 3)):
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(0, n * n))]
            rels.append(BinaryRelation.from_pairs(g, pairs))
        base = generate(rels, max_elements=3000)
        again = generate(rels, max_elements=3000)
        assert base.elements == again.elements
        shuffled = rels[:]
        rng.shuffle(shuffled)
        other = generate(shuffled, max_elements=3000)
        assert set(other.elements) == set(base.elements)


def test_abstract_names():
    gsem = from_partition(singleton(2), ProductKind.PLAIN)
    ab = gsem.to_abstract()
    assert ab.names == ("(0,0)", "(0,1)", "(1,0)", "(1,1)", "0")
    assert ab.zero() == 4
    un = from_partition(singleton(2), ProductKind.UNIT).to_abstract()
    assert un.names[0] == "R_P"
    assert un.identity() == 0
    bare = generate([BinaryRelation.diagonal(GroundSet(2))]).to_abstract()
    assert bare.names == ("w0",)
    assert bare.identity() == 0


def test_block_preimages_generate(small_semigroup_corpus):
    # generators of the closure really do generate the abstract table
    gsem = from_partition(singleton(3), ProductKind.SYM_UNIT)
    ab = gsem.to_abstract()
    assert _subset_generates(ab.table, list(gsem.generator_indices))
