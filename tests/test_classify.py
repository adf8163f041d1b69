"""Class membership checks, canonical models, band decompositions."""

import pytest

from relsem.classify import (canonical_model, check_product_class,
                             decompose_band_with_core)
from relsem.classify import _sym_conditions
from relsem.errors import NotInClassError
from relsem.fixtures import seven_element_absorbing_union
from relsem.generation import from_partition
from relsem.partitions import Partition, ProductKind, enumerate_partitions
from relsem.relations import GroundSet
from relsem.semigroups import (AbstractSemigroup, BandDecomposition,
                               adjoin_identity, band_union_with_core,
                               cyclic_group, find_isomorphism, group_with_zero,
                               is_ideal, null_band)


def closure_table(k, kind):
    return from_partition(Partition.finest(GroundSet(k)), kind).to_abstract()


def named(table):
    return AbstractSemigroup([f"x{i}" for i in range(len(table))], table)


# -- plain class ---------------------------------------------------------------

def test_plain_members_roundtrip():
    for n in range(2, 7):
        for p in enumerate_partitions(n, 4):
            if p.block_count < 2:
                continue
            h = from_partition(p, ProductKind.PLAIN).to_abstract()
            verdict = check_product_class(h, ProductKind.PLAIN)
            assert verdict.member
            model = verdict.model
            assert find_isomorphism(
                h, model.semigroup.to_abstract()) is not None


def test_plain_fixture_core_is_member():
    fix = seven_element_absorbing_union()
    core = fix.restrict(range(5))
    assert check_product_class(core, ProductKind.PLAIN).member


def test_plain_single_element_member():
    one = AbstractSemigroup(["e"], [[0]])
    verdict = check_product_class(one, ProductKind.PLAIN)
    assert verdict.member
    model = verdict.model
    assert len(model.semigroup) == 1
    assert model.semigroup.ground.size == 1


def test_plain_rejects_group():
    verdict = check_product_class(cyclic_group(2), ProductKind.PLAIN)
    assert not verdict.member
    assert not verdict.condition("ii1").passed  # no zero


def test_plain_rejects_flat_band():
    # zero plus two idempotents with collapsing products: no fixed element
    verdict = check_product_class(null_band(3), ProductKind.PLAIN)
    assert not verdict.member
    ii3 = verdict.condition("ii3")
    assert not ii3.passed
    assert ii3.witness == ("e1", "e2")


def test_plain_member_sizes(small_semigroup_corpus):
    # over every semigroup of order <= 4, members have size 1 or k*k+1
    sizes = set()
    for table in small_semigroup_corpus:
        h = named(table)
        if check_product_class(h, ProductKind.PLAIN).member:
            sizes.add(h.size)
    assert sizes == {1}  # 2, 3, 4 are not of the form k*k+1 with k >= 2


def test_plain_rejects_wrong_five_element():
    assert not check_product_class(cyclic_group(5), ProductKind.PLAIN).member
    assert not check_product_class(null_band(5), ProductKind.PLAIN).member


def test_equal_cardinality_members_isomorphic():
    # members of equal size are isomorphic, regardless of the base partition
    a = from_partition(Partition.from_blocks(GroundSet(4), [[0, 1], [2, 3]]),
                       ProductKind.PLAIN).to_abstract()
    b = closure_table(2, ProductKind.PLAIN)
    assert a.size == b.size == 5
    assert find_isomorphism(a, b) is not None
    c = from_partition(Partition.from_blocks(GroundSet(5), [[0], [1, 4], [2, 3]]),
                       ProductKind.PLAIN).to_abstract()
    d = closure_table(3, ProductKind.PLAIN)
    assert c.size == d.size == 10
    assert find_isomorphism(c, d) is not None


def test_members_have_no_identity_and_commutative_idempotents():
    for k in (2, 3, 4):
        h = closure_table(k, ProductKind.PLAIN)
        assert h.identity() is None
        idem = h.idempotents()
        for x in idem:
            for y in idem:
                p = h.table[x][y]
                assert p == h.table[y][x]
                assert h.is_idempotent(p)


def test_canonical_model_ground_sizes():
    for k in (2, 3):
        h = closure_table(k, ProductKind.PLAIN)
        model = canonical_model(h, ProductKind.PLAIN)
        assert model.semigroup.ground.size == k
        assert len(model.semigroup) == k * k + 1
    with pytest.raises(NotInClassError):
        canonical_model(cyclic_group(2), ProductKind.PLAIN)


# -- band decomposition ----------------------------------------------------------

def test_decompose_sym_closures():
    h2 = closure_table(2, ProductKind.SYM)
    dec = decompose_band_with_core(h2)
    assert dec is not None
    assert len(dec.core) == 5 and len(dec.groups) == 1
    h3 = closure_table(3, ProductKind.SYM)
    dec = decompose_band_with_core(h3)
    assert len(dec.core) == 10 and len(dec.groups) == 3
    assert h3.size == 10 + 3 * 2


def test_decompose_none_for_plain_members():
    for k in (2, 3):
        assert decompose_band_with_core(closure_table(k, ProductKind.PLAIN)) \
            is None


def test_decompose_fixture():
    fix = seven_element_absorbing_union()
    dec = decompose_band_with_core(fix)
    assert dec == BandDecomposition((0, 1, 2, 3, 4), ((5, 6),))


def _valid_splits(h):
    """Every (core, forced pairing) split satisfying all band conditions.

    Independent of the deterministic candidate: cores are enumerated as
    arbitrary ideal subsets, the complement pairing is forced by squaring,
    and the five conditions are evaluated on each split that is a genuine
    band of subsemigroups with core.
    """
    m = h.size
    idem = set(h.idempotents())
    found = []
    for mask in range(1, 1 << m):
        core = [i for i in range(m) if mask >> i & 1]
        rest = [i for i in range(m) if not mask >> i & 1]
        if not rest or not is_ideal(h, core):
            continue
        pairs = []
        ok = True
        unmatched = set(rest)
        for g in rest:
            if g in idem:
                continue
            sq = h.table[g][g]
            pair = tuple(sorted((g, sq)))
            if sq in idem and sq in unmatched and pair not in pairs:
                pairs.append(pair)
        for pair in pairs:
            for el in pair:
                if el not in unmatched:
                    ok = False
                unmatched.discard(el)
        if not ok or unmatched:
            continue
        # group blocks must be closed, cross products must land in the core
        for pair in pairs:
            for x in pair:
                for y in pair:
                    if h.table[x][y] not in pair:
                        ok = False
        core_set = set(core)
        for p1 in pairs:
            for p2 in pairs:
                if p1 is p2:
                    continue
                for x in p1:
                    for y in p2:
                        if h.table[x][y] not in core_set:
                            ok = False
        if not ok:
            continue
        dec = BandDecomposition(tuple(core), tuple(sorted(pairs)))
        reports, _ = _sym_conditions(h, dec)
        if all(r.passed for r in reports):
            found.append(dec)
    return found


def test_decompose_agrees_with_exhaustive_split_search(small_semigroup_corpus):
    corpus = [named(t) for t in small_semigroup_corpus]
    corpus += [closure_table(2, ProductKind.SYM),
               closure_table(2, ProductKind.PLAIN),
               closure_table(2, ProductKind.UNIT),
               seven_element_absorbing_union(),
               band_union_with_core(closure_table(2, ProductKind.PLAIN),
                                    [cyclic_group(2)]),
               null_band(5), group_with_zero(4)]
    for h in corpus:
        member = check_product_class(h, ProductKind.SYM).member
        assert member == bool(_valid_splits(h)), h.names


# -- symmetrized class -------------------------------------------------------------

def test_sym_members_roundtrip():
    for n in range(2, 7):
        for p in enumerate_partitions(n, 4):
            if p.block_count < 2:
                continue
            h = from_partition(p, ProductKind.SYM).to_abstract()
            verdict = check_product_class(h, ProductKind.SYM)
            assert verdict.member
            assert find_isomorphism(
                h, verdict.model.semigroup.to_abstract()) is not None


def test_sym_model_ground_sizes():
    for k in (2, 3):
        h = closure_table(k, ProductKind.SYM)
        model = canonical_model(h, ProductKind.SYM)
        assert model.semigroup.ground.size == k
        assert model.kind is ProductKind.SYM
    assert closure_table(2, ProductKind.SYM).size == 7


def test_sym_rejects_fixture_via_ii5():
    verdict = check_product_class(seven_element_absorbing_union(),
                                  ProductKind.SYM)
    assert not verdict.member
    for name in ("band", "ii1", "ii2", "ii3", "ii4"):
        assert verdict.condition(name).passed
    ii5 = verdict.condition("ii5")
    assert not ii5.passed
    assert ii5.witness == ("x2", "xy+yx")


def test_sym_rejects_zero_collapsing_union_via_ii4():
    built = band_union_with_core(closure_table(2, ProductKind.PLAIN),
                                 [cyclic_group(2)])
    assert built.size == 7
    verdict = check_product_class(built, ProductKind.SYM)
    assert not verdict.member
    for name in ("band", "ii1", "ii2", "ii3"):
        assert verdict.condition(name).passed
    assert not verdict.condition("ii4").passed
    assert verdict.condition("ii5").passed


def test_sym_rejects_plain_members():
    for k in (2, 3):
        verdict = check_product_class(closure_table(k, ProductKind.PLAIN),
                                      ProductKind.SYM)
        assert not verdict.member
        assert not verdict.condition("band").passed


# -- unit classes --------------------------------------------------------------------

def test_unit_members():
    for k in (2, 3, 4):
        h = closure_table(k, ProductKind.UNIT)
        verdict = check_product_class(h, ProductKind.UNIT)
        assert verdict.member
        assert find_isomorphism(
            h, verdict.model.semigroup.to_abstract()) is not None


def test_unit_membership_via_adjunction():
    for k in (2, 3):
        plain = closure_table(k, ProductKind.PLAIN)
        lifted = adjoin_identity(plain)
        assert check_product_class(lifted, ProductKind.UNIT).member


def test_unit_single_element():
    one = AbstractSemigroup(["e"], [[0]])
    assert check_product_class(one, ProductKind.UNIT).member


def test_unit_rejects_two_element_monoid():
    # zero with an identity adjoined: complement is a lone monoid
    h = AbstractSemigroup(["z", "e"], [[0, 0], [0, 1]])
    verdict = check_product_class(h, ProductKind.UNIT)
    assert not verdict.member
    assert not verdict.condition("complement-identity-free").passed


def test_unit_rejects_group():
    verdict = check_product_class(cyclic_group(2), ProductKind.UNIT)
    assert not verdict.member
    assert not verdict.condition("complement-closed").passed


def test_sym_unit_members():
    for k in (3, 4):
        h = closure_table(k, ProductKind.SYM_UNIT)
        verdict = check_product_class(h, ProductKind.SYM_UNIT)
        assert verdict.member
        assert verdict.model.kind is ProductKind.SYM_UNIT
        assert find_isomorphism(
            h, verdict.model.semigroup.to_abstract()) is not None


def test_sym_unit_k2_degenerate():
    h = closure_table(2, ProductKind.SYM_UNIT)
    assert h.size == 2
    assert find_isomorphism(h, cyclic_group(2)) is not None
    verdict = check_product_class(h, ProductKind.SYM_UNIT)
    assert not verdict.member
    assert any("degenerate" in note for note in verdict.notes)


def test_sym_unit_seven_element_member_is_own_unit():
    h = closure_table(2, ProductKind.SYM)
    assert h.identity() is not None
    verdict = check_product_class(h, ProductKind.SYM_UNIT)
    assert verdict.member
    assert verdict.model.kind is ProductKind.SYM
    assert any("own unit" in note for note in verdict.notes)


def test_members_survive_relabeling():
    import random

    rng = random.Random(12)
    cases = [(2, ProductKind.PLAIN), (3, ProductKind.PLAIN),
             (2, ProductKind.SYM), (3, ProductKind.SYM),
             (3, ProductKind.UNIT), (3, ProductKind.SYM_UNIT)]
    for k, kind in cases:
        h = closure_table(k, kind)
        m = h.size
        perm = list(range(m))
        rng.shuffle(perm)
        table = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                table[perm[i]][perm[j]] = perm[h.table[i][j]]
        shuffled = AbstractSemigroup([f"s{i}" for i in range(m)], table)
        verdict = check_product_class(shuffled, kind)
        assert verdict.member, (k, kind)
        # model verification runs at build time; check the round trip too
        assert find_isomorphism(
            shuffled, verdict.model.semigroup.to_abstract()) is not None


def test_unit_members_match_adjoined_sizes(small_semigroup_corpus):
    # no semigroup of size 2..4 is a unit-class member (sizes are 1, 6, 11, ...)
    for table in small_semigroup_corpus:
        h = named(table)
        verdict = check_product_class(h, ProductKind.UNIT)
        assert verdict.member == (h.size == 1)
