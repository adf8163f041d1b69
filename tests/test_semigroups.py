"""Abstract semigroups: validation, special elements, bands, isomorphism."""

import random

import pytest

from relsem.errors import (AssociativityError, FormatError,
                           NotCommutativeBandError)
from relsem.fixtures import seven_element_absorbing_union
from relsem.semigroups import (AbstractSemigroup, adjoin_identity, band_order,
                               band_union_with_core, cyclic_group,
                               find_isomorphism, format_cay, group_with_zero,
                               hasse_dot, identity_absorbing_union, is_ideal,
                               left_zero_semigroup, null_band, parse_cay,
                               right_zero_semigroup)


def test_validate_accepts_fixture_and_trivial():
    fix = seven_element_absorbing_union()
    assert fix.size == 7
    one = AbstractSemigroup(["e"], [[0]])
    assert one.identity() == 0
    assert one.zero() is None


def test_validate_rejects_non_associative_with_witness():
    # x*x = y, everything else x: (x*x)*x = y*x = x, x*(x*x) = x*y = x... use
    # a genuinely broken table instead
    with pytest.raises(AssociativityError) as info:
        AbstractSemigroup(["a", "b"], [[1, 0], [0, 0]])
    assert len(info.value.triple) == 3


def test_validate_rejects_bad_input():
    with pytest.raises(ValueError):
        AbstractSemigroup(["a", "a"], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        AbstractSemigroup(["a"], [[1]])
    with pytest.raises(ValueError):
        AbstractSemigroup(["a b"], [[0]])


def test_special_elements_fixture():
    fix = seven_element_absorbing_union()
    assert fix.zero() == fix.index("0")
    assert fix.identity() == fix.index("x2+y2")
    names = [fix.names[i] for i in fix.idempotents()]
    assert names == ["0", "x2", "y2", "x2+y2"]
    # the double-transposition element squares to the other group element
    g = fix.index("xy+yx")
    assert fix.table[g][g] == fix.index("x2+y2")
    assert [fix.names[i] for i in fix.nontrivial_idempotents()] == ["x2", "y2"]


def test_special_elements_conventions():
    one = AbstractSemigroup(["e"], [[0]])
    assert one.identity() == 0 and one.zero() is None
    z2 = cyclic_group(2)
    assert z2.identity() == 0 and z2.zero() is None
    assert z2.idempotents() == (0,)
    assert z2.nontrivial_idempotents() == ()


def test_adjoin_identity():
    z2 = cyclic_group(2)
    assert adjoin_identity(z2) is z2  # monoid unchanged
    rz = right_zero_semigroup(2)
    up = adjoin_identity(rz)
    assert up.size == 3
    e = up.identity()
    assert e == 2
    assert all(up.table[e][x] == x == up.table[x][e] for x in range(3))
    # idempotent as an operation
    assert adjoin_identity(up) is up


def test_ideals_and_subsemigroups():
    fix = seven_element_absorbing_union()
    core = list(range(5))
    assert fix.is_closed(core)
    assert is_ideal(fix, core)
    assert is_ideal(fix, [fix.zero()])
    assert is_ideal(fix, range(7))
    group = [5, 6]
    assert fix.is_closed(group)
    assert not is_ideal(fix, group)
    with pytest.raises(ValueError):
        is_ideal(fix, [])


def test_ideal_zero_is_global_zero():
    # an ideal with a zero forces that zero on the whole semigroup
    fix = seven_element_absorbing_union()
    core = fix.restrict(range(5))
    assert core.zero() is not None
    assert fix.zero() == 0


def test_restrict_requires_closure():
    fix = seven_element_absorbing_union()
    with pytest.raises(ValueError):
        fix.restrict([5])  # the group element squares outside


def test_power_orbit():
    fix = seven_element_absorbing_union()
    assert fix.power_orbit_size(fix.index("x2")) == 1
    assert fix.power_orbit_size(fix.index("xy")) == 2  # xy, then zero
    assert fix.power_orbit_size(fix.index("xy+yx")) == 2


# -- band order -----------------------------------------------------------------

def test_band_order_single_idempotent():
    one = AbstractSemigroup(["e"], [[0]])
    order = band_order(one, [0])
    assert order.elements == (0,)
    assert order.covers == ()


def test_band_order_fixture():
    fix = seven_element_absorbing_union()
    order = band_order(fix, fix.idempotents())
    # zero on top, the identity at the bottom
    z, x2, y2, e = (fix.index(n) for n in ("0", "x2", "y2", "x2+y2"))
    assert (x2, z) in order.le and (e, x2) in order.le
    assert (e, z) in order.le
    assert (z, x2) not in order.le
    assert sorted(order.covers) == [(z, x2), (z, y2), (x2, e), (y2, e)]


def test_band_order_rejects_non_band():
    fix = seven_element_absorbing_union()
    with pytest.raises(NotCommutativeBandError):
        band_order(fix, [fix.index("xy")])
    rz = right_zero_semigroup(2)
    with pytest.raises(NotCommutativeBandError):
        band_order(rz, [0, 1])  # idempotent but not commutative


def test_band_order_axioms_on_random_union_bands():
    # masks closed under bitwise-or form a commutative band
    rng = random.Random(7)
    for _ in range(60):
        masks = {rng.randrange(1, 32) for _ in range(rng.randint(1, 5))}
        changed = True
        while changed:
            changed = False
            for a in list(masks):
                for b in list(masks):
                    if a | b not in masks:
                        masks.add(a | b)
                        changed = True
        masks = sorted(masks)
        idx = {v: i for i, v in enumerate(masks)}
        names = [f"m{v}" for v in masks]
        table = [[idx[a | b] for b in masks] for a in masks]
        h = AbstractSemigroup(names, table)
        order = band_order(h, range(len(masks)))
        for (a, b) in order.covers:
            assert (b, a) in order.le


def test_hasse_dot_deterministic():
    fix = seven_element_absorbing_union()
    order = band_order(fix, fix.idempotents())
    dot = hasse_dot(fix, order)
    assert dot == hasse_dot(fix, order)
    assert dot.startswith("digraph")
    assert '"0" -> "x2"' in dot


# -- isomorphism -------------------------------------------------------------------

def test_iso_identity_and_relabeling():
    fix = seven_element_absorbing_union()
    assert find_isomorphism(fix, fix) == tuple(range(7))
    rng = random.Random(8)
    perm = list(range(7))
    rng.shuffle(perm)
    names = [f"n{i}" for i in range(7)]
    table = [[0] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(7):
            table[perm[i]][perm[j]] = perm[fix.table[i][j]]
    shuffled = AbstractSemigroup(names, table)
    mapping = find_isomorphism(fix, shuffled)
    assert mapping is not None
    assert all(mapping[fix.table[i][j]] == shuffled.table[mapping[i]][mapping[j]]
               for i in range(7) for j in range(7))


def test_iso_distinguishes_left_right_zero():
    assert find_isomorphism(cyclic_group(2), right_zero_semigroup(2)) is None
    assert find_isomorphism(left_zero_semigroup(2),
                            right_zero_semigroup(2)) is None
    assert find_isomorphism(left_zero_semigroup(2),
                            left_zero_semigroup(2)) is not None


def test_iso_symmetric(small_semigroup_corpus):
    rng = random.Random(9)
    tables = [AbstractSemigroup([f"x{i}" for i in range(len(t))], t)
              for t in rng.sample(list(small_semigroup_corpus), 40)]
    for a in tables:
        for b in tables:
            forward = find_isomorphism(a, b) is not None
            backward = find_isomorphism(b, a) is not None
            assert forward == backward


# -- constructions -----------------------------------------------------------------

def test_band_union_with_core():
    core = group_with_zero(3)  # zero plus a two-element group
    built = band_union_with_core(core, [cyclic_group(2), cyclic_group(2)])
    assert built.size == core.size + 4
    z = built.zero()
    assert z == 0
    # cross products collapse to the zero
    assert built.table[1][4] == z and built.table[5][2] == z
    assert built.table[3][6] == z


def test_band_union_requires_zero():
    with pytest.raises(ValueError):
        band_union_with_core(cyclic_group(2), [cyclic_group(2)])


def test_band_union_core_alone():
    core = group_with_zero(2)
    built = band_union_with_core(core, [])
    assert built.table == core.table


def test_identity_absorbing_union_rebuilds_fixture():
    fix = seven_element_absorbing_union()
    core = fix.restrict(range(5))
    group = fix.restrict([5, 6])
    rebuilt = identity_absorbing_union(core, group)
    assert rebuilt.names == fix.names
    assert rebuilt.table == fix.table


def test_identity_absorbing_union_small():
    a = AbstractSemigroup(["p"], [[0]])
    b = AbstractSemigroup(["q"], [[0]])
    u = identity_absorbing_union(a, b)
    assert u.size == 2
    assert u.table == ((0, 0), (0, 1))


def test_union_builders_always_associative():
    # constructors validate, so reaching here is the assertion
    rng = random.Random(10)
    for _ in range(20):
        core = group_with_zero(rng.randint(2, 4))
        groups = [cyclic_group(rng.randint(1, 3))
                  for _ in range(rng.randint(0, 2))]
        band_union_with_core(core, groups)
        identity_absorbing_union(core, cyclic_group(rng.randint(1, 3)))


# -- .cay format --------------------------------------------------------------------

def test_cay_round_trip():
    for h in (seven_element_absorbing_union(), cyclic_group(3),
              right_zero_semigroup(2), null_band(4)):
        assert parse_cay(format_cay(h)) == h


def test_cay_parse_errors():
    with pytest.raises(FormatError):
        parse_cay("table:\n")
    with pytest.raises(FormatError):
        parse_cay("elements: a b\ntable:\na a\n")
    with pytest.raises(FormatError):
        parse_cay("elements: a b\ntable:\na c\nb a\n")
    with pytest.raises(FormatError):
        # well-formed but not associative
        parse_cay("elements: a b\ntable:\nb a\na a\n")
