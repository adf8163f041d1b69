"""Relation algebra: composition, converse, laws, domain/range, file format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsem.errors import FormatError, GroundMismatchError
from relsem.naive import compose_pairs
from relsem.relations import (BinaryRelation, GroundSet, format_rel,
                              parse_rel)


def rel(n, pairs):
    return BinaryRelation.from_pairs(GroundSet(n), pairs)


def random_relation(rng, n, density=0.4):
    pairs = [(x, y) for x in range(n) for y in range(n)
             if rng.random() < density]
    return rel(n, pairs)


# -- composition ------------------------------------------------------------

def test_compose_single_links():
    assert rel(3, [(0, 1)]).compose(rel(3, [(1, 2)])) == rel(3, [(0, 2)])


def test_compose_diagonal_is_identity():
    rng = random.Random(0)
    for n in (1, 2, 5, 8):
        d = BinaryRelation.diagonal(GroundSet(n))
        s = random_relation(rng, n)
        assert d.compose(s) == s
        assert s.compose(d) == s


def test_compose_block_rectangles():
    # two blocks on four points: rectangles compose like matrix units
    x1, x2 = [0, 1], [2, 3]
    r12 = rel(4, [(a, b) for a in x1 for b in x2])
    r21 = rel(4, [(a, b) for a in x2 for b in x1])
    r11 = rel(4, [(a, b) for a in x1 for b in x1])
    r22 = rel(4, [(a, b) for a in x2 for b in x2])
    assert r12.compose(r21) == r11
    assert r11.compose(r22) == BinaryRelation.empty(GroundSet(4))


def test_compose_ground_mismatch():
    with pytest.raises(GroundMismatchError):
        rel(2, []).compose(rel(3, []))


def test_compose_matches_naive_pairs():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 8)
        a = random_relation(rng, n)
        b = random_relation(rng, n)
        want = compose_pairs(frozenset(a.pairs()), frozenset(b.pairs()))
        assert frozenset(a.compose(b).pairs()) == want


@given(st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_compose_associative(n, data):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    rels = [rel(n, data.draw(st.lists(pair, max_size=n * n)))
            for _ in range(3)]
    a, b, c = rels
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


# -- converse ---------------------------------------------------------------

def test_converse_basic():
    assert rel(2, [(0, 1)]).converse() == rel(2, [(1, 0)])
    d = BinaryRelation.diagonal(GroundSet(4))
    assert d.converse() == d


def test_converse_fixes_symmetric():
    r = rel(3, [(0, 1), (1, 0), (2, 2)])
    assert r.is_symmetric()
    assert r.converse() == r


def test_converse_antihomomorphism():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 7)
        a, b = random_relation(rng, n), random_relation(rng, n)
        assert a.compose(b).converse() == b.converse().compose(a.converse())


# -- constants and laws -------------------------------------------------------

def test_diagonal_full_empty():
    g = GroundSet(2)
    assert BinaryRelation.diagonal(g).pairs() == ((0, 0), (1, 1))
    assert BinaryRelation.full(g).pair_count == 4
    assert BinaryRelation.empty(g).pairs() == ()
    g1 = GroundSet(1)
    assert BinaryRelation.diagonal(g1) == BinaryRelation.full(g1)


def test_equivalence_checks():
    for n in (1, 2, 5):
        assert BinaryRelation.diagonal(GroundSet(n)).is_equivalence()
        assert BinaryRelation.diagonal(GroundSet(n)).is_symmetric()
    r = rel(2, [(0, 1)])
    assert not r.is_equivalence()
    assert "not reflexive" in r.equivalence_violation()


def test_offdiagonal_symmetric_not_transitive():
    # complement of the diagonal on three points
    nabla = rel(3, [(x, y) for x in range(3) for y in range(3) if x != y])
    assert nabla.is_symmetric()
    assert not nabla.is_equivalence()
    assert (0, 1) in nabla and (1, 0) in nabla and (0, 0) not in nabla
    assert "not reflexive" in nabla.equivalence_violation()


def test_violation_messages():
    assert "not symmetric" in rel(2, [(0, 0), (1, 1), (0, 1)]) \
        .equivalence_violation()
    r = rel(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)])
    assert "not transitive" in r.equivalence_violation()


# -- domain and range ---------------------------------------------------------

def test_domain_range():
    r = rel(3, [(0, 1), (0, 2)])
    assert r.domain() == {0}
    assert r.range() == {1, 2}
    e = BinaryRelation.empty(GroundSet(3))
    assert e.domain() == frozenset() and e.range() == frozenset()
    rect = rel(4, [(a, b) for a in (0, 1) for b in (2, 3)])
    assert rect.domain() == {0, 1} and rect.range() == {2, 3}


def test_square_empty_iff_domain_range_disjoint():
    rng = random.Random(3)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 7)
        r = random_relation(rng, n, density=0.25)
        if r.is_empty():
            continue
        checked += 1
        disjoint = not (r.domain() & r.range())
        assert (r.compose(r).is_empty()) == disjoint


# -- value semantics ----------------------------------------------------------

def test_equality_and_hash_extensional():
    a = rel(3, [(0, 1), (2, 2)])
    b = BinaryRelation.from_pairs(GroundSet(3, labels=("p", "q", "r")),
                                  [(2, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != rel(3, [(0, 1)])
    assert len({a, b}) == 1


def test_relations_are_immutable():
    r = rel(2, [(0, 1)])
    with pytest.raises(AttributeError):
        r.rows = (0, 0)


def test_key_orders_by_packed_bits():
    lo = rel(2, [(0, 0)])
    hi = rel(2, [(1, 1)])
    assert lo.key() < hi.key()


def test_from_key_inverts_key():
    rng = random.Random(3)
    for _ in range(50):
        r = random_relation(rng, rng.randint(1, 9))
        assert BinaryRelation.from_key(r.ground, r.key()) == r
    with pytest.raises(ValueError):
        BinaryRelation.from_key(GroundSet(2), 1 << 4)
    with pytest.raises(ValueError):
        BinaryRelation.from_key(GroundSet(2), -1)


def _all_pair_sets(n):
    """Every relation on n points as a frozenset of pairs."""
    square = [(x, y) for x in range(n) for y in range(n)]
    for bits in range(1 << len(square)):
        yield frozenset(p for i, p in enumerate(square) if bits >> i & 1)


def _first_violation(n, s):
    """The equivalence-law violation at the first row-major witness."""
    for x in range(n):
        if (x, x) not in s:
            return f"not reflexive: ({x}, {x}) missing"
    for x, y in sorted(s):
        if (y, x) not in s:
            return f"not symmetric: ({x}, {y}) present, ({y}, {x}) missing"
    for x, y in sorted(s):
        for z in range(n):
            if (y, z) in s and (x, z) not in s:
                return (f"not transitive: ({x}, {y}) and ({y}, {z}) "
                        f"present, ({x}, {z}) missing")
    return None


def test_laws_match_pair_sets_exhaustively():
    for n in (1, 2, 3):
        g = GroundSet(n)
        probes = [(x, y) for x in range(-1, n + 1) for y in range(-1, n + 1)]
        for s in _all_pair_sets(n):
            r = BinaryRelation.from_pairs(g, s)
            assert r.pairs() == tuple(sorted(s))
            assert r.pair_count == len(s)
            assert r.is_empty() == (not s)
            assert [p in r for p in probes] == [p in s for p in probes]
            assert set(r.converse().pairs()) == {(y, x) for x, y in s}
            assert r.is_reflexive() == all((x, x) in s for x in range(n))
            assert r.is_symmetric() == all((y, x) in s for x, y in s)
            assert r.is_transitive() == all(
                (x, z) in s for x, y in s for y2, z in s if y == y2)
            assert r.domain() == {x for x, _ in s}
            assert r.range() == {y for _, y in s}
            assert r.key() == sum(1 << (x * n + y) for x, y in s)
            back = BinaryRelation.from_key(g, r.key())
            assert back == r and back.pairs() == r.pairs()
            rows = [sum(1 << y for y in range(n) if (x, y) in s)
                    for x in range(n)]
            assert r.rows == tuple(rows)
            by_rows = BinaryRelation(g, rows)
            assert by_rows == r and hash(by_rows) == hash(r)
            violation = _first_violation(n, s)
            assert r.equivalence_violation() == violation
            assert r.is_equivalence() == (violation is None)
    # a transitivity witness has a choice of z only from four points on:
    # every reflexive symmetric relation on four points
    g = GroundSet(4)
    edges = [(x, y) for x in range(4) for y in range(x + 1, 4)]
    for bits in range(1 << len(edges)):
        s = {(x, x) for x in range(4)}
        for i, (x, y) in enumerate(edges):
            if bits >> i & 1:
                s |= {(x, y), (y, x)}
        r = BinaryRelation.from_pairs(g, s)
        assert r.equivalence_violation() == _first_violation(4, s)
    for n in (1, 2):
        g = GroundSet(n)
        sets = list(_all_pair_sets(n))
        for a in sets:
            ra = BinaryRelation.from_pairs(g, a)
            for b in sets:
                rb = BinaryRelation.from_pairs(g, b)
                assert set((ra | rb).pairs()) == a | b
                assert set((ra & rb).pairs()) == a & b
                assert set(ra.compose(rb).pairs()) == {
                    (x, z) for x, y in a for y2, z in b if y == y2}


# -- .rel format --------------------------------------------------------------

def test_rel_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        r = random_relation(rng, rng.randint(1, 9))
        assert parse_rel(format_rel(r)) == r


def test_rel_parse_comments_and_errors():
    r = parse_rel("# header\nn: 3\n0 1  # a pair\n\n2 2\n")
    assert r == rel(3, [(0, 1), (2, 2)])
    with pytest.raises(FormatError):
        parse_rel("0 1\n")
    with pytest.raises(FormatError):
        parse_rel("n: 2\n0 5\n")
    with pytest.raises(FormatError):
        parse_rel("n: 2\n0\n")


def test_rel_writer_sorted_row_major():
    r = rel(3, [(2, 0), (0, 2), (0, 1)])
    body = format_rel(r).splitlines()[1:]
    assert body == ["0 1", "0 2", "2 0"]
