"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints one pass/fail line (visible with ``pytest -s`` or
``-rA``).  Everything is deterministic; the randomized property suites of
criterion 8 are driven by fixed seeds.
"""

import random

from naive_oracle import naive_search
from relsem.classify import canonical_model, check_product_class
from relsem.errors import ClosureOverflowError
from relsem.generation import from_partition, generate
from relsem.naive import closure_pairs
from relsem.partitions import (Partition, ProductKind, enumerate_partitions,
                               format_part, from_equivalence, parse_part,
                               product, refinement_by_block_union,
                               refinement_by_class_inclusion,
                               refinement_by_relation_inclusion,
                               to_equivalence, verify_smallest)
from relsem.relations import BinaryRelation, GroundSet, format_rel, parse_rel
from relsem.represent import clear_catalogues, search_d_transitive, \
    represent_left_zero, represent_right_zero, verify_witness
from relsem.semigroups import (AbstractSemigroup, adjoin_identity, band_order,
                               cyclic_group, find_isomorphism, format_cay,
                               group_with_zero, left_zero_semigroup,
                               null_band, parse_cay, right_zero_semigroup)
from relsem.fixtures import seven_element_absorbing_union


def _report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def closure_table(k, kind):
    return from_partition(Partition.finest(GroundSet(k)), kind).to_abstract()


def bell(n):
    b = [1]
    for _ in range(n):
        row = [b[-1]]
        for v in b:
            row.append(row[-1] + v)
        b = row
    return b[0]


# ---------------------------------------------------------------------------
# 1. closure size laws, exact
# ---------------------------------------------------------------------------

def test_acceptance_1_size_laws():
    ok = True
    for k in range(2, 6):
        p = Partition.finest(GroundSet(k))
        ok &= len(from_partition(p, ProductKind.PLAIN)) == k * k + 1
        ok &= len(from_partition(p, ProductKind.UNIT)) == k * k + 2
        sym = from_partition(p, ProductKind.SYM)
        expected = 7 if k == 2 else 2 * k * k - k + 1
        ok &= len(sym) == expected
        if k in (3, 4):
            blocks = [frozenset(rel.pairs()) for rel in
                      product(p, ProductKind.SYM).block_relations()]
            els, _ = closure_pairs(blocks)
            ok &= len(els) == expected
    _report("criterion 1: size laws for k=2..5", ok)


# ---------------------------------------------------------------------------
# 2. smallest-partition laws, zero counterexamples
# ---------------------------------------------------------------------------

def test_acceptance_2_smallest_partitions():
    ok = True
    for n in (1, 2, 3):
        for p in enumerate_partitions(n):
            for kind in ProductKind:
                rep = verify_smallest(p, kind)
                ok &= rep.passed and rep.partitions_checked == bell(n * n)
    _report("criterion 2: smallest-partition laws for |X| <= 3", ok)


# ---------------------------------------------------------------------------
# 3. identity-adjunction isomorphisms
# ---------------------------------------------------------------------------

def test_acceptance_3_identity_adjunction():
    ok = True
    for k in (2, 3, 4):
        plain = closure_table(k, ProductKind.PLAIN)
        unit = closure_table(k, ProductKind.UNIT)
        ok &= find_isomorphism(adjoin_identity(plain), unit) is not None
    for k in (3, 4):
        sym = closure_table(k, ProductKind.SYM)
        symunit = closure_table(k, ProductKind.SYM_UNIT)
        ok &= find_isomorphism(adjoin_identity(sym), symunit) is not None
    # k = 2 degenerate: the unit closure collapses to the two-element group
    sym2 = closure_table(2, ProductKind.SYM)
    symunit2 = closure_table(2, ProductKind.SYM_UNIT)
    ok &= symunit2.size == 2
    ok &= find_isomorphism(adjoin_identity(sym2), symunit2) is None
    ok &= find_isomorphism(symunit2, cyclic_group(2)) is not None
    verdict = check_product_class(symunit2, ProductKind.SYM_UNIT)
    ok &= (not verdict.member) and any("degenerate" in n for n in verdict.notes)
    _report("criterion 3: adjunction isomorphisms, k=2 flagged", ok)


# ---------------------------------------------------------------------------
# 4. classifier round trips and the fixture rejection
# ---------------------------------------------------------------------------

def test_acceptance_4_classifier_round_trips():
    ok = True
    for k in (2, 3, 4):
        for kind in (ProductKind.PLAIN, ProductKind.SYM):
            h = closure_table(k, kind)
            verdict = check_product_class(h, kind)
            ok &= verdict.member
            model = canonical_model(h, kind)
            ok &= find_isomorphism(h, model.semigroup.to_abstract()) is not None
            ok &= model.semigroup.ground.size == k
    fix = seven_element_absorbing_union()
    verdict = check_product_class(fix, ProductKind.SYM)
    ok &= not verdict.member
    ok &= all(verdict.condition(n).passed
              for n in ("ii1", "ii2", "ii3", "ii4"))
    ii5 = verdict.condition("ii5")
    ok &= (not ii5.passed) and ii5.witness == ("x2", "xy+yx")
    _report("criterion 4: classifier round trips, fixture fails ii5", ok)


# ---------------------------------------------------------------------------
# 5. representation searches, exact outcomes
# ---------------------------------------------------------------------------

def test_acceptance_5_representation_search():
    ok = True
    report = search_d_transitive(cyclic_group(2), max_ground=2)
    ok &= report.found and report.witness.ground.size == 2
    blocks = sorted(tuple(report.witness.blocks.block_relation(b).pairs())
                    for b in range(2))
    ok &= blocks == [((0, 0), (1, 1)), ((0, 1), (1, 0))]

    for m in (2, 3):
        for build, construct in ((right_zero_semigroup, represent_right_zero),
                                 (left_zero_semigroup, represent_left_zero)):
            h = build(m)
            witness = construct(h)
            ok &= verify_witness(h, witness)
            found = search_d_transitive(h, max_ground=m)
            ok &= found.found and found.witness.ground.size == m

    g3 = GroundSet(3)
    off = BinaryRelation.from_pairs(
        g3, [(x, y) for x in range(3) for y in range(3) if x != y])
    s_q = generate([BinaryRelation.diagonal(g3), off]).to_abstract()
    ok &= s_q.size == 3
    report = search_d_transitive(s_q, max_ground=4)
    ok &= not report.found

    report = search_d_transitive(group_with_zero(3), max_ground=3)
    ok &= not report.found and report.candidates_examined == 0

    report = search_d_transitive(null_band(4), max_ground=3)
    ok &= not report.found
    _report("criterion 5: representation searches, exact outcomes", ok)


# ---------------------------------------------------------------------------
# 6. search agrees with the naive oracle on every small semigroup
# ---------------------------------------------------------------------------

def _witness_key(report):
    w = report.witness
    return None if w is None else (w.ground.size, w.blocks.base.assignment)


def test_acceptance_6_oracle_equivalence(small_semigroup_corpus):
    # a cold sweep in corpus order fills the shared candidate catalogue; a
    # warm sweep in reverse order must repeat it without sweeping a row
    corpus = [AbstractSemigroup([f"x{i}" for i in range(len(t))], t)
              for t in small_semigroup_corpus]
    clear_catalogues()
    cold = [search_d_transitive(h, max_ground=3) for h in corpus]
    warm = [search_d_transitive(h, max_ground=3) for h in reversed(corpus)]
    warm.reverse()
    disagreements = 0
    for table, c, w in zip(small_semigroup_corpus, cold, warm):
        expected = naive_search(table, max_ground=3)
        if expected is not None:
            expected = (expected[0], tuple(expected[1]))
        if not _witness_key(c) == _witness_key(w) == expected:
            disagreements += 1
        elif c.candidates_examined != w.candidates_examined:
            disagreements += 1
    warm_rows = sum(report.rows_swept for report in warm)
    _report(f"criterion 6: oracle equivalence over {len(corpus)} "
            f"semigroups, cold and warm ({warm_rows} rows swept warm)",
            disagreements == 0 and warm_rows == 0)


# ---------------------------------------------------------------------------
# 7. Hasse structures
# ---------------------------------------------------------------------------

def test_acceptance_7_hasse_structures():
    unit3 = closure_table(3, ProductKind.UNIT)
    order = band_order(unit3, unit3.idempotents())
    ok = len(order.elements) == 5 and len(order.covers) == 6
    symunit3 = closure_table(3, ProductKind.SYM_UNIT)
    order = band_order(symunit3, symunit3.idempotents())
    ok &= len(order.elements) == 8 and len(order.covers) == 12
    _report("criterion 7: idempotent band shapes (5/6 and 8/12)", ok)


# ---------------------------------------------------------------------------
# 8. randomized property suites, >= 10^4 cases each
# ---------------------------------------------------------------------------

CASES = 10_000


def _random_relation(rng, n, density=0.4):
    pairs = [(x, y) for x in range(n) for y in range(n)
             if rng.random() < density]
    return BinaryRelation.from_pairs(GroundSet(n), pairs)


def _random_partition(rng, n):
    return Partition(GroundSet(n), [rng.randrange(n) for _ in range(n)])


def test_acceptance_8a_composition_associativity():
    rng = random.Random(101)
    for _ in range(CASES):
        n = rng.randint(1, 8)
        a, b, c = (_random_relation(rng, n) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
    _report(f"criterion 8a: associativity, {CASES} cases", True)


def test_acceptance_8b_partition_equivalence_round_trips():
    rng = random.Random(102)
    for _ in range(CASES):
        n = rng.randint(1, 9)
        p = _random_partition(rng, n)
        r = to_equivalence(p)
        assert from_equivalence(r) == p
        assert to_equivalence(from_equivalence(r)) == r
    _report(f"criterion 8b: partition round trips, {CASES} cases", True)


def test_acceptance_8c_refinement_routes_agree():
    rng = random.Random(103)
    for _ in range(CASES):
        n = rng.randint(1, 6)
        p1, p2 = _random_partition(rng, n), _random_partition(rng, n)
        expected = refinement_by_class_inclusion(p1, p2)
        assert refinement_by_relation_inclusion(p1, p2) == expected
        assert refinement_by_block_union(p1, p2) == expected
    _report(f"criterion 8c: three-way refinement agreement, {CASES} cases",
            True)


def test_acceptance_8d_empty_square_law():
    rng = random.Random(104)
    done = 0
    while done < CASES:
        n = rng.randint(1, 8)
        r = _random_relation(rng, n, density=0.3)
        if r.is_empty():
            continue
        done += 1
        assert r.compose(r).is_empty() == (not (r.domain() & r.range()))
    _report(f"criterion 8d: empty square law, {CASES} cases", True)


def _random_closure(rng, max_ground=3, max_gens=2, cap=200):
    n = rng.randint(1, max_ground)
    gens = [_random_relation(rng, n, density=0.35)
            for _ in range(rng.randint(1, max_gens))]
    try:
        return generate(gens, max_elements=cap)
    except ClosureOverflowError:
        return None


def test_acceptance_8e_ideal_zero_is_global_zero():
    rng = random.Random(105)
    done = 0
    while done < CASES:
        gsem = _random_closure(rng)
        if gsem is None:
            continue
        h = gsem.to_abstract()
        m = h.size
        for x in range(m):
            # the two-sided principal ideal of x
            ideal = {x}
            for a in range(m):
                ideal.add(h.table[x][a])
                ideal.add(h.table[a][x])
                for b in range(m):
                    ideal.add(h.table[h.table[a][x]][b])
            if len(ideal) < 2:
                continue
            sub = h.restrict(sorted(ideal))
            z = sub.zero()
            if z is None:
                continue
            done += 1
            assert h.zero() == sorted(ideal)[z]
            if done >= CASES:
                break
    _report(f"criterion 8e: ideal zero is the global zero, {CASES} cases",
            True)


def test_acceptance_8f_band_order_axioms():
    rng = random.Random(106)
    done = 0
    while done < CASES:
        # any or-closed set of bitmasks is a commutative band
        masks = {rng.randrange(1, 16) for _ in range(rng.randint(1, 4))}
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
        h = AbstractSemigroup([f"m{v}" for v in masks],
                              [[idx[a | b] for b in masks] for a in masks])
        # band_order raises on any violated axiom
        order = band_order(h, range(len(masks)))
        for greater, smaller in order.covers:
            assert (smaller, greater) in order.le
        done += 1
    _report(f"criterion 8f: band order axioms, {CASES} cases", True)


def test_acceptance_8g_closure_determinism():
    rng = random.Random(107)
    done = 0
    while done < CASES:
        n = rng.randint(1, 3)
        gens = [_random_relation(rng, n, density=0.4)
                for _ in range(rng.randint(1, 3))]
        try:
            base = generate(gens, max_elements=300)
        except ClosureOverflowError:
            continue
        base_set = set(base.elements)
        for _ in range(4):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            try:
                other = generate(shuffled, max_elements=300)
            except ClosureOverflowError:
                continue
            assert set(other.elements) == base_set
            done += 1
            if done >= CASES:
                break
    _report(f"criterion 8g: closure determinism, {CASES} cases", True)


def test_acceptance_8h_file_format_round_trips():
    rng = random.Random(108)
    done = 0
    while done < CASES:
        choice = done % 5
        if choice < 2:
            r = _random_relation(rng, rng.randint(1, 9))
            assert parse_rel(format_rel(r)) == r
        elif choice < 4:
            p = _random_partition(rng, rng.randint(1, 9))
            assert parse_part(format_part(p)) == p
        else:
            gsem = _random_closure(rng, max_ground=2, max_gens=2, cap=40)
            if gsem is None:
                continue
            h = gsem.to_abstract()
            assert parse_cay(format_cay(h)) == h
        done += 1
    _report(f"criterion 8h: file format round trips, {CASES} cases", True)
