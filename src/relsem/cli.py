"""Command line front end and the desk-scale verification harness.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
or an exhausted search, 2 for input or format errors, 3 when a guard was
exceeded.  Output is deterministic given the inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
import time

from .classify import check_product_class
from .errors import (ClosureOverflowError, FormatError, GuardExceededError,
                     NotCommutativeBandError)
from .fixtures import seven_element_absorbing_union
from .generation import from_partition, generate
from .naive import closure_pairs
from .partitions import (Partition, ProductKind, enumerate_partitions,
                         load_part, product, canonical_labeling,
                         verify_smallest)
from .relations import GroundSet, load_rel, format_rel
from .semigroups import (adjoin_identity, band_order, band_union_with_core,
                         cyclic_group, find_isomorphism, format_cay,
                         group_with_zero, hasse_dot, identity_absorbing_union,
                         left_zero_semigroup, load_cay, null_band,
                         right_zero_semigroup)
from .represent import (represent_left_zero, represent_right_zero,
                        search_d_transitive)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relsem",
        description="binary-relation semigroups generated by partitions")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a closure and write its table")
    p.add_argument("--partition", help=".part file with the base partition")
    p.add_argument("--kind", help="product kind: plain, unit, sym, symunit")
    p.add_argument("--relation", action="append", default=[],
                   help=".rel generator file (repeatable)")
    p.add_argument("--out", help="output .cay path (default: stdout)")
    p.add_argument("--elements-dir",
                   help="also write every element as a .rel file here")
    p.add_argument("--max-elements", type=int, default=100_000)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("classify", help="run the class checks on a table")
    p.add_argument("table", help=".cay file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("iso", help="search for an isomorphism between tables")
    p.add_argument("left", help=".cay file")
    p.add_argument("right", help=".cay file")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("represent",
                       help="search for a d-transitive representation")
    p.add_argument("--table", required=True, help=".cay file")
    p.add_argument("--max-ground", type=int, default=4)
    p.add_argument("--blocks",
                   help="comma-separated block counts overriding the "
                        "generating-subset scan")
    p.add_argument("--max-candidates", type=int, default=20_000_000)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("hasse",
                       help="write the idempotent band order as Graphviz")
    p.add_argument("table", help=".cay file")
    p.add_argument("--out", help="output .dot path (default: stdout)")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("oracle",
                       help="exhaustively verify the smallest-partition laws")
    p.add_argument("--partition", help=".part file (default: sweep --ground)")
    p.add_argument("--ground", type=int, default=3,
                   help="sweep all partitions of this ground size")
    p.add_argument("--kind", default="all",
                   help="plain, unit, sym, symunit or all")
    p.add_argument("--guard", type=int, default=3,
                   help="largest ground size the enumeration accepts")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=["sizes", "lattice", "h1", "hs", "iso", "reps",
                            "all"])
    p.add_argument("--max", type=int, default=None,
                   help="largest block count exercised (suite dependent)")
    p.add_argument("--max-ground", type=int, default=4,
                   help="search bound for the representation suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GuardExceededError, ClosureOverflowError) as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _write_out(text: str, path, quiet: bool):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not quiet:
            print(f"wrote {path}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.partition and args.relation:
        print("error: give either --partition or --relation, not both",
              file=sys.stderr)
        return EXIT_INPUT
    if args.partition:
        if not args.kind:
            print("error: --kind is required with --partition", file=sys.stderr)
            return EXIT_INPUT
        base = load_part(args.partition)
        try:
            kind = ProductKind.parse(args.kind)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        gsem = from_partition(base, kind, max_elements=args.max_elements)
    elif args.relation:
        rels = [load_rel(path) for path in args.relation]
        gsem = generate(rels, max_elements=args.max_elements)
    else:
        print("error: need --partition or at least one --relation",
              file=sys.stderr)
        return EXIT_INPUT
    table = gsem.to_abstract()
    _write_out(format_cay(table), args.out, args.quiet)
    if args.elements_dir:
        import os

        os.makedirs(args.elements_dir, exist_ok=True)
        for i, rel in enumerate(gsem.elements):
            name = table.names[i]
            safe = "".join(ch if ch not in "/\\" else "_" for ch in name)
            path = os.path.join(args.elements_dir, f"{i:03d}_{safe}.rel")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# element {name}\n")
                fh.write(format_rel(rel))
        if not args.quiet:
            print(f"wrote {len(gsem.elements)} .rel files to "
                  f"{args.elements_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _verdict_token(v) -> str:
    return "YES" if v else "NO"


def _cmd_classify(args) -> int:
    h = load_cay(args.table)
    for kind, label in ((ProductKind.PLAIN, "H1"), (ProductKind.SYM, "HS"),
                        (ProductKind.UNIT, "H1_UNIT"),
                        (ProductKind.SYM_UNIT, "HS_UNIT")):
        verdict = check_product_class(h, kind)
        for cond in verdict.conditions:
            line = f"{cond.name}={'PASS' if cond.passed else 'FAIL'}"
            if cond.witness:
                line += f" witness=({', '.join(cond.witness)})"
            if cond.detail and not cond.passed:
                line += f" [{cond.detail}]"
            print(line)
        for note in verdict.notes:
            print(f"note: {note}")
        print(f"{label}={_verdict_token(verdict.member)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# iso
# ---------------------------------------------------------------------------

def _cmd_iso(args) -> int:
    h1 = load_cay(args.left)
    h2 = load_cay(args.right)
    mapping = find_isomorphism(h1, h2)
    if mapping is None:
        print("NONE")
        return EXIT_NEGATIVE
    for i, j in enumerate(mapping):
        print(f"{h1.names[i]} -> {h2.names[j]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# represent
# ---------------------------------------------------------------------------

def _cmd_represent(args) -> int:
    h = load_cay(args.table)
    blocks = None
    if args.blocks:
        try:
            blocks = [int(tok) for tok in args.blocks.split(",") if tok]
        except ValueError:
            print(f"error: bad --blocks value {args.blocks!r}", file=sys.stderr)
            return EXIT_INPUT
    try:
        report = search_d_transitive(h, max_ground=args.max_ground,
                                     block_counts=blocks,
                                     max_candidates=args.max_candidates)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not report.found:
        print(f"EXHAUSTED n<={args.max_ground} "
              f"candidates={report.candidates_examined} "
              f"blocks={','.join(map(str, report.bounds.block_counts)) or '-'}")
        return EXIT_NEGATIVE
    w = report.witness
    print(f"FOUND ground={w.ground.size} blocks={w.blocks.block_count} "
          f"candidates={report.candidates_examined}")
    for b in range(w.blocks.block_count):
        pairs = " ".join(f"({x},{y})"
                         for x, y in w.blocks.block_relation(b).pairs())
        print(f"block {b}: {pairs}")
    for b, x in enumerate(w.generator_map):
        print(f"map: {h.names[x]} <-> block {b}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# hasse
# ---------------------------------------------------------------------------

def _cmd_hasse(args) -> int:
    h = load_cay(args.table)
    try:
        order = band_order(h, h.idempotents())
    except NotCommutativeBandError as exc:
        print(f"error: idempotents do not form a commutative band: {exc}",
              file=sys.stderr)
        return EXIT_INPUT
    _write_out(hasse_dot(h, order), args.out, args.quiet)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _cmd_oracle(args) -> int:
    if args.kind == "all":
        kinds = list(ProductKind)
    else:
        try:
            kinds = [ProductKind.parse(args.kind)]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if args.partition:
        parts = [load_part(args.partition)]
    else:
        if args.ground < 1:
            print(f"error: --ground must be >= 1, got {args.ground}",
                  file=sys.stderr)
            return EXIT_INPUT
        if args.ground > args.guard:
            raise GuardExceededError(
                f"ground {args.ground} exceeds the guard {args.guard}")
        parts = list(enumerate_partitions(args.ground))
    failed = False
    for part in parts:
        rgs = "".join(map(str, part.assignment))
        for kind in kinds:
            rep = verify_smallest(part, kind, guard=args.guard)
            status = "OK" if rep.passed else f"COUNTEREXAMPLE {rep.failure}"
            print(f"kind={kind.value} n={rep.ground_size} p={rgs} "
                  f"checked={rep.partitions_checked} "
                  f"members={rep.class_members} {status}")
            failed = failed or not rep.passed
    return EXIT_NEGATIVE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _expected_closure_size(kind: ProductKind, k: int) -> int:
    if kind is ProductKind.PLAIN:
        return 1 if k == 1 else k * k + 1
    if kind is ProductKind.UNIT:
        return 1 if k == 1 else k * k + 2
    if kind is ProductKind.SYM:
        return 1 if k == 1 else 2 * k * k - k + 1
    return 1 if k == 1 else (2 if k == 2 else 2 * k * k - k + 2)


def _singleton_closure(k: int, kind: ProductKind):
    return from_partition(Partition.finest(GroundSet(k)), kind)


def _checks_sizes(maxk: int):
    for k in range(2, maxk + 1):
        for kind in ProductKind:
            def check(k=k, kind=kind):
                gsem = _singleton_closure(k, kind)
                want = _expected_closure_size(kind, k)
                if len(gsem) != want:
                    return False, f"expected {want} elements, got {len(gsem)}"
                if k <= 4:
                    labeled = product(Partition.finest(GroundSet(k)), kind)
                    naive = closure_pairs(
                        [frozenset(rel.pairs())
                         for rel in labeled.block_relations()])
                    if len(naive[0]) != want:
                        return False, (f"naive pair closure disagrees: "
                                       f"{len(naive[0])} vs {want}")
                return True, f"{want} elements"
            yield f"size-{kind.value}-k{k}", check


def _checks_lattice(max_ground: int):
    for n in range(1, max_ground + 1):
        for part in enumerate_partitions(n):
            rgs = "".join(map(str, part.assignment))
            for kind in ProductKind:
                def check(part=part, kind=kind):
                    rep = verify_smallest(part, kind)
                    if not rep.passed:
                        return False, rep.failure or "counterexample"
                    if canonical_labeling(part, kind).base != \
                            product(part, kind).base:
                        return False, "composite labeling mismatch"
                    return True, (f"checked={rep.partitions_checked} "
                                  f"members={rep.class_members}")
                yield f"smallest-n{n}-p{rgs}-{kind.value}", check


def _roundtrip_check(p: Partition, kind: ProductKind):
    gsem = from_partition(p, kind)
    table = gsem.to_abstract()
    verdict = check_product_class(table, kind)
    if not verdict.member:
        failing = verdict.first_failure()
        return False, f"closure not recognized ({failing.name} fails)"
    model_table = verdict.model.semigroup.to_abstract()
    if find_isomorphism(table, model_table) is None:
        return False, "canonical model not isomorphic to the closure"
    return True, f"{len(gsem)} elements"


def _checks_membership(kind: ProductKind, maxk: int, max_ground: int):
    label = kind.value
    for n in range(2, max_ground + 1):
        def check(n=n):
            count = 0
            for part in enumerate_partitions(n, min(maxk, n)):
                if part.block_count < 2:
                    continue
                ok, detail = _roundtrip_check(part, kind)
                if not ok:
                    return False, f"n={n} p={part.assignment}: {detail}"
                count += 1
            return True, f"{count} partitions"
        yield f"{label}-roundtrip-n{n}", check


def _checks_hs_extras():
    def fixture_rejected():
        fix = seven_element_absorbing_union()
        verdict = check_product_class(fix, ProductKind.SYM)
        if verdict.member:
            return False, "fixture wrongly accepted"
        for name in ("band", "ii1", "ii2", "ii3", "ii4"):
            if not verdict.condition(name).passed:
                return False, f"{name} unexpectedly failed"
        ii5 = verdict.condition("ii5")
        if ii5.passed or ii5.witness != ("x2", "xy+yx"):
            return False, f"ii5 witness {ii5.witness}"
        return True, "ii5 fails with witness (x2, xy+yx)"
    yield "fixture-rejected", fixture_rejected

    def fixture_reconstructed():
        fix = seven_element_absorbing_union()
        core = fix.restrict(range(5))
        group = fix.restrict((5, 6))
        rebuilt = identity_absorbing_union(core, group)
        if rebuilt.table != fix.table or rebuilt.names != fix.names:
            return False, "reconstruction differs from the fixture"
        return True, "identity-absorbing union matches the fixture"
    yield "fixture-reconstructed", fixture_reconstructed

    def cross_zero_union_rejected():
        core = _singleton_closure(2, ProductKind.PLAIN).to_abstract()
        built = band_union_with_core(core, [cyclic_group(2)])
        verdict = check_product_class(built, ProductKind.SYM)
        if verdict.member:
            return False, "zero-collapsing union wrongly accepted"
        if verdict.condition("ii4").passed:
            return False, "ii4 unexpectedly passed"
        return True, "rejected via ii4"
    yield "zero-union-rejected", cross_zero_union_rejected

    def hasse_unit():
        table = _singleton_closure(3, ProductKind.UNIT).to_abstract()
        order = band_order(table, table.idempotents())
        if len(order.elements) != 5 or len(order.covers) != 6:
            return False, (f"{len(order.elements)} nodes, "
                           f"{len(order.covers)} covers")
        return True, "5 nodes, 6 cover edges"
    yield "hasse-unit-k3", hasse_unit

    def hasse_sym_unit():
        table = _singleton_closure(3, ProductKind.SYM_UNIT).to_abstract()
        order = band_order(table, table.idempotents())
        if len(order.elements) != 8 or len(order.covers) != 12:
            return False, (f"{len(order.elements)} nodes, "
                           f"{len(order.covers)} covers")
        return True, "8 nodes, 12 cover edges"
    yield "hasse-symunit-k3", hasse_sym_unit


def _checks_iso(maxk: int):
    for k in range(2, maxk + 1):
        def check(k=k):
            plain = _singleton_closure(k, ProductKind.PLAIN).to_abstract()
            unit = _singleton_closure(k, ProductKind.UNIT).to_abstract()
            if find_isomorphism(adjoin_identity(plain), unit) is None:
                return False, "adjunction not isomorphic to the unit closure"
            return True, f"{unit.size} elements"
        yield f"adjoin-plain-k{k}", check
    for k in range(3, maxk + 1):
        def check(k=k):
            sym = _singleton_closure(k, ProductKind.SYM).to_abstract()
            symunit = _singleton_closure(k, ProductKind.SYM_UNIT).to_abstract()
            if find_isomorphism(adjoin_identity(sym), symunit) is None:
                return False, "adjunction not isomorphic to the unit closure"
            return True, f"{symunit.size} elements"
        yield f"adjoin-sym-k{k}", check

    def degenerate():
        sym = _singleton_closure(2, ProductKind.SYM).to_abstract()
        symunit = _singleton_closure(2, ProductKind.SYM_UNIT).to_abstract()
        if symunit.size != 2:
            return False, f"degenerate closure has {symunit.size} elements"
        if find_isomorphism(adjoin_identity(sym), symunit) is not None:
            return False, "degenerate case unexpectedly isomorphic"
        if find_isomorphism(symunit, cyclic_group(2)) is None:
            return False, "degenerate closure is not the two-element group"
        verdict = check_product_class(symunit, ProductKind.SYM_UNIT)
        if verdict.member or not verdict.notes:
            return False, "degenerate case not flagged"
        return True, "two-element group flagged, no adjunction witness"
    yield "adjoin-sym-k2-degenerate", degenerate


def _checks_reps(max_ground: int):
    def group2():
        report = search_d_transitive(cyclic_group(2),
                                     max_ground=min(2, max_ground))
        if not report.found:
            return False, "no witness for the two-element group"
        w = report.witness
        if w.ground.size != 2:
            return False, f"found at ground {w.ground.size}"
        rels = sorted(tuple(w.blocks.block_relation(b).pairs())
                      for b in range(2))
        if rels != [((0, 0), (1, 1)), ((0, 1), (1, 0))]:
            return False, f"unexpected blocks {rels}"
        return True, "witness at n=2 with diagonal and off-diagonal blocks"
    yield "search-group2", group2

    for m in (2, 3):
        def check(m=m):
            for build, rep_fn in ((right_zero_semigroup, represent_right_zero),
                                  (left_zero_semigroup, represent_left_zero)):
                h = build(m)
                rep_fn(h)  # raises if the constructed witness fails
                report = search_d_transitive(h, max_ground=min(m, max_ground))
                if not report.found or report.witness.ground.size != m:
                    return False, f"search missed {h.names}"
            return True, "construction and search agree"
        yield f"one-sided-zero-m{m}", check

    def diag_offdiag_3():
        ground = GroundSet(3)
        from .relations import BinaryRelation

        diag = BinaryRelation.diagonal(ground)
        off = BinaryRelation.from_pairs(
            ground, [(x, y) for x in range(3) for y in range(3) if x != y])
        h = generate([diag, off]).to_abstract()
        if h.size != 3:
            return False, f"closure has {h.size} elements"
        report = search_d_transitive(h, max_ground=max_ground)
        if report.found:
            return False, "unexpected witness"
        return True, (f"exhausted n<={max_ground}, "
                      f"{report.candidates_examined} candidates")
    yield "search-diag-offdiag-3", diag_offdiag_3

    def group_with_zero_3():
        report = search_d_transitive(group_with_zero(3),
                                     max_ground=min(3, max_ground))
        if report.found:
            return False, "unexpected witness"
        if report.candidates_examined != 0:
            return False, "zero is not generated by nonzero elements, so no " \
                          "candidates should exist"
        return True, "no zero-free generating set, search empty"
    yield "search-group-with-zero", group_with_zero_3

    def null_band_4():
        report = search_d_transitive(null_band(4),
                                     max_ground=min(3, max_ground))
        if report.found:
            return False, "unexpected witness"
        return True, (f"exhausted n<=3, "
                      f"{report.candidates_examined} candidates")
    yield "search-null-band-4", null_band_4


def _suite_checks(suite: str, maxk: int | None, max_ground: int):
    def bound(default: int) -> int:
        return default if maxk is None else maxk

    if suite in ("sizes", "all"):
        yield from _checks_sizes(bound(5))
    if suite in ("lattice", "all"):
        yield from _checks_lattice(min(bound(3), 3))
    if suite in ("h1", "all"):
        yield from _checks_membership(ProductKind.PLAIN, bound(4), 6)
    if suite in ("hs", "all"):
        yield from _checks_membership(ProductKind.SYM, bound(4), 6)
        yield from _checks_hs_extras()
    if suite in ("iso", "all"):
        yield from _checks_iso(bound(4))
    if suite in ("reps", "all"):
        yield from _checks_reps(max_ground)


def _cmd_verify(args) -> int:
    if args.max is not None and args.max < 1:
        print(f"error: --max must be >= 1, got {args.max}", file=sys.stderr)
        return EXIT_INPUT
    if args.max_ground < 1:
        print(f"error: --max-ground must be >= 1, got {args.max_ground}",
              file=sys.stderr)
        return EXIT_INPUT
    passed = failed = skipped = 0
    for name, check in _suite_checks(args.suite, args.max, args.max_ground):
        start = time.perf_counter()
        try:
            ok, detail = check()
        except (GuardExceededError, ClosureOverflowError) as exc:
            print(f"[SKIP] {name}: guard exceeded ({exc})")
            skipped += 1
            continue
        elapsed = time.perf_counter() - start
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name} ({elapsed:.2f}s) {detail}")
        if ok:
            passed += 1
        else:
            failed += 1
    print(f"summary: passed={passed} failed={failed} skipped={skipped}")
    if passed + failed + skipped == 0:
        print(f"error: suite {args.suite!r} selected no checks",
              file=sys.stderr)
        return EXIT_INPUT
    if failed:
        return EXIT_NEGATIVE
    return EXIT_GUARD if skipped else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
