"""Command line interface: subcommands, formats, exit codes."""

import pytest

from relsem.cli import main
from relsem.fixtures import seven_element_absorbing_union
from relsem.semigroups import format_cay, load_cay, cyclic_group, parse_cay


@pytest.fixture()
def tri_part(tmp_path):
    path = tmp_path / "tri.part"
    path.write_text("n: 3\nblock: 0\nblock: 1\nblock: 2\n")
    return path


@pytest.fixture()
def fixture_cay(tmp_path):
    path = tmp_path / "fix.cay"
    path.write_text(format_cay(seven_element_absorbing_union()))
    return path


def test_gen_partition(tmp_path, tri_part, capsys):
    out = tmp_path / "tri.cay"
    code = main(["gen", "--partition", str(tri_part), "--kind", "symunit",
                 "--out", str(out)])
    assert code == 0
    table = load_cay(out)
    assert table.size == 17
    assert table.names[0] == "R_P"


def test_gen_elements_dir(tmp_path, tri_part):
    out = tmp_path / "tri.cay"
    eldir = tmp_path / "elements"
    code = main(["--quiet", "gen", "--partition", str(tri_part), "--kind",
                 "plain", "--out", str(out), "--elements-dir", str(eldir)])
    assert code == 0
    files = sorted(eldir.iterdir())
    assert len(files) == 10
    first = files[0].read_text()
    assert first.startswith("# element")
    assert "n: 3" in first


def test_gen_relations(tmp_path, capsys):
    a = tmp_path / "diag.rel"
    a.write_text("n: 3\n0 0\n1 1\n2 2\n")
    b = tmp_path / "off.rel"
    b.write_text("n: 3\n" + "".join(f"{x} {y}\n" for x in range(3)
                                    for y in range(3) if x != y))
    code = main(["gen", "--relation", str(a), "--relation", str(b)])
    assert code == 0
    table = parse_cay(capsys.readouterr().out)
    assert table.size == 3


def test_gen_input_errors(tmp_path, capsys):
    assert main(["gen"]) == 2
    bad = tmp_path / "bad.part"
    bad.write_text("n: 2\nblock: 0\n")
    assert main(["gen", "--partition", str(bad), "--kind", "plain"]) == 2
    tri = tmp_path / "t.part"
    tri.write_text("n: 2\nblock: 0\nblock: 1\n")
    assert main(["gen", "--partition", str(tri), "--kind", "nope"]) == 2


def test_classify_fixture(fixture_cay, capsys):
    code = main(["classify", str(fixture_cay)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ii5=FAIL witness=(x2, xy+yx)" in out
    assert "H1=NO" in out
    assert "HS=NO" in out
    assert "HS_UNIT=NO" in out


def test_classify_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.cay"
    assert main(["classify", str(missing)]) == 2
    bad = tmp_path / "bad.cay"
    bad.write_text("elements: a\ntable:\nb\n")
    assert main(["classify", str(bad)]) == 2


def test_iso(tmp_path, capsys):
    a = tmp_path / "a.cay"
    a.write_text("elements: e a\ntable:\ne a\na e\n")
    b = tmp_path / "b.cay"
    b.write_text("elements: x y\ntable:\ny x\nx y\n")
    assert main(["iso", str(a), str(a)]) == 0
    out = capsys.readouterr().out
    assert "e -> e" in out
    # b lists its identity second; still isomorphic
    assert main(["iso", str(a), str(b)]) == 0
    c = tmp_path / "c.cay"
    c.write_text("elements: p q\ntable:\np q\np q\n")
    assert main(["iso", str(a), str(c)]) == 1
    assert "NONE" in capsys.readouterr().out


def test_represent_cli(tmp_path, capsys):
    z2 = tmp_path / "z2.cay"
    z2.write_text(format_cay(cyclic_group(2)))
    assert main(["represent", "--table", str(z2), "--max-ground", "2"]) == 0
    out = capsys.readouterr().out
    assert "FOUND ground=2" in out
    assert "block 0: (0,0) (1,1)" in out
    assert "map: e <-> block 0" in out

    gz = tmp_path / "gz.cay"
    gz.write_text("elements: z e a\ntable:\nz z z\nz e a\nz a e\n")
    assert main(["represent", "--table", str(gz), "--max-ground", "3"]) == 1
    assert "EXHAUSTED n<=3" in capsys.readouterr().out

    assert main(["represent", "--table", str(z2), "--max-ground", "4",
                 "--max-candidates", "5"]) == 3


def test_hasse_cli(tmp_path, fixture_cay, capsys):
    out = tmp_path / "fix.dot"
    assert main(["--quiet", "hasse", str(fixture_cay), "--out",
                 str(out)]) == 0
    dot = out.read_text()
    assert dot.startswith("digraph")
    assert '"0" -> "x2"' in dot
    rz = tmp_path / "rz.cay"
    rz.write_text("elements: a b\ntable:\na b\na b\n")
    assert main(["hasse", str(rz)]) == 2  # band not commutative


def test_oracle_cli(tmp_path, capsys):
    part = tmp_path / "p.part"
    part.write_text("n: 2\nblock: 0\nblock: 1\n")
    assert main(["oracle", "--partition", str(part), "--kind", "sym"]) == 0
    out = capsys.readouterr().out
    assert "kind=sym" in out and "OK" in out
    assert main(["oracle", "--ground", "2"]) == 0
    assert main(["oracle", "--ground", "4"]) == 3  # guard
    capsys.readouterr()
    assert main(["oracle", "--ground", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_suites(capsys):
    assert main(["verify", "--suite", "sizes", "--max", "4"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] size-plain-k2" in out
    assert "FAIL" not in out
    assert out.endswith("summary: passed=12 failed=0 skipped=0\n")
    assert main(["verify", "--suite", "reps", "--max-ground", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] search-group2" in out
    assert out.endswith("summary: passed=6 failed=0 skipped=0\n")
    # a run that checked nothing, or skipped a check, is not a success
    assert main(["verify", "--suite", "sizes", "--max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "summary: passed=0 failed=0 skipped=0\n"
    assert captured.err.startswith("error:")
    assert main(["verify", "--suite", "reps", "--max-ground", "7"]) == 3
    out = capsys.readouterr().out
    assert "[SKIP] search-diag-offdiag-3: guard exceeded" in out
    assert out.endswith("summary: passed=5 failed=0 skipped=1\n")
    assert main(["verify", "--suite", "reps", "--max-ground", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # a --max below 1 is an input error, not the default bound
    assert main(["verify", "--suite", "sizes", "--max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert main(["verify", "--suite", "iso", "--max", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")

