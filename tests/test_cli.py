"""Command-line surface: suites, tables, composition, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liegraphs import cli, defcx, gra, linalg, poly
from liegraphs.cli import FORMAT_VERSION, main
from liegraphs.graphs import OrientedGraph
from liegraphs.linalg import SparseMatrix


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_leaves_out_dataclasses_and_inspect():
    """Every CLI call starts a fresh interpreter and pays for what the
    library imports; dataclasses alone would pull in inspect, ast, dis
    and tokenize."""
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import liegraphs.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout == "[]\n"


def test_verify_gutt(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(["verify", "gutt", "--out", str(report)], capsys)
    assert code == 0
    assert "all checks passed" in out
    rec = json.loads(report.read_text())
    assert rec["format_version"] == FORMAT_VERSION
    assert rec["all_pass"] is True
    ids = [c["id"] for c in rec["checks"]]
    assert ids == sorted(ids) and len(ids) == len(set(ids))
    assert all(c["status"] == "pass" for c in rec["checks"])


def test_verify_operads(capsys):
    code, out, _ = run(["verify", "operads"], capsys)
    assert code == 0
    assert "three-term-compose" in out


def test_verify_complexes(capsys):
    code, out, _ = run(["verify", "complexes"], capsys)
    assert code == 0
    assert "(6,10) slice (ker,im,coh)=(1,0,1)" in out


def test_verify_all_and_a_crashing_check(capsys, monkeypatch, tmp_path):
    """`verify all` runs the checks of every suite, sorted by id.  A
    check that raises is reported as a failing check with its message,
    and the exit status is then 1."""
    report = tmp_path / "report.json"
    code, _, _ = run(["verify", "all", "--out", str(report)], capsys)
    ids = [c["id"] for c in json.loads(report.read_text())["checks"]]
    assert code == 0
    assert ids == sorted(cid for s in cli.SUITES.values() for cid, _ in s)

    def crash():
        raise ArithmeticError("boom")

    monkeypatch.setitem(cli.SUITES, "gutt", [("crash", crash)])
    code, out, _ = run(["verify", "gutt", "--out", str(report)], capsys)
    assert code == 1 and "FAIL crash" in out and "FAILURES PRESENT" in out
    rec = json.loads(report.read_text())
    assert rec["all_pass"] is False
    assert rec["checks"] == [{"id": "crash", "status": "fail",
                              "witness": "exception: boom"}]


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nope"])


def test_complex_choices_are_the_table_limits(capsys):
    """The CLI's tables and the library's chains name the same
    complexes, with one table limit per component of the slice key, and
    `--complex` offers them in the order of `cli._TABLE_LIMITS`."""
    assert set(cli._TABLE_LIMITS) == set(defcx._BOUNDS)
    for complex_id, names in cli._TABLE_LIMITS.items():
        assert len(names) == len(defcx._BOUNDS[complex_id][0])
    with pytest.raises(SystemExit):
        main(["cohomology", "--help"])
    choices = "{" + ",".join(cli._TABLE_LIMITS) + "}"
    assert f"--complex {choices}" in capsys.readouterr().out


def test_cohomology_deterministic(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for base in (a, b):
        code, _, _ = run(["cohomology", "--complex", "gc", "--d", "2",
                          "--max-vertices", "4", "--max-edges", "6",
                          "--out", str(base)], capsys)
        assert code == 0
    for ext in (".csv", ".json"):
        assert (a.parent / (a.name + ext)).read_bytes() \
            == (b.parent / (b.name + ext)).read_bytes()
    csv_text = (a.parent / "a.csv").read_text()
    assert csv_text.splitlines()[0] == \
        "complex,d,bidegree,basis dim,kernel dim,image dim,cohomology dim"
    assert "gc,2,4:6,1,1,0,1" in csv_text
    rec = json.loads((a.parent / "a.json").read_text())
    row = [r for r in rec["rows"] if r["bidegree"] == "4:6"][0]
    assert row["cohomology_dim"] == 1
    # the witness is the tetrahedron class
    assert len(row["witness"]) == 1
    assert len(row["witness"][0]["graph"]["edges"]) == 6


def test_cohomology_def_lie(capsys):
    code, out, _ = run(["cohomology", "--complex", "def-lie", "--d", "1",
                        "--arity", "3", "--format", "csv"], capsys)
    assert code == 0
    assert "def-lie,1,2,1,1,0,1" in out


def test_cohomology_out_of_bounds(capsys):
    cases = [(["--complex", "gc", "--d", "1", "--max-vertices", "9",
               "--max-edges", "3"], "bounds"),
             # (2, 4) is in bounds, but its differential leaves the grid
             (["--complex", "def-olie", "--d", "2", "--arity", "2",
               "--internal", "4"], "left the slice grid")]
    for argv, why in cases:
        code, _, err = run(["cohomology"] + argv, capsys)
        assert code == 1
        assert err.startswith("error:") and why in err
        assert "Traceback" not in err


# sha256 of the `cohomology --format json` stdout of five tables.  The
# first three were computed at commit ee73043, where slice matrices were
# still written in the successor's generators; the fcgc and gc tables
# hold witnesses decided over nonzero incoming images.  The last two
# were computed at commit e776792, before the elements shared one
# linear-combination type: def-lie d=2 relabels Lie words with the
# even-d sign, def-olie d=2 takes the even-d Koszul signs.
TABLE_DIGESTS = [
    (["--complex", "fcgc", "--d", "1", "--max-vertices", "4",
      "--max-edges", "6"],
     "217b6746139bb7c22a5dcf8578340b99084c382a50e87a014816d3f5e068aed7"),
    (["--complex", "gc", "--d", "1", "--max-vertices", "5",
      "--max-edges", "7"],
     "d45dfb3be18dfd6717880cdc690ece51cfdcd7195c4d470551a7961efb326d22"),
    (["--complex", "def-olie", "--d", "1", "--arity", "2",
      "--internal", "3"],
     "b741076fd38990ceffb0d0210f001fb2fea60ad5d03f37e0f5d309bb1616a977"),
    (["--complex", "def-lie", "--d", "2", "--arity", "5"],
     "8bca948e2064a1845e7829e0458caf6460ad1cded8b170b389b67dc869e885c2"),
    (["--complex", "def-olie", "--d", "2", "--arity", "2",
      "--internal", "3"],
     "a133f3da7360785b3e40f28b4c9472d90dccc402de3a5d9007068c51b833870d"),
]


@pytest.mark.parametrize("argv,digest", TABLE_DIGESTS,
                         ids=["fcgc-d1", "gc-d1", "def-olie-d1", "def-lie-d2",
                              "def-olie-d2"])
def test_cohomology_json_byte_identical(capsys, argv, digest):
    code, out, _ = run(["cohomology"] + argv + ["--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cohomology_builds_witnesses_only_for_json(capsys, monkeypatch,
                                                  tmp_path):
    """The JSON rows, and the witness of every slice with cohomology in
    them, are built only for the outputs that print them: `--format
    json` and `--out`.  The CSV and text tables search for none."""
    calls = []

    def spy(chain, key, _inner=defcx.Chain.witness):
        calls.append(key)
        return _inner(chain, key)

    monkeypatch.setattr(defcx.Chain, "witness", spy)
    table = ["cohomology", "--complex", "gc", "--d", "2",
             "--max-vertices", "4", "--max-edges", "6"]
    for extra, searched in ((["--format", "csv"], False),
                            (["--format", "text"], False),
                            (["--format", "json"], True),
                            (["--format", "csv", "--out",
                              str(tmp_path / "t")], True)):
        calls.clear()
        code, out, _ = run(table + extra, capsys)
        assert code == 0 and out
        assert calls == ([(4, 6)] if searched else []), extra


# sha256 of the `verify gutt --out` report, computed at commit 4100624,
# when every coefficient was a Fraction.  The skew-series witness prints
# the reprs of its coefficients, so the report pins that
# `gutt.series_coefficient` still returns Fractions.
GUTT_REPORT_DIGEST = \
    "a9011737cf0c9b7d84341b43fc175a015639c9c8f9de9ec208c833e81bb53d3b"


def test_verify_gutt_report_byte_identical(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run(["verify", "gutt", "--out", str(report)], capsys)
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() \
        == GUTT_REPORT_DIGEST


def test_witness_exactness_over_incoming_images():
    """Every table row with an incoming image, and every def row with
    cohomology: the witness is decided against the predecessor's
    images, and is missing exactly when the cohomology is zero.  A
    witness is closed, and a graph witness is not exact in the
    coordinates of the slice's own generators.  Every def row with
    cohomology has image dim 0, so a def witness is not yet tested for
    non-exactness over a nonzero image."""
    cases = [("fcgc", 1, (4, 4)), ("fcgc", 1, (4, 5)), ("fcgc", 1, (4, 6)),
             ("gc", 1, (4, 6)), ("def-olie", 1, (2, 1)),
             ("def-olie", 2, (2, 1))]
    def_rows = [("def-olie", 1, (2, 2)), ("def-olie", 1, (2, 3)),
                ("def-olie", 2, (1, 1)), ("def-lie", 1, (2,)),
                ("def-lie", 2, (2,))]
    for complex_id, d, key in cases + def_rows:
        chain = defcx.Chain(complex_id, d)
        sl = chain.slice(key)
        _, image, coh = chain.cohomology(key)
        assert image > 0 if (complex_id, d, key) in cases else coh > 0
        witness = chain.witness(key)
        assert (witness is None) == (coh == 0), (complex_id, d, key)
        if witness is None:
            continue
        if complex_id.startswith("def-"):
            assert defcx.def_differential(witness).is_zero()
            continue
        mv = 3 if complex_id == "gc" else 1
        combo = {OrientedGraph.from_json(w["graph"]): Fraction(w["coeff"])
                 for w in cli._serialize_witness(witness)}
        assert combo == witness
        assert defcx.gc_differential_combo(combo, mv) == {}
        pred = chain.pred(sl)
        incoming = SparseMatrix.from_columns(
            [{sl.basis.index(g): c
              for g, c in defcx.gc_differential(x, mv).items()}
             for x in pred.basis], len(sl.basis), n_cols=len(pred.basis))
        assert not linalg.in_image(
            incoming, {sl.basis.index(g): c for g, c in combo.items()})


def _write(tmp_path, name, rec):
    path = tmp_path / name
    path.write_text(json.dumps(rec))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["cohomology", "--complex", "gc", "--d", "2", "--out", "{out}/t"],
    ["verify", "gutt", "--out", "{out}/r.json"],
    ["compose", "{input}", "--op", "olie", "--i", "1", "--out",
     "{out}/x.json"]], ids=["cohomology", "verify", "compose"])
def test_unwritable_out_is_an_error(capsys, tmp_path, argv):
    """An --out that cannot be written ends the command with one
    `error:` line on stderr and exit code 1, not a traceback."""
    corolla = poly.make_term(2, 1, [(1, 2)]).to_json()
    paths = {"out": str(tmp_path / "missing"),
             "input": _write(tmp_path, "in.json",
                             {"format_version": FORMAT_VERSION,
                              "a": corolla, "b": corolla})}
    code, _, err = run([a.format(**paths) for a in argv], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "missing").exists()


def test_compose_three_term_example(capsys, tmp_path):
    corolla = poly.make_term(2, 1, [(1, 2)])
    f = _write(tmp_path, "in.json",
               {"format_version": FORMAT_VERSION,
                "a": corolla.to_json(), "b": corolla.to_json()})
    out_path = tmp_path / "out.json"
    code, _, _ = run(["compose", f, "--op", "olie", "--i", "2",
                      "--out", str(out_path)], capsys)
    assert code == 0
    rec = json.loads(out_path.read_text())
    got = poly.OElement.from_json(rec["result"])
    assert got == poly.o_compose(corolla, 2, corolla)
    assert len(rec["result"]["terms"]) == 3


def test_compose_unit_echo(capsys, tmp_path):
    g = gra.element(OrientedGraph(1, 3, ((1, 2), (1, 3))))
    f = _write(tmp_path, "in.json",
               {"format_version": FORMAT_VERSION,
                "a": g.to_json(), "b": gra.unit(1).to_json()})
    code, out, _ = run(["compose", f, "--op", "gra", "--i", "2"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert gra.GraElement.from_json(rec["result"]) == g


def test_compose_parse_error_location(capsys, tmp_path):
    bad = {"format_version": FORMAT_VERSION,
           "a": {"arity": 2, "d": 1, "kind": "lie",
                 "terms": [{"coeff": "1",
                            "components": [{"word": "[1, [2",
                                            "attach": [1, 2]}]}]},
           "b": poly.make_term(2, 1, [(1, 2)]).to_json()}
    f = _write(tmp_path, "bad.json", bad)
    code, _, err = run(["compose", f, "--op", "olie", "--i", "1"], capsys)
    assert code == 1
    assert "line 1" in err and "column" in err


def test_compose_malformed_file(capsys, tmp_path):
    """A missing file, a non-object top level and non-list terms are
    reported as errors, never as a traceback."""
    g = gra.unit(1).to_json()
    cases = [str(tmp_path / "missing.json"),
             _write(tmp_path, "list.json", [g, g]),
             _write(tmp_path, "terms.json",
                    {"format_version": FORMAT_VERSION,
                     "a": dict(g, terms=5), "b": g})]
    for f in cases:
        code, _, err = run(["compose", f, "--op", "gra", "--i", "1"],
                           capsys)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err


def test_compose_rejects_unknown_major(capsys, tmp_path):
    g = gra.unit(1)
    f = _write(tmp_path, "v2.json",
               {"format_version": "2.0", "a": g.to_json(),
                "b": g.to_json()})
    code, _, err = run(["compose", f, "--op", "gra", "--i", "1"], capsys)
    assert code == 1
    assert "format_version" in err


def _corolla_json(**component):
    """The d=1 corolla's JSON with its one component replaced."""
    rec = poly.make_term(2, 1, [(1, 2)]).to_json()
    rec["terms"][0]["components"] = [component]
    return rec


BAD_OPERANDS = {
    "slot-0": _corolla_json(word="[0, 1]", attach=[1, 2]),
    "ass-slot-0": dict(_corolla_json(word="0 1", attach=[1, 2]),
                       kind="ass"),
    "white-out-of-range": _corolla_json(word="[1, 2]", attach=[1, 7]),
    "white-float": _corolla_json(word="[1, 2]", attach=[1.5, 2]),
    "white-bool": _corolla_json(word="[1, 2]", attach=[1, True]),
    "unused-slot": _corolla_json(word="[1, 2]", attach=[1, 2, 2]),
    "repeated-slot": _corolla_json(word="[1, 1]", attach=[1, 2]),
    "ass-empty-component": dict(_corolla_json(word="", attach=[]),
                                kind="ass"),
    "float-coeff": dict(poly.make_term(2, 1, [(1, 2)]).to_json(),
                        terms=[{"coeff": 0.1, "components": [
                            {"word": "[1, 2]", "attach": [1, 2]}]}]),
    "bool-coeff": dict(poly.make_term(2, 1, [(1, 2)]).to_json(),
                       terms=[{"coeff": True, "components": [
                           {"word": "[1, 2]", "attach": [1, 2]}]}]),
}


@pytest.mark.parametrize("name", sorted(BAD_OPERANDS))
def test_compose_rejects_bad_operand(capsys, tmp_path, name):
    a = BAD_OPERANDS[name]
    f = _write(tmp_path, "bad.json",
               {"format_version": FORMAT_VERSION, "a": a,
                "b": poly.make_term(2, 1, [(1, 2)], kind=a["kind"])
                .to_json()})
    code, out, err = run(["compose", f, "--op", "olie", "--i", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


_COROLLA = poly.make_term(2, 1, [(1, 2)]).to_json()
COMPOSE_ERROR_EXITS = {
    "slot-0": ("0", {"format_version": FORMAT_VERSION,
                     "a": _COROLLA, "b": _COROLLA}),
    "slot-past-arity": ("4", {
        "format_version": FORMAT_VERSION,
        "a": poly.make_term(3, 1, [(1, 2, 3)]).to_json(), "b": _COROLLA}),
    "missing-format-version": ("1", {"a": _COROLLA, "b": _COROLLA}),
}


@pytest.mark.parametrize("name", sorted(COMPOSE_ERROR_EXITS))
def test_compose_error_exits(capsys, tmp_path, name):
    i, rec = COMPOSE_ERROR_EXITS[name]
    f = _write(tmp_path, "bad.json", rec)
    code, out, err = run(["compose", f, "--op", "olie", "--i", i], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_compose_rejects_unknown_kind(capsys, tmp_path):
    a = dict(poly.make_term(2, 1, [(1, 2)]).to_json(), kind="foo")
    f = _write(tmp_path, "bad.json",
               {"format_version": FORMAT_VERSION, "a": a, "b": a})
    code, out, err = run(["compose", f, "--op", "olie", "--i", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "kind" in err


def _edge_json(d=1, vertices=2, arity=2, coeff="1"):
    """The JSON of the one-edge Gra element with these fields."""
    return {"arity": arity, "d": d,
            "terms": [{"coeff": coeff, "graph": {
                "d": d, "vertices": vertices, "edges": [[1, 2]]}}]}


def _corolla_with(coeff="1", **fields):
    """The d=1 corolla's JSON with these fields and coefficient."""
    return dict(_COROLLA, **fields,
                terms=[dict(_COROLLA["terms"][0], coeff=coeff)])


# (op, operand a, text the error line must hold)
COMPOSE_BAD_INPUTS = {
    "gra-d-float": ("gra", _edge_json(d=1.5), "1.5"),
    "gra-d-bool": ("gra", _edge_json(d=True), "True"),
    "gra-arity-float": ("gra", _edge_json(vertices=2.5, arity=2.5), "2.5"),
    "gra-coeff-1/0": ("gra", _edge_json(coeff="1/0"), "'1/0'"),
    "gra-coeff-bool": ("gra", _edge_json(coeff=True), "True"),
    "olie-d-float": ("olie", _corolla_with(d=1.5), "1.5"),
    "olie-d-bool": ("olie", _corolla_with(d=True), "True"),
    "olie-arity-float": ("olie", _corolla_with(arity=2.5), "2.5"),
    "olie-coeff-1/0": ("olie", _corolla_with(coeff="1/0"), "'1/0'"),
}


@pytest.mark.parametrize("name", sorted(COMPOSE_BAD_INPUTS))
def test_compose_rejects_non_int_shape_and_zero_denominator(
        capsys, tmp_path, name):
    """A d, vertex count or arity that is not an int, and a coefficient
    that divides by zero, end in one error line and exit status 1."""
    op, a, why = COMPOSE_BAD_INPUTS[name]
    b = _edge_json() if op == "gra" else _COROLLA
    f = _write(tmp_path, "bad.json",
               {"format_version": FORMAT_VERSION, "a": a, "b": b})
    code, out, err = run(["compose", f, "--op", op, "--i", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert why in err and "Traceback" not in err


# sha256 of the `compose` stdout for an olie d=2 input whose white 2
# occurs twice in some terms, and for an ass input, both at --i 2;
# computed at commit 4a76473, before markers became negative leaves.
COMPOSE_DIGESTS = {
    "olie-d2":
        "7b6318ff890d468bf9937f1f42fc8206823aadc8d69d4aa5108f4db900cca977",
    "ass":
        "4297764eb877b73ee0b6113ca9eb1fdd9e9a5b917eaa1996c29608dd1b2045b7",
}


def _compose_operands(kind):
    if kind == "olie-d2":
        a = (poly.make_term(3, 2, [(1, 2), (2, 3)])
             + poly.make_term(3, 2, [(2, 2), (1, 3)], 3)
             + poly.make_term(3, 2, [(1, 2, 2)], -2))
        b = poly.make_term(2, 2, [(1, 2)]) \
            + poly.make_term(2, 2, [(1, 1, 2)], 5)
    else:
        a = (poly.make_term(3, 1, [(2, 1, 2), (3, 2)], kind="ass")
             - poly.make_term(3, 1, [(1, 3)], kind="ass"))
        b = (poly.make_term(2, 1, [(2, 1)], kind="ass")
             + poly.make_term(2, 1, [(1, 1, 2), (2,)], 2, kind="ass"))
    return a, b


@pytest.mark.parametrize("kind", sorted(COMPOSE_DIGESTS))
def test_compose_output_byte_identical(capsys, tmp_path, kind):
    a, b = _compose_operands(kind)
    f = _write(tmp_path, "in.json", {"format_version": FORMAT_VERSION,
                                     "a": a.to_json(), "b": b.to_json()})
    code, out, _ = run(["compose", f, "--op", "olie", "--i", "2"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMPOSE_DIGESTS[kind]
