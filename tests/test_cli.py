"""Command-line surface: parsing, subcommands, exit codes, CSV format."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import lattice_equiv
from conftest import random_polygon, run_in_small_address_space, seeded
from lattice_equiv import DegenerateInput, LatticePolytope, ParseError
from lattice_equiv.cli import (
    emit_census_csv,
    parse_polytope,
    polytope_document,
    run_command,
)


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SQUARE_DOC = {"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}
WIDE_DOC = {"dim": 2, "points": [[0, 0], [9, 0], [0, 10]]}
TALL_DOC = {"dim": 2, "points": [[0, 0], [6, 0], [0, 15]]}


def test_parse_polytope_examples():
    p, dropped = parse_polytope(
        json.dumps({"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]}))
    assert p.vertices == ((0, 0), (1, 0), (0, 1))
    assert not dropped

    p, dropped = parse_polytope(
        json.dumps({"dim": 2, "points": [[0, 0], [2, 0], [0, 2], [1, 1]]}))
    assert p.vertices == ((0, 0), (2, 0), (0, 2))
    assert dropped

    with pytest.raises(DegenerateInput):
        parse_polytope(json.dumps({"dim": 2, "points": [[0, 0], [1, 1]]}))


def test_parse_polytope_rejects_malformed():
    with pytest.raises(ParseError):
        parse_polytope("not json")
    with pytest.raises(ParseError):
        parse_polytope(json.dumps({"points": [[0, 0], [1, 0], [0, 1]]}))
    with pytest.raises(ParseError):
        parse_polytope(json.dumps({"dim": 2, "points": []}))
    with pytest.raises(ParseError):
        parse_polytope(
            json.dumps({"dim": 2, "points": [[0, 0], [1.5, 0], [0, 1]]}))


def test_parse_serialize_round_trip():
    rng = seeded(79)
    for _ in range(40):
        p = random_polygon(rng)
        q, dropped = parse_polytope(json.dumps(polytope_document(p)))
        assert q == p and not dropped


def test_invariants_command(capsys, files):
    code, out, err = run(capsys, ["invariants", files("sq.json", SQUARE_DOC)])
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["volume_vector"]["entries"] == [1, 1, 1, 1]
    assert doc["volume_vector"]["combinations"][0] == [0, 1, 2]
    assert doc["primitive"] == {"content": 1, "direction": [1, 1, 1, 1]}
    assert doc["normalized_volume"] == 2
    assert doc["lattice_heights"]["abs_multiset"] == [1] * 12
    assert doc["sublattice_index"] == 1
    assert doc["attains_minimal_volume"] is True


def test_equiv_modes(capsys, files):
    a, b = files("a.json", WIDE_DOC), files("b.json", TALL_DOC)
    code, out, _ = run(capsys, ["equiv", "--mode", "affine", "--witness",
                                a, b])
    assert code == 0
    assert out.startswith("equivalent")
    witness = json.loads(out.split("\n", 1)[1])
    assert witness["matrix"] == [["2/3", "0"], ["0", "3/2"]]
    assert witness["determinant"] == "1"

    code, out, _ = run(capsys, ["equiv", "--mode", "unimodular", a, b])
    assert code == 1
    assert out.strip() == "not-equivalent"

    code, out, _ = run(capsys, ["equiv", "--mode", "det-one", "--witness",
                                a, b])
    assert code == 0
    assert json.loads(out.split("\n", 1)[1])["determinant"] == "1"


# equiv --witness output in each mode, pinned.  The polygon pair's
# witness reflects (determinant -2) and is solved as rows, shift and
# denominator sharing the factor 6; the 3d pair's is solved over the
# negative denominator -4 with the factor 2 in common.
PINNED_WITNESSES = [
    ({"dim": 2, "points": [[0, 0], [3, 0], [4, 2], [1, 3]]},
     {"dim": 2, "points": [[2, -1], [2, 5], [4, 7], [5, 1]]},
     {"affine": {"bijection": [0, 3, 2, 1],
                 "matrix": [["0", "2"], ["1", "0"]],
                 "translation": ["2", "-1"], "determinant": "-2"}}),
    ({"dim": 3, "points": [[1, -1, 1], [-1, 1, -1], [0, 1, 0], [0, -1, 0],
                           [-1, 1, 1], [1, -1, -1]]},
     {"dim": 3, "points": [[1, -1, -2], [-3, 3, -2], [-3, -1, -3],
                           [1, 3, -1], [-2, 1, -2], [0, 1, -2]]},
     {"affine": {"bijection": [0, 1, 2, 3, 4, 5],
                 "matrix": [["-1/2", "-3", "-1"], ["-2", "-2", "-1"],
                            ["1/2", "-1", "0"]],
                 "translation": ["-1", "1", "-2"], "determinant": "-1"},
      "det-one": {"bijection": [0, 1, 4, 5, 2, 3],
                  "matrix": [["1", "0", "1/2"], ["-1", "0", "0"],
                             ["0", "-2", "-1/2"]],
                  "translation": ["-1", "1", "-2"], "determinant": "1"}}),
]


@pytest.mark.parametrize("first, second, witnesses", PINNED_WITNESSES,
                         ids=["polygons", "3d"])
def test_equiv_witness_output_is_pinned(capsys, files, first, second,
                                        witnesses):
    a, b = files("a.json", first), files("b.json", second)
    for mode in ("affine", "unimodular", "det-one"):
        code, out, _ = run(capsys, ["equiv", "--mode", mode, "--witness",
                                    a, b])
        if mode in witnesses:
            assert code == 0
            assert out == "equivalent\n" + json.dumps(
                witnesses[mode], indent=2) + "\n"
        else:
            assert (code, out) == (1, "not-equivalent\n")


def test_equiv_unimodular_witness_carries_each_vertex(capsys, files):
    points = [[0, 0], [3, 0], [4, 2], [1, 3]]
    sheared = [[x + 2 * y + 1, y - 2] for x, y in points]
    docs = ({"dim": 2, "points": points}, {"dim": 2, "points": sheared})
    a, b = files("a.json", docs[0]), files("b.json", docs[1])
    code, out, _ = run(capsys, ["equiv", "--mode", "unimodular", "--witness",
                                a, b])
    assert code == 0
    assert out.startswith("equivalent")
    witness = json.loads(out.split("\n", 1)[1])
    matrix = [[Fraction(x) for x in row] for row in witness["matrix"]]
    shift = [Fraction(x) for x in witness["translation"]]
    assert all(x.denominator == 1 for x in (*matrix[0], *matrix[1], *shift))
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    assert abs(det) == 1 and witness["determinant"] == str(det)
    p, q = (parse_polytope(json.dumps(doc))[0] for doc in docs)
    assert sorted(witness["bijection"]) == list(range(4))
    for (x, y), j in zip(p.vertices, witness["bijection"]):
        assert [x * matrix[0][c] + y * matrix[1][c] + shift[c]
                for c in (0, 1)] == list(q.vertices[j])


def test_equiv_without_witness_is_terse(capsys, files):
    a = files("a.json", SQUARE_DOC)
    code, out, _ = run(capsys, ["equiv", "--mode", "unimodular", a, a])
    assert code == 0
    assert out.strip() == "equivalent"


def test_canon_triangle(capsys, files):
    tri = files("tri.json", {"dim": 2, "points": [[0, 0], [2, 0], [1, 2]]})
    code, out, _ = run(capsys, ["canon", tri])
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "triangle"
    assert (doc["g"], doc["b"], doc["a"]) == (1, 4, 2)
    assert doc["vertices"] == [[0, 0], [1, 0], [2, 4]]


def test_canon_polygon(capsys, files):
    diamond = files("d.json",
                    {"dim": 2, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]})
    code, out, _ = run(capsys, ["canon", diamond])
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "polygon"
    assert doc["vertices"] == [[0, 0], [1, 0], [2, 2], [1, 2]]


def test_vmin_command(capsys, files):
    wide = files("w.json", {"dim": 2, "points": [[0, 0], [2, 0], [0, 2]]})
    code, out, _ = run(capsys, ["vmin", wide])
    assert code == 0
    doc = json.loads(out)
    assert doc["sublattice_index"] == 4
    assert doc["attains_minimal_volume"] is False
    assert doc["normalized_volume"] == 4
    assert doc["minimal_volume"] == 1
    assert doc["vertices"] == [[0, 0], [1, 0], [0, 1]]
    assert doc["map"]["determinant"] == "1/4"


def test_vmin_command_in_three_dimensions(capsys, files):
    # The difference lattice has the non-diagonal basis (1, 0, 3),
    # (0, 1, 3), (0, 0, 6), so the shrink map shears as it scales.
    simplex = files("s.json", {"dim": 3, "points": [
        [1, -1, 0], [3, -1, 0], [2, 0, 0], [2, -1, 3]]})
    code, out, _ = run(capsys, ["vmin", simplex])
    assert code == 0
    doc = json.loads(out)
    assert doc["sublattice_index"] == 6
    assert doc["attains_minimal_volume"] is False
    assert doc["normalized_volume"] == 6
    assert doc["minimal_volume"] == 1
    assert doc["vertices"] == [[0, 0, 0], [2, 0, -1], [1, 1, -1], [1, 0, 0]]
    assert doc["map"] == {
        "matrix": [["1", "0", "-1/2"], ["0", "1", "-1/2"], ["0", "0", "1/6"]],
        "translation": ["-1", "1", "0"],
        "determinant": "1/6",
    }


def test_census_csv_single_row(capsys):
    code, out, _ = run(capsys, ["census", "--ball-r", "1", "--csv"])
    assert code == 0
    assert out == ("param,H,K,A,logK_over_logH,logA_over_logH\n"
                   "1,9,3,2,0.500000,0.315465\n")


def test_census_csv_empty_region(capsys):
    code, out, _ = run(capsys, ["census", "--ball-r", "0", "--csv"])
    assert code == 0
    assert out.splitlines()[1] == "0,0,0,0,,"


def test_census_csv_multiple_rows(capsys):
    # rows come balls first, then boxes, then orthant balls
    code, out, _ = run(capsys, ["census", "--ball-r", "1", "--orthant-ball-r",
                                "2", "--box-side", "1", "--csv"])
    assert code == 0
    assert out.splitlines()[1:] == ["1,9,3,2,0.500000,0.315465",
                                    "1,5,2,2,0.430677,0.430677",
                                    "2,23,5,3,0.513296,0.350379"]


def test_census_csv_square_root_radius(capsys):
    # the ball of radius sqrt(2) holds the 3x3 square, like box:2
    code, out, _ = run(capsys, ["census", "--ball-r", "sqrt(2)",
                                "--orthant-ball-r", "sqrt(2)", "--csv"])
    assert code == 0
    assert out.splitlines()[1:] == ["sqrt(2),168,17,9,0.552934,0.428813",
                                    "sqrt(2),5,2,2,0.430677,0.430677"]


def test_census_json_includes_histogram(capsys):
    code, out, _ = run(capsys, ["census", "--ball-r", "1"])
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["region"] == "ball:1"
    assert (rows[0]["h"], rows[0]["k"], rows[0]["a"]) == (9, 3, 2)
    assert rows[0]["volume_histogram"] == {"1": 4, "2": 4, "4": 1}


def test_census_json_labels_an_exact_rational_radius(capsys):
    code, out, _ = run(capsys, ["census", "--ball-r", "1.5"])
    assert code == 0
    row, = json.loads(out)
    assert (row["region"], row["param"]) == ("ball:3/2", "3/2")


def test_census_csv_deterministic(capsys):
    first = run(capsys, ["census", "--ball-r", "2", "--csv"])
    second = run(capsys, ["census", "--ball-r", "2", "--workers", "3",
                          "--csv"])
    assert first == second


def test_outputs_identical_across_worker_counts(capsys):
    commands = [
        (0, ["census", "--csv", "--ball-r", "0", "--ball-r", "1",
             "--ball-r", "2", "--box-side", "1", "--box-side", "2",
             "--box-side", "3"]),
        (1, ["scan-primitivity", "--ball-r", "2"]),
    ]
    for code, argv in commands:
        outputs = [run(capsys, argv + ["--workers", workers])[:2]
                   for workers in ("1", "2", "3")]
        assert outputs[0][0] == code and outputs[0][1], argv
        assert outputs == [outputs[0]] * 3, argv


def test_census_rejects_bad_worker_counts(capsys):
    # Rejected before any pool exists, so no process is started.
    for workers in ("-3", "0"):
        code, out, err = run(capsys, ["census", "--ball-r", "1",
                                      "--workers", workers])
        assert code == 3
        assert out == ""
        assert "workers" in err


def test_emit_census_csv_is_pure():
    rows = [("1", 9, 3, 2), ("0", 0, 0, 0)]
    text = emit_census_csv(rows)
    assert text == emit_census_csv(rows)
    assert text == ("param,H,K,A,logK_over_logH,logA_over_logH\n"
                    "1,9,3,2,0.500000,0.315465\n"
                    "0,0,0,0,,\n")


def test_classes_by_volume_command(capsys):
    code, out, _ = run(capsys, ["classes-by-volume", "--volume", "3",
                                "--shape", "triangles"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["box_complete_guaranteed"] is True


@pytest.mark.parametrize("side_args, box_side",
                         [([], None), (["--box-side", "4"], 4)])
def test_classes_by_volume_box_fields(capsys, side_args, box_side):
    # Growth is exact and searches no box: the box fields are constants,
    # and --box-side is no longer an option.
    code, out, err = run(capsys, ["classes-by-volume", "--volume", "4"]
                         + side_args)
    if box_side is not None:
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --box-side" in err
        return
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 7
    assert doc["box_side"] is None
    assert doc["box_complete_guaranteed"] is True


def test_build_lv_command(capsys):
    code, out, _ = run(capsys, ["build-lv", "--volume", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert [r["vertices"] for r in doc["representatives"]] == \
        [[[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 0], [2, 0], [0, 1]]]
    assert all(r["normalized_volume"] == 2 for r in doc["representatives"])


def test_barany_command(capsys):
    code, out, _ = run(capsys, ["barany", "--r", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == 1
    assert doc["base_vertices"] == [[0, 0], [4, 0], [0, 4]]
    assert doc["added_lattice_points"] == [[4, 1]]
    assert doc["volume_delta"] == 4
    assert doc["shave_round_trip"] == {"removed_volume": 4,
                                       "recovers_base": True}


def test_barany_requires_one_radius(capsys):
    code, _, err = run(capsys, ["barany", "--r", "2", "--radius-sq", "4"])
    assert code == 2 and "exactly one" in err
    code, _, _ = run(capsys, ["barany"])
    assert code == 2


def test_barany_over_the_hull_cap_is_an_input_error(capsys):
    code, _, err = run(capsys, ["barany", "--r", "1000000"])
    assert code == 3 and "cap 1000" in err


def test_scan_primitivity_command(capsys):
    code, out, _ = run(capsys, ["scan-primitivity", "--ball-r", "2"])
    # clean scan: nothing found is exit 1, mirroring equiv's semantics
    assert code == 1
    doc = json.loads(out)
    assert doc["examined"] == 550
    assert doc["counterexamples"] == []


def test_hull_warning_on_stderr(capsys, files):
    edge = files("e.json",
                 {"dim": 2, "points": [[0, 0], [2, 0], [0, 2], [1, 1]]})
    code, _, err = run(capsys, ["invariants", edge])
    assert code == 0
    assert "convex hull" in err


def test_3d_input_is_replaced_by_its_hull(capsys, files):
    # A cube of side 2 plus its centre reads as the cube, with a warning;
    # 2 * unit simplex plus (1, 0, 0), a point on an edge, reads as the
    # simplex, so the two are equivalent.  A repeated vertex is dropped
    # without a warning, as in the plane, and the kept vertices stay in
    # input order.  Points that do not span space are bad input.
    corners = [[x, y, z] for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    cube = files("cube.json", {"dim": 3, "points": corners})
    centred = files("centred.json",
                    {"dim": 3, "points": corners[:4] + [[1, 1, 1]]
                     + corners[4:] + [corners[0]]})
    code, plain, err = run(capsys, ["invariants", cube])
    assert (code, err) == (0, "")
    assert json.loads(plain)["vertex_count"] == 8
    code, out, err = run(capsys, ["invariants", centred])
    assert (code, out) == (0, plain)
    assert "centred.json" in err and "convex hull" in err
    simplex = [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]]
    two = files("two.json", {"dim": 3, "points": simplex})
    edged = files("edged.json", {
        "dim": 3, "points": simplex[:1] + [[1, 0, 0]] + simplex[1:]})
    code, out, err = run(capsys, ["equiv", "--mode", "affine", edged, two])
    assert (code, out) == (0, "equivalent\n")
    assert "edged.json" in err and "convex hull" in err
    repeated = json.dumps({"dim": 3, "points": simplex + [[0, 0, 0]]})
    assert parse_polytope(repeated) \
        == (LatticePolytope(3, tuple(map(tuple, simplex))), False)
    for flat in (simplex[:3], simplex[:3] + [[2, 2, 0]], [[1, 1, 1]] * 5):
        path = files("flat.json", {"dim": 3, "points": flat})
        assert run(capsys, ["invariants", path])[0] == 3


def test_each_3d_input_takes_one_volume_vector(capsys, files, monkeypatch):
    # parse_polytope keeps the hull it takes as the polytope's record, and
    # invariants and equiv read the volume vector there: one vector per
    # input whose points are all vertices.  An input with a point to drop
    # takes a second, as the constructor hulls the kept vertices anew.
    invariants = import_module("lattice_equiv.invariants")
    calls = []
    real = invariants._volume_vector
    monkeypatch.setattr(invariants, "_volume_vector",
                        lambda pts, d: calls.append(d) or real(pts, d))
    corners = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    cube = files("cube.json", {"dim": 3, "points": corners})
    sheared = files("sheared.json", {"dim": 3, "points": [
        [x + y, y, z] for x, y, z in corners]})
    centred = files("centred.json", {"dim": 3, "points": [
        [2 * c for c in corner] for corner in corners] + [[1, 1, 1]]})
    for argv, out, count in (
            (["invariants", cube], None, 1),
            (["equiv", "--mode", "affine", cube, sheared], "equivalent\n", 2),
            (["invariants", centred], None, 2)):
        calls.clear()
        code, printed, _ = run(capsys, argv)
        assert code == 0 and out in (None, printed)
        assert calls == [3] * count, argv


def test_4d_input_is_replaced_by_its_hull(capsys, files):
    # In dimension 4 the hull is taken as in 3D: of the unit simplex plus
    # (1, 1, 1, 1) and (0, 0, 0, 2), the point (0, 0, 0, 1) halves an edge
    # and is dropped with a warning, and the six vertices stay in input
    # order.  Points that are all vertices are kept as given, silently.
    points = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
              [0, 0, 0, 1], [1, 1, 1, 1], [0, 0, 0, 2]]
    hull = points[:4] + points[5:]
    p, dropped = parse_polytope(json.dumps({"dim": 4, "points": points}))
    assert (p.vertices, dropped) == (tuple(map(tuple, hull)), True)
    assert parse_polytope(json.dumps({"dim": 4, "points": hull})) \
        == (p, False)
    given = files("given.json", {"dim": 4, "points": points})
    kept = files("kept.json", {"dim": 4, "points": hull})
    code, plain, err = run(capsys, ["invariants", kept])
    assert (code, err) == (0, "")
    assert json.loads(plain)["vertex_count"] == 6
    code, out, err = run(capsys, ["invariants", given])
    assert (code, out) == (0, plain)
    assert "given.json" in err and "convex hull" in err


def test_segment_takes_its_endpoints(capsys, files):
    assert parse_polytope(json.dumps({"dim": 1, "points": [[2], [0], [1]]})) \
        == (LatticePolytope(1, ((0,), (2,))), True)
    assert parse_polytope(json.dumps({"dim": 1, "points": [[2], [0]]})) \
        == (LatticePolytope(1, ((0,), (2,))), False)
    three = files("s3.json", {"dim": 1, "points": [[0], [1], [2]]})
    two = files("s2.json", {"dim": 1, "points": [[0], [2]]})
    code, out, err = run(capsys, ["equiv", "--mode", "affine", three, two])
    assert (code, out) == (0, "equivalent\n")
    assert "s3.json" in err and "convex hull" in err
    point = files("p.json", {"dim": 1, "points": [[4], [4]]})
    assert run(capsys, ["invariants", point])[0] == 3


def test_error_exit_codes(capsys, files, tmp_path):
    code, _, err = run(capsys, ["invariants", str(tmp_path / "missing.json")])
    assert code == 3 and err.startswith("error:")

    flat = files("flat.json", {"dim": 2, "points": [[0, 0], [1, 1]]})
    assert run(capsys, ["invariants", flat])[0] == 3

    floaty = files("f.json", {"dim": 2, "points": [[0, 0], [1.5, 0], [0, 1]]})
    assert run(capsys, ["invariants", floaty])[0] == 3

    sq = files("sq.json", SQUARE_DOC)
    assert run(capsys, ["equiv", "--mode", "euclidean", sq, sq])[0] == 2
    assert run(capsys, ["no-such-command"])[0] == 2


def test_over_cap_region_exits_3_before_listing():
    # Under a 256 MiB address space, listing these regions would end in a
    # MemoryError traceback (exit 1, read as a negative answer).
    proc = run_in_small_address_space("""
from lattice_equiv.cli import run_command
for argv in (["census", "--box-side", "5000"],
             ["scan-primitivity", "--ball-r", "3000"]):
    assert run_command(argv) == 3, argv
""")
    assert (proc.returncode, proc.stdout) == (0, "")
    assert proc.stderr.count("more lattice points than the cap 40") == 2


def test_console_script_runs():
    # the child finds the package where this process imported it from
    src = str(Path(lattice_equiv.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "lattice_equiv.cli", "census", "--ball-r", "1",
         "--csv"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "1,9,3,2,0.500000,0.315465"
