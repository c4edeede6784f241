"""End-to-end CLI runs: outputs, exit codes, determinism."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from phyloquiver import serialize
from phyloquiver.cli import main
from phyloquiver.esequence import PrecRelation, reconstruct
from phyloquiver.metric import FiniteMetricSpace

ULTRA3 = "x,y,z\n0,1,3\n1,0,3\n3,3,0\n"
TRI345 = "x,y,z\n0,3,4\n3,0,5\n4,5,0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def g3_file(tmp_path):
    path = tmp_path / "g3.json"
    code = main(["gen", "g3", "-o", str(path)])
    assert code == 0
    return str(path)


class TestAnalyze:
    def test_g3_report(self, capsys, g3_file):
        code, out, _ = run(capsys, "analyze", g3_file)
        assert code == 0
        report = json.loads(out)
        rows = {r["id"]: r for r in report["vertices"]}
        assert [rows[v]["height"] for v in "ABC"] == [0, 1, 2]
        assert all(rows[v]["phylogenetic"] is True for v in "ABC")
        assert report["quiver"]["isotypy_class_count"] == 2

    def test_dot_input(self, capsys, tmp_path):
        path = tmp_path / "q.dot"
        path.write_text("digraph { B -> A; B -> C; C -> B; }")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["quiver"]["isotypy_class_count"] == 2

    def test_unreadable_dot_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "q.dot"
        path.write_text("digraph { a:p -> b; }")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}: unexpected ':' in DOT digraph\n"

    def test_byte_identical_reruns(self, capsys, g3_file):
        _, first, _ = run(capsys, "analyze", g3_file)
        _, second, _ = run(capsys, "analyze", g3_file)
        assert first == second

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {path}")

    @pytest.mark.parametrize("target", ["missing-dir/out.json", "."])
    def test_unwritable_output_exit_1(self, capsys, tmp_path, g3_file, target):
        path = tmp_path / target  # a missing directory, then a directory
        code, out, err = run(capsys, "analyze", g3_file, "-o", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("obj, field", [
        ({"vertices": ["a"], "edges": 5}, "edges"),
        ({"vertices": {"a": 1}, "edges": []}, "vertices"),
        ({"vertices": ["a"], "edges": [], "labels": ["x"]}, "labels"),
        ({"vertices": ["a", 2], "edges": []}, "vertices"),
        ({"vertices": ["a"], "edges": [["a", 0]]}, "edges"),
        ({"vertices": ["a"], "edges": [], "labels": {"a": 1}}, "labels"),
    ])
    def test_wrong_field_types_exit_1(self, capsys, tmp_path, obj, field):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert f"'{field}' must be" in err and "Traceback" not in err


class TestUniversal:
    def test_g3_c(self, capsys, g3_file):
        code, out, _ = run(capsys, "universal", g3_file, "C", "--bound", "8")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "universal"
        assert obj["vertices"] == ["A", "B", "C"]
        assert obj["bounded_check"] is True

    def test_none_for_abnormal_r(self, capsys, tmp_path):
        path = tmp_path / "ab.json"
        main(["gen", "abnormal", "-o", str(path)])
        code, out, _ = run(capsys, "universal", str(path), "R")
        assert code == 0
        assert json.loads(out)["status"] == "none"

    def test_undecided_status(self, capsys, tmp_path):
        path = tmp_path / "und.json"
        path.write_text(json.dumps({
            "vertices": ["P1", "P2", "Q1", "Q2", "R", "T"],
            "edges": [["Q1", "P1"], ["Q2", "P2"], ["R", "Q1"], ["R", "Q2"],
                      ["T", "P1"], ["T", "R"]],
        }))
        code, out, _ = run(capsys, "universal", str(path), "R")
        assert code == 0
        assert json.loads(out)["status"] == "undecided"

    def test_unknown_vertex_is_validation_failure(self, capsys, g3_file):
        code, _, err = run(capsys, "universal", g3_file, "Z")
        assert code == 1
        assert "unknown vertex" in err


class TestCladeCommand:
    def test_report(self, capsys, g3_file):
        code, out, _ = run(capsys, "clade", g3_file, "B")
        assert code == 0
        obj = json.loads(out)
        assert obj["members"] == ["B", "C"]
        assert obj["clade_heights"] == {"B": 0, "C": 0}


class TestESequenceAndForest:
    def test_esequence_of_s5(self, capsys, tmp_path):
        path = tmp_path / "s5.json"
        main(["gen", "surjection-quiver", "--n", "5", "-o", str(path)])
        code, out, _ = run(capsys, "esequence", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["levels"] == [["1"], ["2", "3", "4", "5"]]
        assert obj["order"][0] == ["2", "3"]

    def test_esequence_rejects_g3(self, capsys, g3_file):
        code, _, err = run(capsys, "esequence", g3_file)
        assert code == 1 and "phylogenetic" in err

    def test_forest_formats(self, capsys, tmp_path):
        path = tmp_path / "s5.json"
        main(["gen", "surjection-quiver", "--n", "5", "-o", str(path)])
        code, out, _ = run(capsys, "forest", str(path))
        assert code == 0 and "2 -> 1;" in out
        code, out, _ = run(capsys, "forest", str(path), "--format", "newick")
        assert code == 0 and out == "(2:1,3:1,4:1,5:1)1;\n"
        code, out, _ = run(capsys, "forest", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["roots"] == ["1"]

    def test_forest_reads_any_esequence_json(self, capsys, tmp_path):
        # E-sequence JSON is recognised by its 'levels', as validate does;
        # the .esq.json suffix is not needed.
        quiver, seq, esq = (tmp_path / n for n in ("s4.json", "s4seq.json", "s4.esq.json"))
        main(["gen", "surjection-quiver", "--n", "4", "-o", str(quiver)])
        for path in (seq, esq):
            assert main(["esequence", str(quiver), "-o", str(path)]) == 0
        runs = [run(capsys, "forest", str(p), "--format", "newick") for p in (seq, esq, quiver)]
        assert runs == [(0, "(2:1,3:1,4:1)1;\n", "")] * 3

    def test_forest_reads_a_dot_quiver(self, capsys, tmp_path):
        path = tmp_path / "tree.dot"
        path.write_text("digraph { x -> r; y -> x; }")
        assert run(capsys, "forest", str(path), "--format", "newick") == (0, "((y:1)x:1)r;\n", "")


class TestTowers:
    def test_ultra_tower(self, capsys, tmp_path):
        path = tmp_path / "ultra3.csv"
        path.write_text(ULTRA3)
        code, out, _ = run(capsys, "ultra-tower", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["length"] == 2
        assert [len(s["points"]) for s in obj["spaces"]] == [3, 2, 1]

    def test_metric_tower(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TRI345)
        code, out, _ = run(capsys, "metric-tower", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["length"] == 1
        assert len(obj["spaces"][-1]["points"]) == 1

    def test_ultra_tower_rejects_metric_only_input(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TRI345)
        code, _, err = run(capsys, "ultra-tower", str(path))
        assert code == 1 and "ultrametric" in err

    def test_max_points_guard_gives_status_3(self, capsys, tmp_path):
        path = tmp_path / "ultra3.csv"
        path.write_text(ULTRA3)
        code, _, err = run(capsys, "ultra-tower", str(path), "--max-points", "2")
        assert code == 3 and "refused" in err

    def test_max_points_refuses_before_the_metric_check(
        self, capsys, tmp_path, monkeypatch
    ):
        def build(*args):
            raise AssertionError("the metric check ran before the refusal")

        monkeypatch.setattr(FiniteMetricSpace, "build", build)
        path = tmp_path / "ultra3.csv"
        path.write_text(ULTRA3)
        code, out, err = run(capsys, "ultra-tower", str(path), "--max-points", "2")
        assert code == 3 and out == ""
        assert err == f"refused: {path}: 3 points exceed --max-points 2\n"

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_max_points_below_one_is_a_usage_error(self, capsys, tmp_path, bound):
        path = tmp_path / "ultra3.csv"
        path.write_text(ULTRA3)
        with pytest.raises(SystemExit) as exc:
            main(["ultra-tower", str(path), "--max-points", bound])
        assert exc.value.code == 2
        assert "--max-points must be at least 1" in capsys.readouterr().err


class TestReconstruct:
    def test_three_leaf_fixture_with_empty_prec(self, capsys, tmp_path):
        path = tmp_path / "leaves.csv"
        path.write_text("a1,a2,b1\n0,1,2\n1,0,2\n2,2,0\n")
        code, out, _ = run(capsys, "reconstruct", str(path), "--prec", "empty")
        assert code == 0
        obj = json.loads(out)
        assert [len(level) for level in obj["levels"]] == [1, 2, 3]
        assert obj["order"] == []

    def test_prec_file(self, capsys, tmp_path):
        matrix = tmp_path / "leaves.csv"
        matrix.write_text("a1,a2,b1\n0,1,2\n1,0,2\n2,2,0\n")
        prec = tmp_path / "prec.txt"
        prec.write_text("a1 b1\na2 b1\n")
        code, out, _ = run(capsys, "reconstruct", str(matrix), "--prec", str(prec))
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == [["1:a1", "1:b1"]]

    def test_malformed_csv_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1e-3\n1e-3,0\n")
        code, _, err = run(capsys, "reconstruct", str(path), "--prec", "empty")
        assert code == 1
        assert "bad.csv:2:2" in err and "scientific" in err

    def test_levels_flag_sets_the_reconstructed_steps(self, capsys, tmp_path):
        path = tmp_path / "leaves.csv"
        path.write_text("a1,a2,b1\n0,1,2\n1,0,2\n2,2,0\n")
        code, out, _ = run(capsys, "reconstruct", str(path), "--levels", "3")
        space = FiniteMetricSpace.build(["a1", "a2", "b1"], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        want = reconstruct(space, PrecRelation.build(()), 3)
        assert code == 0 and out == serialize.dumps(serialize.esequence_to_obj(want))

    def test_default_levels_refuse_non_integer_distances(self, capsys, tmp_path):
        path = tmp_path / "half.csv"
        path.write_text("a,b\n0,1/2\n1/2,0\n")
        code, out, err = run(capsys, "reconstruct", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: matrix has non-integer distances")

    def test_point_labels_colliding_with_ball_labels(self, capsys, tmp_path):
        path = tmp_path / "collide.csv"
        path.write_text("a,b,1:a\n0,1,2\n1,0,2\n2,2,0\n")
        code, out, err = run(capsys, "reconstruct", str(path), "--levels", "2")
        assert (code, out) == (1, "")
        assert err == "error: point labels collide with generated ball labels\n"


class TestValidate:
    def test_metric_csv(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TRI345)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["is_metric"] is True and obj["is_ultrametric"] is False

    def test_non_metric_csv_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,1,5\n1,0,1\n5,1,0\n")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert json.loads(out)["problems"]

    def test_esequence_json(self, capsys, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({
            "levels": [["r"], ["a", "b"]],
            "parent": {"a": "r", "b": "r"},
            "order": [["a", "b"]],
        }))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and json.loads(out)["kind"] == "esequence"

    def test_refusals_bounded_by_input(self, capsys, tmp_path):
        # a non-metric matrix and an unclosed E-sequence each break a number
        # of triples cubic in their size; the output stays a bounded
        # multiple of the input's bytes
        rng = random.Random("validate-bounded")
        n = 60
        m = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            m[i][j] = m[j][i] = rng.randint(1, 60)
        matrix = tmp_path / "m.csv"
        matrix.write_text(",".join(f"p{i}" for i in range(n)) + "\n"
                          + "".join(",".join(map(str, row)) + "\n" for row in m))
        a, b, c = ([f"{t}{i}" for i in range(25)] for t in "abc")
        kids = a + b + c
        seq = tmp_path / "e.json"
        seq.write_text(json.dumps({
            "levels": [["r"], kids],
            "parent": dict.fromkeys(kids, "r"),
            "order": [*itertools.product(a, b), *itertools.product(b, c)],
        }))
        for path in (matrix, seq):
            code, out, _ = run(capsys, "validate", str(path))
            assert code == 1 and json.loads(out)["problems"]
            assert len(out) <= 16 * len(path.read_text()), path.name

    @pytest.mark.parametrize("obj, field", [
        ({"levels": [["a"]], "parent": {}, "order": [["a"]]}, "'order'"),
        ({"levels": [["a"]], "parent": {}, "order": 3}, "'order'"),
        ({"levels": ["a"], "parent": {}}, "'levels'"),
        ({"levels": [["a"]], "parent": ["a"]}, "'parent'"),
        ({"levels": [[1]], "parent": {}}, "'levels'"),
        ({"levels": [["a"], ["b"]], "parent": {"b": 0}}, "'parent'"),
        ({"levels": [["a", "b"]], "parent": {}, "order": [["a", 2]]}, "'order'"),
    ])
    def test_malformed_esequence_json_exit_1(self, capsys, tmp_path, obj, field):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and out == ""
        assert field in err and "Traceback" not in err

    def test_quiver_json(self, capsys, g3_file):
        code, out, _ = run(capsys, "validate", g3_file)
        assert code == 0 and json.loads(out)["kind"] == "quiver"

    def test_dot_quiver(self, capsys, tmp_path):
        path = tmp_path / "q.dot"
        path.write_text("digraph { B -> A; B -> C; C -> B; }")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and json.loads(out) == {"kind": "quiver", "problems": []}

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.json")
        assert code == 1 and "cannot read" in err

    def test_output_independent_of_hash_seed(self, tmp_path):
        # a < b lacks four successors of b: the one named must be the least
        # label, not the first in the hash order of the order pairs.
        path = tmp_path / "e.json"
        kids = list("abcdef")
        path.write_text(json.dumps({
            "levels": [["r"], kids],
            "parent": dict.fromkeys(kids, "r"),
            "order": [["a", "b"]] + [["b", k] for k in "cdef"],
        }))
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "phyloquiver", "validate", str(path)],
                env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == 1, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        problems = json.loads(outs[0])["problems"]
        assert problems == [
            "order is not transitive: 'a' < 'b' < 'c' without 'a' < 'c' (witness 1 of 4)"
        ]


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["analyze", "validate", "esequence"])
    def test_not_utf8_exit_1(self, capsys, tmp_path, command):
        path = tmp_path / "q.json"
        path.write_bytes(b'{"vertices": ["\xff\xfe"], "edges": []}')
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == ""
        assert err == f"error: cannot read {path}: not UTF-8 text\n"

    @pytest.mark.parametrize("command", ["analyze", "validate", "esequence"])
    def test_deeply_nested_json_exit_1(self, capsys, tmp_path, command):
        path = tmp_path / "q.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}: JSON nested too deeply\n"


class TestGen:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "not-a-kind"])
        assert exc.value.code == 2

    def test_seeded_outputs_reproducible(self, capsys):
        _, first, _ = run(capsys, "gen", "random-quiver", "--n", "6", "--seed", "3")
        _, second, _ = run(capsys, "gen", "random-quiver", "--n", "6", "--seed", "3")
        assert first == second

    def test_rooted_tree(self, capsys):
        code, out, _ = run(
            capsys, "gen", "rooted-tree", "--edges", "r-x x-y", "--root", "r"
        )
        assert code == 0
        obj = json.loads(out)
        assert ["x", "r"] in obj["edges"] and ["y", "x"] in obj["edges"]

    def test_random_esequence_flags(self, capsys):
        code, out, _ = run(
            capsys, "gen", "random-esequence", "--levels", "3", "--width", "4",
            "--seed", "1", "--single-root", "--surjective",
        )
        assert code == 0
        assert len(json.loads(out)["levels"][0]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["random-esequence", "--order-density", "7"], "order_density must lie in [0, 1]"),
        (["rooted-tree", "--edges", "a-", "--root", "a"], "tree edge 'a-' must look like a-b"),
        (["rooted-tree", "--edges", "r-a -a", "--root", "r"], "tree edge '-a' must look like a-b"),
        (["rooted-tree", "--edges", "r-a-b", "--root", "r"], "tree edge 'r-a-b' must look like a-b"),
    ])
    def test_bad_generator_arguments_exit_1(self, capsys, argv, message):
        assert run(capsys, "gen", *argv) == (1, "", f"error: {message}\n")

    def test_random_metric_csv(self, capsys):
        code, out, _ = run(capsys, "gen", "random-metric", "--n", "4", "--seed", "2")
        assert code == 0
        assert out.splitlines()[0] == "p0,p1,p2,p3"


@pytest.mark.parametrize("argv", [
    ["gen", "rooted-tree", "--root", "r"],
    ["gen", "rooted-tree", "--edges", "r-a"],
    ["gen", "rooted-tree"],
])
def test_rooted_tree_needs_edges_and_root(capsys, argv):
    assert run(capsys, *argv) == (1, "", "error: rooted-tree needs --edges and --root\n")


# Writes the names in sys.modules, one a line, next to itself when the
# interpreter exits; put first on PYTHONPATH, it runs at start-up.
_MODULES_AT_EXIT = """\
import atexit, os, sys

def _dump(path=os.path.join(os.path.dirname(__file__), "modules.txt")):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(sys.modules)))

atexit.register(_dump)
"""

_LAYERS = ("quiver", "analysis", "clades", "esequence", "metric", "generators",
           "serialize", "cli")
# What the quiver-side commands and the metric-side commands must not load.
_METRIC_SIDE = ("phyloquiver.metric", "phyloquiver.esequence", "phyloquiver.generators",
                "fractions")
_QUIVER_SIDE = ("phyloquiver.quiver", "phyloquiver.analysis", "phyloquiver.clades",
                "phyloquiver.esequence")


class TestColdStart:
    """A fresh interpreter loads only the layers its subcommand runs."""

    @pytest.fixture
    def child(self, tmp_path):
        probe = tmp_path / "probe"
        probe.mkdir()
        (probe / "sitecustomize.py").write_text(_MODULES_AT_EXIT)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(probe), src]))

        def run_child(*args):
            """Exit code, stdout and the set of modules loaded."""
            proc = subprocess.run([sys.executable, *args], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.stderr == ""
            loaded = (probe / "modules.txt").read_text().split("\n")
            return proc.returncode, proc.stdout, set(loaded)

        return run_child

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "u.csv").write_text(ULTRA3)
        (tmp_path / "m.csv").write_text(TRI345)
        assert main(["gen", "g3", "-o", str(tmp_path / "q.json")]) == 0
        assert main(["gen", "random-esequence", "--single-root",
                     "-o", str(tmp_path / "s.json")]) == 0
        return tmp_path

    @pytest.mark.parametrize("argv, absent", [
        (["analyze", "q.json"], _METRIC_SIDE),
        (["universal", "q.json", "C", "--bound", "4"], _METRIC_SIDE),
        (["clade", "q.json", "B"], _METRIC_SIDE),
        (["ultra-tower", "u.csv"], _QUIVER_SIDE),
        (["metric-tower", "m.csv"], _QUIVER_SIDE),
        (["validate", "m.csv"], _QUIVER_SIDE),
        (["forest", "s.json", "--format", "newick"], ("phyloquiver.metric", "fractions")),
    ])
    def test_subcommand_loads_only_its_layers(self, capsys, child, files, argv, absent):
        argv = [str(files / a) if a.endswith((".json", ".csv")) else a for a in argv]
        code, out, loaded = child("-m", "phyloquiver", *argv)
        assert (code, out) == run(capsys, *argv)[:2]
        assert code == 0
        assert loaded.isdisjoint(absent), sorted(loaded.intersection(absent))

    def test_package_import_loads_no_layer(self, child):
        code, _, loaded = child("-c", "import phyloquiver")
        assert code == 0
        assert "phyloquiver" in loaded
        assert loaded.isdisjoint(f"phyloquiver.{n}" for n in _LAYERS + ("errors",))
