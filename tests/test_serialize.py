"""File format round trips and parse diagnostics."""

from __future__ import annotations

import csv
import importlib
import io
import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phyloquiver import (
    ESequence,
    InputError,
    Quiver,
    analyze,
    build_forest,
    evolutionary_sequence,
    serialize,
    to_fraction,
    tower_v,
)
from phyloquiver.generators import (
    gen_g3,
    gen_random_esequence,
    gen_random_metric,
    gen_random_quiver,
    gen_random_ultrametric,
    gen_rooted_tree_quiver,
    gen_surjection_quiver,
)
from phyloquiver.serialize import (
    dumps,
    esequence_from_obj,
    esequence_to_obj,
    forest_to_dot,
    forest_to_newick,
    loads,
    matrix_from_csv,
    prec_from_text,
    quiver_from_dot,
    quiver_from_obj,
    quiver_to_dot,
    quiver_to_obj,
    read_quiver_file,
    report_to_obj,
    space_from_csv,
    space_to_csv,
    space_to_obj,
)


class TestQuiverJson:
    def test_round_trip(self):
        q = gen_g3()
        assert quiver_from_obj(quiver_to_obj(q)) == q

    def test_documented_shape(self):
        obj = quiver_to_obj(gen_g3())
        assert obj == {
            "vertices": ["A", "B", "C"],
            "edges": [["B", "A"], ["B", "C"], ["C", "B"]],
        }

    def test_missing_keys(self):
        with pytest.raises(InputError, match="vertices"):
            quiver_from_obj({"edges": []})

    @pytest.mark.parametrize("obj, field", [
        ({"vertices": ["a"], "edges": 5}, "'edges' must be a list"),
        ({"vertices": "a", "edges": []}, "'vertices' must be a list"),
        ({"vertices": ["a"], "edges": "ab"}, "'edges' must be a list"),
        ({"vertices": ["a"], "edges": [["a", "a", "a"]]}, "each item of 'edges' must be"),
        ({"vertices": ["a", 1], "edges": []}, "'vertices' must be a list of string ids"),
        ({"vertices": ["a"], "edges": [["a"]]}, "each item of 'edges' must be"),
        ({"vertices": ["a"], "edges": [["a", 0]]},
         "each item of 'edges' must be a \\[tail, head\\] pair of string ids"),
        ({"vertices": ["a"], "edges": [[None, "a"]]}, "each item of 'edges' must be"),
    ])
    def test_wrong_field_types_name_the_field(self, obj, field):
        with pytest.raises(InputError, match=f"q.json: {field}"):
            quiver_from_obj(obj, source="q.json")

    @pytest.mark.parametrize("extra", [
        {"labels": {"A": "root taxon"}}, {"labels": 5}, {"labels": ["x"]},
        {"labels": None}, {"comment": "made by hand"},
    ])
    def test_extra_keys_are_ignored(self, extra):
        vertices, edges = ["A", "B"], [["B", "A"]]
        q = quiver_from_obj({"vertices": vertices, "edges": edges, **extra})
        assert q == Quiver(vertices, edges)
        assert quiver_to_obj(q).keys() == {"vertices", "edges"}

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(InputError, match=f"cannot read {path}"):
            read_quiver_file(str(path))

    def test_json_diagnostics_carry_position(self):
        with pytest.raises(InputError, match=r"g\.json:2:8: Invalid control"):
            loads('{\n  "x: 1\n}', source="g.json")


class TestQuiverDot:
    def test_round_trip(self):
        q = gen_surjection_quiver(3)
        assert quiver_from_dot(quiver_to_dot(q)) == q

    def test_parses_chains_quotes_and_comments(self):
        text = """
        digraph evolution {
          node [shape=circle];
          "B" -> A -> A;   // climb twice
          B -> C [label="x"];
          C -> B;
          D;
        }
        """
        q = quiver_from_dot(text)
        assert set(q.vertices) == {"A", "B", "C", "D"}
        assert set(q.edges) == {("B", "A"), ("A", "A"), ("B", "C"), ("C", "B")}

    def test_rejects_non_digraph(self):
        with pytest.raises(InputError, match="digraph"):
            quiver_from_dot("graph { a -- b; }")

    @pytest.mark.parametrize("body, vertices, edges", [
        ('a -> b [label="x;y"]', ("a", "b"), (("a", "b"),)),
        ('a -> b [URL="http://x"]', ("a", "b"), (("a", "b"),)),
        ('a [label="u;v"]; b;', ("a", "b"), ()),
        ("/* a -> b */ c;", ("c",), ()),
        ("a -> b c -> d", ("a", "b", "c", "d"), (("a", "b"), ("c", "d"))),
        ("subgraph s { a -> b; }", ("a", "b"), (("a", "b"),)),
        ("{ a b } c", ("a", "b", "c"), ()),
        ("rankdir = LR; edge [color=red]\n# note\na -> b // c\n", ("a", "b"), (("a", "b"),)),
        (r'"a \"q\" \\" -> "x;y"', ('a "q" \\', "x;y"), (('a "q" \\', "x;y"),)),
        ('"long\\\nname"', ("longname",), ()),
    ])
    def test_quotes_comments_and_subgraphs(self, body, vertices, edges):
        q = quiver_from_dot(f"strict digraph G {{ {body} }}")
        assert (q.vertices, q.edges) == (vertices, edges)

    @pytest.mark.parametrize("text", [
        "digraph { a -- b; }",
        "digraph { a:p -> b; }",
        "digraph { a -> { b c }; }",
        "digraph { { a b } -> c; }",
        "digraph { a -> subgraph s { b }; }",
        "digraph { node; a; }",
        "digraph { a -> b; ",
        "digraph { a [label=x; }",
        'digraph { "a; }',
        "digraph { /* a; }",
        "digraph { a; } b",
        "digraph { }",
    ])
    def test_refuses_what_it_cannot_read(self, text):
        with pytest.raises(InputError):
            quiver_from_dot(text)

    @pytest.mark.parametrize("ids", [
        ["x;y", "b"], ["a->b", "c"], ["p//q"], ["x;y"], ["s\\"], ['say "hi"'],
        ["{", "}", "a b", "/* c */", "#d", "\u00fcber", "\u0663", "a.b", "007", ""],
        ["node"], ["graph"], ["Node", "EDGE", "diGraph", "SubGraph", "STRICT"],
    ])
    def test_awkward_ids_round_trip(self, ids):
        q = Quiver(ids, [(ids[0], ids[-1])])
        assert quiver_from_dot(quiver_to_dot(q)) == q

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True))
    def test_any_ids_round_trip(self, ids):
        q = Quiver(ids, list(zip(ids, ids[1:])))
        assert quiver_from_dot(quiver_to_dot(q)) == q


class TestESequenceJson:
    def test_documented_shape(self):
        from phyloquiver import ESequence

        seq = ESequence([["r"], ["a", "b"]], {"a": "r", "b": "r"}, [("a", "b")])
        assert esequence_to_obj(seq) == {
            "levels": [["r"], ["a", "b"]],
            "parent": {"a": "r", "b": "r"},
            "order": [["a", "b"]],
        }

    def test_round_trip(self):
        for s in range(10):
            seq = gen_random_esequence(3, 4, 0.4, seed=s)
            assert esequence_from_obj(esequence_to_obj(seq)) == seq

    @pytest.mark.parametrize("obj, message", [
        ({"levels": [["a"]], "parent": {}, "order": [["a"]]},
         "each item of 'order' must be an \\[x, y\\] pair"),
        ({"levels": [["a", "b"]], "parent": {}, "order": [["a", "b", "a"]]},
         "each item of 'order' must be"),
        ({"levels": [["a"]], "parent": {}, "order": ["ab"]},
         "each item of 'order' must be"),
        ({"levels": [["a"]], "parent": {}, "order": {"a": "b"}},
         "'order' must be a list"),
        ({"levels": [["a"]], "parent": {}, "order": None}, "'order' must be a list"),
        ({"levels": "a", "parent": {}}, "'levels' must be a list"),
        ({"levels": [["a"], "b"], "parent": {"b": "a"}},
         "each item of 'levels' must be a list"),
        ({"levels": [["a"]], "parent": [["b", "a"]]}, "'parent' must be an object"),
        ({"levels": [["a", 1]], "parent": {}},
         "each item of 'levels' must be a list of string labels"),
        ({"levels": [["a"], ["b"]], "parent": {"b": 0}},
         "'parent' must be an object of string labels"),
        ({"levels": [["a", "b"]], "parent": {}, "order": [["a", 2]]},
         "each item of 'order' must be an \\[x, y\\] pair of string labels"),
    ])
    def test_wrong_field_types_name_the_field(self, obj, message):
        with pytest.raises(InputError, match=f"e.json: {message}"):
            esequence_from_obj(obj, source="e.json")


class TestMatrixCsv:
    def test_round_trip(self):
        sp = gen_random_ultrametric(5, 3, seed=1)
        assert space_from_csv(space_to_csv(sp)) == sp

    def test_decimal_entries_parse_exactly(self):
        sp = space_from_csv("a,b\n0,0.25\n0.25,0\n")
        from fractions import Fraction

        assert sp.distance("a", "b") == Fraction(1, 4)

    def test_scientific_notation_rejected_with_position(self):
        with pytest.raises(InputError, match=r"m\.csv:2:2"):
            matrix_from_csv("a,b\n0,1e-3\n1e-3,0\n", source="m.csv")

    def test_writers_render_each_exact_value(self):
        # the writers read the int rows; each cell is the distance's exact text
        spaces = [gen_random_ultrametric(1 + s % 8, 1 + s % 4, seed=s) for s in range(30)]
        for s in range(60):
            spaces += tower_v(gen_random_metric(1 + s % 9, seed=s)).spaces
        for sp in spaces:
            want = [[str(v) for v in row] for row in sp.rows]
            assert space_to_obj(sp)["matrix"] == want
            assert space_to_csv(sp).splitlines()[1:] == [",".join(r) for r in want]

    def test_row_count_checked(self):
        with pytest.raises(InputError, match="data rows"):
            matrix_from_csv("a,b\n0,1\n")


# Cell texts, good and bad: whitespace, signs, decimals, a zero
# denominator, scientific notation, digit separators, non-ASCII digits.
_CELL_BODIES = ("0", "1", "3/4", "0.25", ".5", "7.", "12/8", "1/0", "1e3", "1E3",
                "1_000", "1__0", "\u0663", "\u0661\u0662/\u0664", "\uff17", "x",
                "", "--1", "1/-2", "inf", "nan", "0x10", "3 /4")
_cells = st.builds(
    "".join,
    st.tuples(st.sampled_from(["", " ", "\t"]), st.sampled_from(["", "-", "+"]),
              st.sampled_from(_CELL_BODIES), st.sampled_from(["", " ", "\t"])),
)


@st.composite
def cell_matrices(draw):
    """A square grid of cell texts drawn from a small pool, so cells, and
    bad cells in particular, repeat across the grid; no row is blank."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(_cells, min_size=1, max_size=4))
    grid = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    for row in grid:
        if not any(cell.strip() for cell in row):
            row[0] = "0"
    return grid


class TestMatrixCsvCells:
    @settings(max_examples=300, deadline=None)
    @given(cell_matrices())
    def test_each_cell_is_its_exact_value(self, grid):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"p{i}" for i in range(len(grid))])
        writer.writerows(grid)
        # the first bad cell, in reading order, is the one reported
        want = []
        for r, row in enumerate(grid, start=2):
            values = []
            for c, cell in enumerate(row, start=1):
                try:
                    values.append(to_fraction(cell))
                except InputError as exc:
                    with pytest.raises(InputError) as got:
                        matrix_from_csv(buf.getvalue(), source="m.csv")
                    assert str(got.value) == f"m.csv:{r}:{c}: {exc}"
                    return
            want.append(values)
        labels, rows = matrix_from_csv(buf.getvalue(), source="m.csv")
        assert labels == [f"p{i}" for i in range(len(grid))]
        assert rows == want


class TestPrecFile:
    def test_empty_literal(self):
        assert prec_from_text("empty").pairs == frozenset()
        assert prec_from_text("# none\nempty\n").pairs == frozenset()
        assert prec_from_text("EMPTY  # no pairs\n\n").pairs == frozenset()

    def test_pairs_and_comments(self):
        rel = prec_from_text("a b\n# note\nc,d\n")
        assert rel.pairs == {("a", "b"), ("c", "d")}

    def test_bad_line(self):
        with pytest.raises(InputError, match="line 1"):
            prec_from_text("a b c\n")


class TestForestExports:
    def test_newick_single_root(self):
        seq = evolutionary_sequence(gen_surjection_quiver(4))
        forest = build_forest(seq)
        assert forest_to_newick(forest) == "(2:1,3:1,4:1)1;\n"

    def test_newick_nested(self):
        q = gen_rooted_tree_quiver([("r", "x"), ("x", "y")], "r")
        forest = build_forest(evolutionary_sequence(q))
        assert forest_to_newick(forest) == "((y:1)x:1)r;\n"

    def test_newick_quotes_awkward_labels(self):
        q = gen_rooted_tree_quiver([("the root", "a leaf")], "the root")
        forest = build_forest(evolutionary_sequence(q))
        assert forest_to_newick(forest) == "('a leaf':1)'the root';\n"

    def test_newick_needs_single_root(self):
        from phyloquiver import ESequence

        seq = ESequence([["r", "s"], ["x", "y"]], {"x": "r", "y": "s"})
        with pytest.raises(InputError, match="single root"):
            forest_to_newick(build_forest(seq))

    def test_newick_matches_recursive_definition(self):
        def render(forest, x):
            kids = forest.children(x)
            inner = ",".join(render(forest, c) + ":1" for c in kids)
            return (f"({inner})" if kids else "") + (f"'{x}'" if " " in x else x)

        for s in range(40):
            seq = gen_random_esequence(1 + s % 5, 1 + s % 4, 0.0, seed=s,
                                       single_root=True)
            seq = ESequence(
                [[x.replace("0", " ") for x in level] for level in seq.levels],
                {c.replace("0", " "): p.replace("0", " ") for c, p in seq.parent.items()},
            )
            forest = build_forest(seq)
            assert forest_to_newick(forest) == render(forest, forest.roots[0]) + ";\n"

    def test_newick_deep_chain(self):
        n = 3000
        seq = ESequence(
            [[f"c{i}"] for i in range(n)],
            {f"c{i + 1}": f"c{i}" for i in range(n - 1)},
        )
        text = forest_to_newick(build_forest(seq))
        assert text == "(" * (n - 1) + "c2999" + "".join(
            f":1)c{i}" for i in range(n - 2, -1, -1)
        ) + ";\n"

    def test_dot_contains_parent_edges(self):
        forest = build_forest(evolutionary_sequence(gen_surjection_quiver(3)))
        dot = forest_to_dot(forest)
        assert "2 -> 1;" in dot and "3 -> 1;" in dot


JSON_TEXT = st.text(
    st.characters(exclude_categories=())  # surrogates included
    | st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\ud800\udfff\U0001f600'),
    max_size=8,
)
JSON_SCALARS = (
    JSON_TEXT
    | st.integers()
    | st.sampled_from([2**100, -2**100, True, False, None])
    | st.floats(allow_nan=True, allow_infinity=True)
)
JSON_KEYS = JSON_TEXT | st.integers() | st.booleans()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(JSON_TEXT, inner, max_size=4)
        | st.dictionaries(JSON_KEYS, inner, max_size=3)
    ),
    max_leaves=12,
)


def outcome(render, obj):
    """The text ``render`` writes for ``obj``, or its error type and text."""
    try:
        return render(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def stdlib_dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


TABLE_TEXT = st.text(st.sampled_from('ab,\x00%"\\\né\U0001f600'), max_size=4)
TABLE_VALUES = (
    TABLE_TEXT
    | st.integers(-2**100, 2**100)
    | st.sampled_from([True, False, None])
)
# Each spoils one row of a table, so that dumps must leave the table path.
SPOILERS = {
    "float": lambda row, key, keys: row.update({key: 0.5}),
    "nan": lambda row, key, keys: row.update({key: float("nan")}),
    "list": lambda row, key, keys: row.update({key: [1, "a"]}),
    "dict": lambda row, key, keys: row.update({key: {"a": 1}}),
    "added key": lambda row, key, keys: row.update({max(keys) + "+": 1}),
    "renamed key": lambda row, key, keys: row.update({max(keys) + "+": row.pop(key)}),
    "empty row": lambda row, key, keys: row.clear(),
    "int key": lambda row, key, keys: row.update({1: row.pop(key)}),
}


@st.composite
def tables(draw):
    """A list or tuple of 1-6 dicts on 1-5 shared keys, top level or nested
    in a dict, with at most one spoiled row; and the spoiler's name."""
    keys = draw(st.lists(TABLE_TEXT, min_size=1, max_size=5, unique=True))
    spoiler = draw(st.sampled_from([None, None, None, "ordered", *SPOILERS]))
    least = 2 if spoiler in ("added key", "renamed key") else 1  # one row is a table
    rows = [{k: draw(TABLE_VALUES) for k in draw(st.permutations(keys))}
            for _ in range(draw(st.integers(least, 6)))]
    if spoiler is not None:
        at = draw(st.integers(0, len(rows) - 1))
        if spoiler == "ordered":
            rows[at] = OrderedDict(rows[at])
        else:
            SPOILERS[spoiler](rows[at], draw(st.sampled_from(keys)), keys)
    table = draw(st.sampled_from([list, tuple]))(rows)
    if draw(st.booleans()):
        return {"rows": table, "n": len(rows)}, table, spoiler
    return table, table, spoiler


class TestDeterminism:
    def test_dumps_is_stable(self):
        obj = {"b": [3, 1], "a": {"y": 2, "x": 1}}
        assert dumps(obj) == dumps(obj)
        assert dumps(obj).endswith("\n")

    @settings(max_examples=500, deadline=None)
    @given(JSON_VALUES)
    def test_dumps_matches_json_dumps(self, obj):
        assert outcome(dumps, obj) == outcome(stdlib_dumps, obj)

    @settings(max_examples=400, deadline=None)
    @given(tables())
    def test_tables_match_json_dumps(self, drawn):
        obj, table, spoiler = drawn
        assert outcome(dumps, obj) == outcome(stdlib_dumps, obj)
        # only unspoiled tables take the table path
        taken = serialize._table(table, "\n") is not None
        assert taken == (spoiler is None), spoiler

    def test_dumps_without_the_c_encoder(self, monkeypatch):
        q = gen_random_quiver(12, 0.3, seed=5)
        name = {v: f'{v}"\\\x00é\U0001f600' for v in q.vertices}
        q = Quiver(name.values(), [(name[t], name[h]) for t, h in q.edges])
        report = report_to_obj(analyze(q))
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        try:
            importlib.reload(serialize)
            monkeypatch.setattr(serialize, "_table", None)  # a call would raise
            assert serialize.dumps(report) == stdlib_dumps(report)
        finally:
            monkeypatch.undo()
            importlib.reload(serialize)
        assert serialize._encode_values is not None
        assert serialize.dumps(report) == stdlib_dumps(report)

    @pytest.mark.parametrize("obj", [
        {1, 2},
        Fraction(1, 3),
        {"a": [1, {"b": {"c"}}]},
        [None, Fraction(7, 2)],
    ])
    def test_dumps_raises_the_type_error_of_json(self, obj):
        with pytest.raises(TypeError) as got:
            dumps(obj)
        with pytest.raises(TypeError) as want:
            stdlib_dumps(obj)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("obj", [
        {"a": 1, 2: "b"},
        {2: "b", 10: [True]},
        OrderedDict([("b", 1), ("a", 2)]),
        [0.5, float("nan"), float("-inf")],
    ])
    def test_dumps_leaves_other_types_to_json(self, obj):
        assert outcome(dumps, obj) == outcome(stdlib_dumps, obj)

    def test_dumps_of_a_cycle_raises_as_json_does(self):
        obj = {"a": []}
        obj["a"].append(obj)
        assert outcome(dumps, obj) == outcome(stdlib_dumps, obj)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: esequence_from_obj([], "e.json"),
                 "e.json: E-sequence JSON needs 'levels' and 'parent'", id="esequence-obj"),
    pytest.param(lambda: matrix_from_csv(" , \n\n", "m.csv"),
                 "m.csv: empty matrix file", id="empty-csv"),
    pytest.param(lambda: matrix_from_csv("x,y\n0,1\n1\n", "m.csv"),
                 "m.csv:3: expected 2 entries, got 1", id="short-row"),
])
def test_input_errors(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
