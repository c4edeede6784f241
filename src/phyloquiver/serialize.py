"""File formats: quiver JSON/DOT, E-sequence JSON, distance-matrix CSV,
forest DOT/Newick, and JSON-ready report objects.

Serialization is deterministic: keys are sorted, set-like collections are
sorted by label, and rationals are written as exact strings ("7/2", "3").
A function that needs another layer imports it when called, so loading
this module loads no other layer.
"""

from __future__ import annotations

import csv
import io
import json
import re
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import InputError, SizeGuardError, limit_reason

if TYPE_CHECKING:
    from fractions import Fraction

    from .analysis import AnalysisReport
    from .esequence import ESequence, PrecRelation
    from .metric import FiniteMetricSpace, Tower
    from .quiver import Evolution, Quiver


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline.

    With an indent, :mod:`json` writes through its pure-Python encoder, so
    the shapes this library writes (dicts with str keys, lists, tuples,
    str, int, bool, None) are rendered here instead, escaping strings with
    the C function :mod:`json` itself uses. A table, dicts that share one
    set of str keys and hold str, int, bool or None, has its values encoded
    by one call of the C encoder with NUL between them; the split on NUL is
    exact, as an ASCII-escaped value never holds a raw NUL. Any other type,
    a float or an int key say, hands the whole object to :func:`json.dumps`,
    and so does a cycle or a nesting too deep to recurse, so its output
    and errors are exactly as before.
    """
    try:
        return _render(obj, "\n") + "\n"
    except (_Unsupported, RecursionError):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Unsupported(Exception):
    """A value :func:`_render` leaves to :func:`json.dumps`."""


_escape = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}
_encode_values = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, None, _escape, None, ": ", "\x00", False, False, True)  # None without _json


def _render(obj, newline: str) -> str:
    """JSON text of ``obj`` in the layout of ``json.dumps(indent=2,
    sort_keys=True)``; ``newline`` is the line break and indent of the
    line ``obj`` starts on."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool or obj is None:
        return _CONSTANTS[obj]
    inner = newline + "  "
    if kind is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise _Unsupported
        items = [_escape(k) + ": " + _render(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if set(map(type, obj)) == {str}:
            items = map(_escape, obj)
        elif type(obj[0]) is dict and _encode_values and (table := _table(obj, newline)):
            return table
        else:
            items = [_render(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise _Unsupported


def _table(rows, newline: str) -> str | None:
    """:func:`_render`'s text of ``rows``, or None unless they are a table."""
    if set(map(type, rows)) != {dict} or len(set(map(len, rows))) != 1 \
            or set(map(type, chain.from_iterable(rows))) != {str}:
        return None
    keys = sorted(rows[0])
    try:
        got = map(itemgetter(*keys), rows)
        values = list(chain.from_iterable(got) if len(keys) > 1 else got)
    except KeyError:  # another key set of the same size
        return None
    if not set(map(type, values)) <= {str, int, bool, type(None)}:
        return None
    inner = newline + "  "
    head, *rest = [inner + "  " + _escape(k) + ": " for k in keys]
    parts = [None] * (2 * len(values))
    parts[::2] = [inner + "}," + inner + "{" + head, *map(",".__add__, rest)] * len(rows)
    parts[0] = "[" + inner + "{" + head
    parts[1::2] = "".join(_encode_values(values, 0))[1:-1].split("\x00")
    return "".join(parts) + inner + "}" + newline + "]"


def loads(text: str, source: str = "<input>") -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise InputError(f"{source}: {limit_reason(exc) or exc}") from None
    except RecursionError:
        raise InputError(f"{source}: JSON nested too deeply") from None


# -- quivers -----------------------------------------------------------------


def quiver_to_obj(quiver: Quiver) -> dict:
    return {"vertices": list(quiver.vertices), "edges": [[t, h] for t, h in quiver.edges]}


def _all(items, kind) -> bool:
    return all(map(isinstance, items, repeat(kind)))


def _pairs_of_str(items) -> bool:
    return (_all(items, (list, tuple)) and set(map(len, items)) <= {2}
            and _all(chain.from_iterable(items), str))


def quiver_from_obj(obj, source: str = "<input>") -> Quiver:
    from .quiver import Quiver

    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise InputError(f"{source}: quiver JSON needs 'vertices' and 'edges'")
    vertices, edges = obj["vertices"], obj["edges"]
    if not isinstance(vertices, (list, tuple)) or not _all(vertices, str):
        raise InputError(f"{source}: 'vertices' must be a list of string ids")
    if not isinstance(edges, (list, tuple)):
        raise InputError(f"{source}: 'edges' must be a list")
    if not _pairs_of_str(edges):
        raise InputError(
            f"{source}: each item of 'edges' must be a [tail, head] pair of string ids"
        )
    return Quiver(vertices, edges)


# A blank or comment, a quoted id, a bare id, or one other character.
_DOT_TOKEN = re.compile(
    r'\s+|//[^\n]*|#[^\n]*|/\*.*?\*/|"((?:[^"\\]|\\.)*)"|([\w.]+)|(->|.)', re.S
)
# Quoted ids escape " and \ with a backslash; a backslash-newline joins lines.
_DOT_UNESCAPE = re.compile(r'\\(?:(["\\])|\n)')
_DOT_BARE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")
_DOT_KEYWORDS = frozenset(("digraph", "edge", "graph", "node", "strict", "subgraph"))


def quiver_from_dot(text: str, source: str = "<input>") -> Quiver:
    """Read a DOT digraph; every ``a -> b`` is an edge with tail a, head b.

    Chains ``a -> b -> c`` contribute each hop, and subgraph bodies are
    read like the top level. Attribute lists and ``id = id`` assignments
    are skipped; ``--``, ports ``a:p`` and edges to ``{...}`` groups are
    refused.
    """
    from .quiver import Quiver

    toks = []  # (kind, text): kind "id", a lower-cased keyword or punctuation
    for quoted, bare, punct in (m.groups() for m in _DOT_TOKEN.finditer(text)):
        if quoted is not None:
            toks.append(("id", _DOT_UNESCAPE.sub(r"\1", quoted)))
        elif bare is not None:
            toks.append((bare.lower() if bare.lower() in _DOT_KEYWORDS else "id", bare))
        elif punct is not None:
            toks.append((punct, punct))
    toks.append(("", ""))  # the end of the text
    i = 1 if toks[0][0] == "strict" else 0
    if toks[i][0] != "digraph":
        raise InputError(f"{source}: expected a DOT digraph")
    i += 2 if toks[i + 1][0] == "id" else 1

    def take(kind: str) -> str:
        nonlocal i
        if toks[i][0] != kind:
            what = repr(toks[i][1]) if toks[i][0] else "end of input"
            raise InputError(f"{source}: unexpected {what} in DOT digraph")
        i += 1
        return toks[i - 1][1]

    vertices: dict[str, None] = {}
    edges: list[tuple[str, str]] = []
    take("{")
    depth = 1
    while depth:
        kind = toks[i][0]
        if kind in (";", "{", "}"):
            i += 1
            depth += {";": 0, "{": 1, "}": -1}[kind]
        elif kind == "[":  # an attribute list
            while toks[i][0] not in ("]", ""):
                i += 1
            take("]")
        elif kind in ("graph", "node", "edge") and toks[i + 1][0] == "[":
            i += 1
        elif kind == "subgraph":
            i += 2 if toks[i + 1][0] == "id" else 1
            take("{")
            depth += 1
        elif kind == "id" and toks[i + 1][0] == "=":
            i += 2
            take("id")
        else:
            tail = take("id")
            vertices[tail] = None
            while toks[i][0] == "->":
                i += 1
                head = take("id")
                vertices[head] = None
                edges.append((tail, head))
                tail = head
    take("")
    if not vertices:
        raise InputError(f"{source}: digraph declares no vertices")
    return Quiver(vertices, edges)


def _dot_quote(name: str) -> str:
    if _DOT_BARE.fullmatch(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(vertices, edges) -> str:
    """A DOT digraph: one statement per vertex, then one per edge. Both
    ends of an edge are vertices, so each id is quoted once."""
    name = {v: _dot_quote(v) for v in vertices}
    lines = [f"  {name[v]};\n" for v in vertices]
    lines += [f"  {name[t]} -> {name[h]};\n" for t, h in edges]
    return "digraph {\n" + "".join(lines) + "}\n"


def quiver_to_dot(quiver: Quiver) -> str:
    return _dot(quiver.vertices, quiver.edges)


# -- E-sequences --------------------------------------------------------------


def esequence_to_obj(seq: ESequence) -> dict:
    return {
        "levels": [list(level) for level in seq.levels],
        "parent": dict(seq.parent),
        "order": sorted([x, y] for x, y in seq.order),
    }


def esequence_from_obj(obj, source: str = "<input>") -> ESequence:
    from .esequence import ESequence

    if not isinstance(obj, dict) or "levels" not in obj or "parent" not in obj:
        raise InputError(f"{source}: E-sequence JSON needs 'levels' and 'parent'")
    levels, parent, order = obj["levels"], obj["parent"], obj.get("order", [])
    for key, value in (("levels", levels), ("order", order)):
        if not isinstance(value, (list, tuple)):
            raise InputError(f"{source}: '{key}' must be a list")
    if not isinstance(parent, dict) or not _all(parent.values(), str):
        raise InputError(f"{source}: 'parent' must be an object of string labels")
    if not _all(levels, (list, tuple)) or not _all(chain.from_iterable(levels), str):
        raise InputError(
            f"{source}: each item of 'levels' must be a list of string labels"
        )
    if not _pairs_of_str(order):
        raise InputError(
            f"{source}: each item of 'order' must be an [x, y] pair of string labels"
        )
    return ESequence(levels, parent, order)


def prec_from_text(text: str) -> PrecRelation:
    """Pairs, one per line, separated by whitespace or a comma; '#' starts
    a comment. The literal 'empty' (or an empty file) is the empty
    relation."""
    from .esequence import PrecRelation

    rows = [(ln, raw, raw.split("#")[0].strip())
            for ln, raw in enumerate(text.splitlines(), start=1)]
    rows = [row for row in rows if row[2]]
    if len(rows) == 1 and rows[0][2].lower() == "empty":
        return PrecRelation(())
    pairs: list[tuple[str, str]] = []
    for ln, raw, line in rows:
        parts = [p for p in re.split(r"[,\s]+", line) if p]
        if len(parts) != 2:
            raise InputError(f"prec file line {ln}: expected two labels, got {raw!r}")
        pairs.append((parts[0], parts[1]))
    return PrecRelation(pairs)


# -- metric spaces ------------------------------------------------------------


def _matrix_strs(space: FiniteMetricSpace) -> list[list[str]]:
    """The distance matrix as exact strings, read off the int rows; each
    distinct entry is rendered once."""
    from fractions import Fraction

    scale, ints = space._scaled
    try:
        text = {v: str(Fraction(v, scale)) for v in space._values}
    except ValueError as exc:  # a numerator or denominator past the int->str limit
        raise SizeGuardError(
            f"a distance too long to write: {limit_reason(exc) or exc}") from None
    return [[text[v] for v in row] for row in ints]


def space_to_csv(space: FiniteMetricSpace) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(space.points)
    writer.writerows(_matrix_strs(space))
    return buf.getvalue()


def matrix_from_csv(text: str, source: str = "<input>"):
    """Parse a labeled distance matrix: a header row of point labels, then
    one row of entries per point. Returns (labels, rows of Fractions).
    Each distinct cell text is parsed once."""
    from .metric import to_fraction

    cells = csv.reader(io.StringIO(text))
    try:
        reader = [row for row in cells if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise InputError(f"{source}:{cells.line_num}: {exc}") from None
    if not reader:
        raise InputError(f"{source}: empty matrix file")
    labels = [cell.strip() for cell in reader[0]]
    rows: list[list[Fraction]] = []
    parsed: dict[str, Fraction] = {}
    if len(reader) != len(labels) + 1:
        raise InputError(
            f"{source}: expected {len(labels)} data rows after the header, "
            f"got {len(reader) - 1}"
        )
    for r, row in enumerate(reader[1:], start=2):
        if len(row) != len(labels):
            raise InputError(
                f"{source}:{r}: expected {len(labels)} entries, got {len(row)}"
            )
        for c, cell in enumerate(row, start=1):
            if cell not in parsed:
                try:
                    parsed[cell] = to_fraction(cell)
                except InputError as exc:
                    raise InputError(f"{source}:{r}:{c}: {exc}") from None
        rows.append([parsed[cell] for cell in row])
    return labels, rows


def space_from_csv(text: str, source: str = "<input>") -> FiniteMetricSpace:
    from .metric import FiniteMetricSpace

    labels, rows = matrix_from_csv(text, source)
    return FiniteMetricSpace(labels, rows)


def space_to_obj(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "matrix": _matrix_strs(space),
    }


def tower_to_obj(tower: Tower, kind: str) -> dict:
    return {
        "kind": kind,
        "length": len(tower),
        "spaces": [space_to_obj(s) for s in tower.spaces],
        "maps": [dict(sorted(m.mapping.items())) for m in tower.maps],
    }


# -- forests -------------------------------------------------------------------


def forest_to_obj(forest: ESequence) -> dict:
    return {
        "levels": [list(level) for level in forest.levels],
        "parent": dict(forest.parent),
        "roots": list(forest.roots),
    }


def forest_to_dot(forest: ESequence) -> str:
    labels, parent = forest.labels(), forest.parent
    return _dot(labels, [(x, parent[x]) for x in labels if x in parent])


_NEWICK_UNSAFE = re.compile(r"[\s(),:;\[\]']")


def _newick_name(label: str) -> str:
    if _NEWICK_UNSAFE.search(label):
        return "'" + label.replace("'", "''") + "'"
    return label


def forest_to_newick(forest: ESequence) -> str:
    """Newick form of a single-rooted forest; every parent edge carries
    branch length 1 (heights are hop counts)."""
    if len(forest.roots) != 1:
        raise InputError("Newick export needs a single root")

    # Depth-first with an explicit stack, so a deep forest needs no
    # recursion. An entry is a label to expand or text to write as is.
    out: list[str] = []
    stack: list[tuple[str, bool]] = [(forest.roots[0], True)]
    while stack:
        item, is_label = stack.pop()
        kids = forest.children(item) if is_label else ()
        if not kids:
            out.append(_newick_name(item) if is_label else item)
            continue
        out.append("(")
        stack.append((":1)" + _newick_name(item), False))
        for i, child in enumerate(reversed(kids)):
            if i:
                stack.append((":1,", False))
            stack.append((child, True))
    return "".join(out) + ";\n"


# -- reports -------------------------------------------------------------------


def report_to_obj(report: AnalysisReport) -> dict:
    return {
        "quiver": {
            "monotonous": report.monotonous,
            "phylogenetic_quiver": report.phylogenetic_quiver,
            "isotypy_class_count": report.isotypy_class_count,
        },
        "vertices": [
            {
                "id": row.vertex,
                "height": row.height,
                "primitive": row.primitive,
                "normal": row.normal,
                "phylogenetic": row.phylogenetic,
            }
            for row in report.vertices
        ],
    }


def evolution_to_obj(evo: Evolution) -> dict:
    return {"vertices": list(evo.vertices), "length": evo.length}


def read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path}: not UTF-8 text") from None


def read_quiver_file(path: str) -> Quiver:
    text = read_text(path)
    if path.endswith(".dot") or path.endswith(".gv"):
        return quiver_from_dot(text, source=path)
    return quiver_from_obj(loads(text, source=path), source=path)
