"""Command-line front end.

Exit status: 0 success, 1 validation failure or malformed input, 2 usage
error, 3 size-guard refusal. Outputs are deterministic for fixed inputs
and flags. Each command imports the layers it runs, so a process loads
only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import serialize
from .errors import InputError, SizeGuardError

if TYPE_CHECKING:
    from .esequence import ESequence
    from .quiver import Quiver


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _load_space(args):
    """The CSV's space; ``--max-points`` refuses before the cubic metric check."""
    from .metric import FiniteMetricSpace

    text = serialize.read_text(args.input)
    labels, rows = serialize.matrix_from_csv(text, source=args.input)
    if args.max_points is not None and len(labels) > args.max_points:
        raise SizeGuardError(
            f"{args.input}: {len(labels)} points exceed --max-points "
            f"{args.max_points}"
        )
    return FiniteMetricSpace.build(labels, rows)


def _read_quiver_or_esequence(path: str) -> Quiver | ESequence:
    """A ``.dot``/``.gv`` file is a DOT quiver, a JSON object with
    ``levels`` an E-sequence, and any other JSON a quiver."""
    text = serialize.read_text(path)
    if path.endswith(".dot") or path.endswith(".gv"):
        return serialize.quiver_from_dot(text, source=path)
    obj = serialize.loads(text, source=path)
    if isinstance(obj, dict) and "levels" in obj:
        return serialize.esequence_from_obj(obj, source=path)
    return serialize.quiver_from_obj(obj, source=path)


def cmd_analyze(args) -> dict:
    from . import analysis

    return serialize.report_to_obj(analysis.analyze(serialize.read_quiver_file(args.input)))


def cmd_universal(args) -> dict:
    from . import analysis

    quiver = serialize.read_quiver_file(args.input)
    evo = analysis.universal_evolution(quiver, args.vertex)
    if evo is None:
        return {"status": "none"}
    obj = {"status": "universal", **serialize.evolution_to_obj(evo)}
    if args.bound is not None:
        obj["verified_up_to_length"] = args.bound
        obj["bounded_check"] = analysis.verify_universal_bounded(
            quiver, evo, args.bound
        )
    return obj


def cmd_clade(args) -> dict:
    from . import clades

    return clades.clade_report(serialize.read_quiver_file(args.input), args.apex)


def cmd_esequence(args) -> dict:
    from . import esequence

    quiver = serialize.read_quiver_file(args.input)
    return serialize.esequence_to_obj(esequence.evolutionary_sequence(quiver))


# Format -> name of its writer in serialize, looked up on each call.
_FOREST_FORMATS = {"dot": "forest_to_dot", "newick": "forest_to_newick",
                   "json": "forest_to_obj"}


def cmd_forest(args) -> dict | str:
    from . import esequence

    seq = _read_quiver_or_esequence(args.input)
    if not isinstance(seq, esequence.ESequence):
        seq = esequence.evolutionary_sequence(seq)
    return getattr(serialize, _FOREST_FORMATS[args.format])(seq)


def cmd_reconstruct(args) -> dict:
    from . import esequence

    space = _load_space(args)
    if args.prec is None or args.prec == "empty":
        prec = esequence.PrecRelation.build(())
    else:
        prec = serialize.prec_from_text(serialize.read_text(args.prec))
    # The default is the largest distance rounded up, so reconstruct itself
    # names any distance that is not an integer.
    n = -(-space._values[-1] // space._scaled[0]) if args.levels is None else args.levels
    return serialize.esequence_to_obj(esequence.reconstruct(space, prec, n))


def cmd_ultra_tower(args) -> dict:
    from . import metric

    return serialize.tower_to_obj(metric.tower_u(_load_space(args)), "ultrametric")


def cmd_metric_tower(args) -> dict:
    from . import metric

    return serialize.tower_to_obj(metric.tower_v(_load_space(args)), "metric")


def cmd_validate(args) -> tuple[dict, int]:
    path = args.input
    if path.endswith(".csv"):
        from . import metric

        labels, rows = serialize.matrix_from_csv(serialize.read_text(path), source=path)
        check = metric.validate_space(labels, rows)
        obj = {
            "kind": "metric-space",
            "is_metric": check.is_metric,
            "is_ultrametric": check.is_ultrametric,
            "problems": list(check.problems),
        }
        return obj, 0 if check.is_metric else 1
    from .quiver import Quiver

    seq = _read_quiver_or_esequence(path)
    if isinstance(seq, Quiver):
        return {"kind": "quiver", "problems": []}, 0
    from .esequence import validate_esequence

    problems = validate_esequence(seq)
    return {"kind": "esequence", "problems": problems}, 0 if not problems else 1


def _parse_tree_edges(text: str) -> list[tuple[str, str]]:
    edges = []
    for token in text.replace(",", " ").split():
        a, _, b = token.partition("-")
        if not a or not b or "-" in b:
            raise InputError(f"tree edge {token!r} must look like a-b")
        edges.append((a, b))
    return edges


def _gen_rooted_tree(gen, args):
    if not args.edges or not args.root:
        raise InputError("rooted-tree needs --edges and --root")
    return gen.gen_rooted_tree_quiver(_parse_tree_edges(args.edges), args.root)


# Generator kind -> builder from the generators module and the parsed
# arguments; the order is the order of the ``gen`` choices.
_GENERATORS = {
    "map-quiver": lambda g, a: g.gen_map_quiver(a.n),
    "surjection-quiver": lambda g, a: g.gen_surjection_quiver(a.n),
    "rooted-tree": _gen_rooted_tree,
    "g3": lambda g, a: g.gen_g3(),
    "abnormal": lambda g, a: g.gen_abnormal(),
    "nonmonotonous": lambda g, a: g.gen_nonmonotonous(),
    "irregular": lambda g, a: g.gen_irregular(),
    "random-quiver": lambda g, a: g.gen_random_quiver(a.n, a.density, a.seed),
    "random-monotonous": lambda g, a: g.gen_random_monotonous(a.n, a.density, a.seed),
    "random-phylogenetic":
        lambda g, a: g.gen_random_phylogenetic(a.n, a.density, a.seed),
    "random-ultrametric": lambda g, a: g.gen_random_ultrametric(a.n, a.depth, a.seed),
    "random-metric": lambda g, a: g.gen_random_metric(a.n, a.seed),
    "random-esequence": lambda g, a: g.gen_random_esequence(
        a.levels, a.width, a.order_density, a.seed,
        single_root=a.single_root, surjective=a.surjective,
    ),
}

# Writer in serialize of each generator kind that builds no quiver.
_GEN_WRITERS = {"random-ultrametric": "space_to_csv", "random-metric": "space_to_csv",
                "random-esequence": "esequence_to_obj"}


def cmd_gen(args) -> dict | str:
    from . import generators

    result = _GENERATORS[args.kind](generators, args)
    return getattr(serialize, _GEN_WRITERS.get(args.kind, "quiver_to_obj"))(result)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phyloquiver",
        description="Phylogenetic analysis on finite quivers and metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", help="write output here instead of stdout")
        return p

    p = add("analyze", cmd_analyze, "per-vertex heights/normality/phylogeny report")
    p.add_argument("input", help="quiver file (.json or .dot)")

    p = add("universal", cmd_universal, "universal evolution of a vertex")
    p.add_argument("input")
    p.add_argument("vertex")
    p.add_argument("--bound", type=int, default=None,
                   help="also run the bounded universality check up to this length")

    p = add("clade", cmd_clade, "clade report for an apex vertex")
    p.add_argument("input")
    p.add_argument("apex")

    p = add("esequence", cmd_esequence, "evolutionary sequence of a phylogenetic quiver")
    p.add_argument("input")

    p = add("forest", cmd_forest, "evolutionary forest (dot, newick, or json)")
    p.add_argument("input", help="quiver file (.json or .dot), or E-sequence JSON")
    p.add_argument("--format", choices=list(_FOREST_FORMATS), default="dot",
                   help="newick needs a single root; every edge gets length 1")

    p = add("reconstruct", cmd_reconstruct,
            "rebuild an E-sequence from a distance matrix and a prec relation")
    p.add_argument("input", help="distance matrix CSV")
    p.add_argument("--prec", default=None,
                   help="pair list file, or the literal 'empty'")
    p.add_argument("--levels", type=int, default=None,
                   help="number of reconstructed steps (default: max distance)")
    p.add_argument("--max-points", type=int, default=None)

    p = add("ultra-tower", cmd_ultra_tower, "contraction tower of an ultrametric space")
    p.add_argument("input")
    p.add_argument("--max-points", type=int, default=None)

    p = add("metric-tower", cmd_metric_tower, "drift tower of a metric space")
    p.add_argument("input")
    p.add_argument("--max-points", type=int, default=None)

    p = add("gen", cmd_gen, "emit a fixture or a seeded random instance")
    p.add_argument("kind", choices=list(_GENERATORS))
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--width", type=int, default=5)
    p.add_argument("--order-density", type=float, default=0.3)
    p.add_argument("--single-root", action="store_true")
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--edges", help="tree edges for rooted-tree, e.g. 'a-b b-c'")
    p.add_argument("--root", help="root vertex for rooted-tree")

    p = add("validate", cmd_validate, "run every validator that applies to the input")
    p.add_argument("input")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_points", None) is not None and args.max_points < 1:
        parser.error("--max-points must be at least 1")
    if getattr(args, "bound", None) is not None and args.bound < 0:
        parser.error("--bound must be nonnegative")
    try:  # a command returns its JSON-ready object or text, or that and a status
        result = args.fn(args)
        out, status = result if isinstance(result, tuple) else (result, 0)
        _write(args, out if isinstance(out, str) else serialize.dumps(out))
        return status
    except SizeGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
