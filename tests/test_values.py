"""The value types' contract: frozen, compared and hashed by their fields
as a tuple, equal only to their own class, and printed as before."""

from __future__ import annotations

import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import phyloquiver
from phyloquiver import (
    AnalysisReport,
    Condensation,
    ESequence,
    Evolution,
    FiniteMetricSpace,
    MapClassification,
    PointMap,
    PrecRelation,
    Quiver,
    Tower,
    analyze,
    clade,
    classify_map,
    condense,
    evolutionary_sequence,
    induce_prec,
    induced_subquiver,
    is_phylogenetic_quiver,
    monotonize,
    phylogenetic_core,
    realize_esequence,
    reconstruct,
    terminal_ultrametric,
    tower_u,
    tower_v,
    universal_evolution,
    validate_esequence,
)
from phyloquiver.analysis import VertexAnalysis, short_full_evolutions
from phyloquiver.errors import Frozen
from phyloquiver.generators import (
    gen_random_esequence,
    gen_random_metric,
    gen_random_monotonous,
    gen_random_phylogenetic,
    gen_random_quiver,
    gen_random_ultrametric,
)
from phyloquiver.metric import SpaceCheck


def quiver():
    return Quiver(("A", "B"), (("B", "A"),))


def space():
    return FiniteMetricSpace(("x", "y"), ((0, 1), (1, 0)))


def point():
    return FiniteMetricSpace(("z",), ((0,),))


def point_map():
    return PointMap(space(), point(), {"x": "z", "y": "z"})


def row():
    return VertexAnalysis(vertex="A", height=0, primitive=True, normal=True,
                          phylogenetic=None)


# name: (class, fresh (args, kwargs), field names, hashable, repr)
CASES = {
    "Quiver": (
        Quiver, lambda: ((("A", "B"), (("B", "A"),)), {}),
        ("vertices", "edges"), True,
        "Quiver(2 vertices, 1 edges)",
    ),
    "Condensation": (
        Condensation, lambda: (((("A",), ("B",)), {"A": 0, "B": 1}, ((), (0,)), (0, 1)), {}),
        ("classes", "class_index", "parents", "order"), False,
        "Condensation(classes=(('A',), ('B',)), class_index={'A': 0, 'B': 1}, "
        "parents=((), (0,)), order=(0, 1))",
    ),
    "Evolution": (
        Evolution, lambda: ((quiver(), ("A", "B")), {}),
        ("quiver", "vertices"), True,
        "Evolution(A <- B)",
    ),
    "VertexAnalysis": (
        VertexAnalysis,
        lambda: ((), dict(vertex="A", height=0, primitive=True, normal=True,
                          phylogenetic=None)),
        ("vertex", "height", "primitive", "normal", "phylogenetic"), True,
        "VertexAnalysis(vertex='A', height=0, primitive=True, normal=True, "
        "phylogenetic=None)",
    ),
    "AnalysisReport": (
        AnalysisReport,
        lambda: ((), dict(vertices=(row(),), monotonous=True, phylogenetic_quiver=False,
                          isotypy_class_count=2)),
        ("vertices", "monotonous", "phylogenetic_quiver", "isotypy_class_count"), True,
        "AnalysisReport(vertices=(VertexAnalysis(vertex='A', height=0, primitive=True, "
        "normal=True, phylogenetic=None),), monotonous=True, phylogenetic_quiver=False, "
        "isotypy_class_count=2)",
    ),
    "ESequence": (
        ESequence,
        lambda: (((("r",), ("a", "b")), {"a": "r", "b": "r"}, frozenset({("a", "b")})), {}),
        ("levels", "parent", "order"), False,
        "ESequence(levels=(('r',), ('a', 'b')), parent={'a': 'r', 'b': 'r'}, "
        "order=frozenset({('a', 'b')}))",
    ),
    "PrecRelation": (
        PrecRelation, lambda: ((frozenset({("a", "b")}),), {}),
        ("pairs",), True,
        "PrecRelation(pairs=frozenset({('a', 'b')}))",
    ),
    "SpaceCheck": (
        SpaceCheck, lambda: ((True, False, ("p",)), {}),
        ("is_metric", "is_ultrametric", "problems"), True,
        "SpaceCheck(is_metric=True, is_ultrametric=False, problems=('p',))",
    ),
    "FiniteMetricSpace": (
        FiniteMetricSpace, lambda: ((("x", "y"), ((0, 1), (1, 0))), {}),
        ("points", "_scaled"), True,
        "FiniteMetricSpace(2 points)",
    ),
    "PointMap": (
        PointMap, lambda: ((space(), point(), {"x": "z", "y": "z"}), {}),
        ("source", "target", "mapping"), False,
        "PointMap(source=FiniteMetricSpace(2 points), target=FiniteMetricSpace(1 points), "
        "mapping={'x': 'z', 'y': 'z'})",
    ),
    "MapClassification": (
        MapClassification, lambda: ((False, Fraction(1, 2), False), {}),
        ("is_isometry", "contraction_epsilon", "is_drift"), True,
        "MapClassification(is_isometry=False, contraction_epsilon=Fraction(1, 2), "
        "is_drift=False)",
    ),
    "Tower": (
        Tower, lambda: (((space(), point()), (point_map(),)), {}),
        ("spaces", "maps"), False,
        "Tower(spaces=(FiniteMetricSpace(2 points), FiniteMetricSpace(1 points)), "
        "maps=(PointMap(source=FiniteMetricSpace(2 points), "
        "target=FiniteMetricSpace(1 points), mapping={'x': 'z', 'y': 'z'}),))",
    ),
}


def test_cases_cover_every_value_type():
    for info in pkgutil.iter_modules(phyloquiver.__path__):
        if info.name != "__main__":  # running it would start the CLI
            importlib.import_module(f"phyloquiver.{info.name}")
    assert set(CASES) == {cls.__name__ for cls in Frozen.__subclasses__()}
    assert all(cls.__name__ == name for name, (cls, *_) in CASES.items())


@pytest.fixture(params=sorted(CASES))
def case(request):
    cls, make, fields, hashable, text = CASES[request.param]

    def build(kind=cls):
        args, kwargs = make()
        return kind(*args, **kwargs)

    return build, cls, fields, hashable, text


def test_fields_cannot_be_assigned_or_deleted(case):
    build, _, fields, _, _ = case
    value = build()
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_equal_arguments_give_equal_values(case):
    build, _, fields, hashable, _ = case
    first, second = build(), build()
    assert first == second and not first != second
    if hashable:
        assert hash(first) == hash(second) == hash(tuple(getattr(first, f) for f in fields))
    else:
        with pytest.raises(TypeError):
            hash(first)


def test_another_class_with_equal_fields_is_unequal(case):
    build, cls, fields, _, _ = case
    value, other = build(), build(type("Other", (cls,), {}))
    assert all(getattr(value, f) == getattr(other, f) for f in fields)
    assert value != other and other != value
    assert value != tuple(getattr(value, f) for f in fields)


def test_repr_lists_the_fields(case):
    build, _, _, _, text = case
    assert repr(build()) == text


def test_pickle_round_trip_keeps_the_value(case):
    build, _, _, _, _ = case
    value = build()
    assert pickle.loads(pickle.dumps(value)) == value


# The types with no constructor of their own: Frozen's binds their fields.
PLAIN = ("AnalysisReport", "Condensation", "MapClassification", "SpaceCheck", "Tower",
         "VertexAnalysis")


def test_only_the_plain_types_use_the_generic_constructor():
    generic = {name for name, (cls, *_) in CASES.items() if cls.__init__ is Frozen.__init__}
    assert generic == set(PLAIN)


@pytest.mark.parametrize("name", PLAIN)
def test_a_plain_type_binds_its_fields_by_position_or_by_name(name):
    cls, make, fields, _, text = CASES[name]
    args, kwargs = make()
    value = cls(*args, **kwargs)
    named = {f: getattr(value, f) for f in fields}
    values = tuple(named.values())
    for built in (cls(*values), cls(**named), cls(**dict(reversed(named.items()))),
                  cls(*values[:2], **dict(list(named.items())[2:]))):
        assert built == value and repr(built) == text
        assert list(built.__dict__) == list(fields)  # one key layout, as _trusted's


@pytest.mark.parametrize("name", PLAIN)
def test_a_plain_type_names_the_field_it_cannot_bind(name):
    cls, make, fields, _, _ = CASES[name]
    args, kwargs = make()
    value = cls(*args, **kwargs)
    named = {f: getattr(value, f) for f in fields}
    first, last = fields[0], fields[-1]
    calls = [
        ((), {f: v for f, v in named.items() if f != last}, f"missing field {last!r}"),
        ((), {**named, "extra": 1}, "got an unknown field 'extra'"),
        ((named[first],), named, f"got field {first!r} twice"),
        ((*named.values(), 1), {}, f"takes fields {fields}, not {len(fields) + 1} values"),
    ]
    for args, kwargs, words in calls:
        with pytest.raises(TypeError) as exc:
            cls(*args, **kwargs)
        assert str(exc.value) == f"{name}() {words}"


def test_esequence_constructor_stores_its_fields():
    args = ([["r"], ["a", "b"]], {"a": "r", "b": "r"}, {("a", "b")})
    seq = ESequence(*args)
    assert seq == ESequence._trusted(
        levels=(("r",), ("a", "b")), parent={"a": "r", "b": "r"},
        order=frozenset({("a", "b")}))
    assert ESequence(iter(args[0]), args[1], [["a", "b"]]) == seq
    assert type(seq.parent) is dict and seq.parent is not args[1]
    assert ESequence(*args[:2]).order == frozenset()


def test_prec_constructor_stores_its_pairs():
    prec = PrecRelation({("a", "b")})
    assert prec == PrecRelation([["a", "b"]])
    assert hash(prec) == hash(PrecRelation([("a", "b")]))
    assert prec.pairs == frozenset({("a", "b")})


def test_no_value_type_has_a_second_constructor():
    assert [name for name, (cls, *_) in CASES.items() if hasattr(cls, "build")] == []


def test_state_outside_the_fields_is_not_compared():
    warm, cold = quiver(), quiver()
    warm.has_edge("B", "A")  # fills its memo
    assert warm == cold and hash(warm) == hash(cold)
    ultra = space()
    general = FiniteMetricSpace._trusted(points=ultra.points, _scaled=ultra._scaled,
                                         is_ultrametric=False)
    assert ultra == general and hash(ultra) == hash(general)


def test_a_trusted_value_behaves_like_the_checked_one(case):
    build, cls, fields, hashable, text = case
    value = build()
    trusted = cls._trusted(**{f: getattr(value, f) for f in fields})
    assert type(trusted) is cls
    assert trusted == value and value == trusted and not trusted != value
    if hashable:
        assert hash(trusted) == hash(value)
    assert repr(trusted) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(trusted, name, None)
    with pytest.raises(AttributeError):
        trusted.extra = 1


def test_a_quiver_makes_its_own_memo_on_first_read():
    checked = quiver()
    trusted = Quiver._trusted(vertices=checked.vertices, edges=checked.edges)
    for q in (checked, trusted):
        assert list(q.__dict__) == ["vertices", "edges"]  # one key layout
    checked.has_edge("B", "A")
    kept = dict(checked._memo)
    assert kept and "_memo" not in trusted.__dict__
    trusted.has_edge("B", "A")
    assert trusted._memo == kept and trusted._memo is not checked._memo
    assert checked._memo == kept


def checked(value):
    """``value`` rebuilt through its checking constructor."""
    return type(value)(*(getattr(value, f) for f in value._fields))


def trusted_outputs():
    """Every value the library builds without checks, over the audit
    families: random and monotonized quivers and their short full
    evolutions, chains, the inputs of realization and reconstruction, and
    the maps of towers over random metrics and ultrametrics."""
    for s in range(120):
        n, d = 2 + s % 8, (0.2, 0.35, 0.5)[s % 3]
        for q in (gen_random_quiver(n, d, seed=s), gen_random_phylogenetic(n, d, seed=s)):
            m = monotonize(q)
            yield from (m, phylogenetic_core(m), induced_subquiver(q, q.vertices[:1 + s % n]))
            yield from (clade(q, v) for v in q.vertices[s % 2::2])
            yield from (e for x in (q, m) for v in x.vertices for e in short_full_evolutions(x, v))
            if is_phylogenetic_quiver(m):
                yield evolutionary_sequence(m)
        for space in (gen_random_metric(n, seed=s), gen_random_ultrametric(n, 1 + s % 4, seed=s)):
            yield from tower_v(space).maps
            if space.is_ultrametric:
                yield from tower_u(space).maps
        seq = gen_random_esequence(1 + s % 5, 3 + s % 7, 0.4, seed=s)
        yield from (realize_esequence(seq), evolutionary_sequence(realize_esequence(seq)))
        seq = gen_random_esequence(2 + s % 4, 3 + s % 6, 0.4, seed=s,
                                   single_root=True, surjective=True)
        top = seq.top
        yield reconstruct(terminal_ultrametric(seq, top), induce_prec(seq, top), top)
    for k in (1, 2, 60, 600):
        labels = [f"c{i}" for i in range(k)]
        chain = ESequence([[x] for x in labels], dict(zip(labels[1:], labels)))
        q = realize_esequence(chain)
        yield from (q, evolutionary_sequence(q), clade(q, labels[k // 2]), monotonize(q))


def test_trusted_outputs_pass_their_checking_constructors():
    counts = {Quiver: 0, ESequence: 0, Evolution: 0, PointMap: 0}
    for value in trusted_outputs():
        assert checked(value) == value
        if isinstance(value, ESequence):
            assert validate_esequence(value) == []
        counts[type(value)] += 1
    assert counts[Quiver] >= 1_000 and counts[ESequence] >= 300
    assert counts[Evolution] >= 1_000 and counts[PointMap] >= 300


def derived_inputs():
    """Seeded inputs for every function that derives a value: random,
    monotonous and phylogenetic quivers, none of them queried yet,
    single-root E-sequences, and random metrics and ultrametrics."""
    quivers, sequences, spaces = [], [], []
    for s in range(12):
        n = 3 + s % 6
        quivers += [gen(n, 0.35, seed=s) for gen in
                    (gen_random_quiver, gen_random_monotonous, gen_random_phylogenetic)]
        sequences.append(gen_random_esequence(2 + s % 3, 3 + s % 4, 0.4, seed=s,
                                              single_root=True, surjective=True))
        spaces += [gen_random_metric(n, seed=s), gen_random_ultrametric(n, 1 + s % 4, seed=s)]
    return quivers, sequences, spaces


def test_the_library_derives_every_value_without_a_public_constructor(monkeypatch):
    quivers, sequences, spaces = derived_inputs()

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"public {type(self).__name__} constructor called")

    for cls in (Frozen, *Frozen.__subclasses__()):
        if "__init__" in vars(cls):  # Frozen's own, and every checking type's
            monkeypatch.setattr(cls, "__init__", refuse)
    with pytest.raises(AssertionError):
        SpaceCheck(True, True, ())
    rows = realized = maps = 0
    for q in quivers:  # fresh: no memo holds a result built before the patch
        report = analyze(q)
        condense(q)
        rows += len(report.vertices)
        for v in q.vertices[::2]:
            universal_evolution(q, v)
            clade(q, v)
        phylogenetic_core(monotonize(q))
        if report.phylogenetic_quiver:
            realize_esequence(evolutionary_sequence(q))
            realized += 1
    for seq in sequences:
        top = seq.top
        evolutionary_sequence(realize_esequence(seq))
        reconstruct(terminal_ultrametric(seq, top), induce_prec(seq, top), top)
    for space in spaces:
        for tower in [tower_v(space)] + ([tower_u(space)] if space.is_ultrametric else []):
            maps += len([classify_map(pmap) for pmap in tower.maps])
    assert rows >= 150 and realized >= 20 and maps >= 40
