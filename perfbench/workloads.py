"""The five benchmark workloads.

A workload declares a fixed *cycle* of slots (one slot = one input family
at one size) in :meth:`Workload.plan`. :meth:`Workload.setup` builds, from
the seed, one input per slot per cycle: random families get an independent
draw every time, so a run averages over many draws, while structured
families (ladders, chains) repeat. Per operation the runner calls
:meth:`prepare` (untimed: relabel or pick the input), :meth:`run` (timed)
and :meth:`check` (untimed; raises :class:`CheckFailed` on a wrong output).

Library functions are always looked up on their module at call time, so
the span wrappers installed for a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass

import inputs
from gauge import SpeedGauge, rational_kernel
from phyloquiver import (
    analysis,
    cli,
    clades,
    esequence,
    metric,
    quiver as quiver_mod,
    serialize,
)
from phyloquiver.errors import UndecidedError


class CheckFailed(Exception):
    """An operation finished but its output breaks a law of the workload."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Slot:
    family: str
    param: object  # what the family's generator is given


class Workload:
    # Seconds one cycle takes with the unmodified library on the reference
    # machine (2 cores, Python 3.11); sets the work per run, see cycles().
    cycle_s: float
    # Whether a traced run records spans during check() instead of run().
    trace_in_check = False
    MIN_OPS = 100  # so op_p90_ms has at least 10 samples beyond it

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.slots = self.plan()
        # items[cycle][j] = (size for the scaling fits, input of slot j)
        self.items: list[list[tuple[int, object]]] = []

    def cycles(self, seconds: float) -> int:
        if self.smoke:
            return 1
        return max(round(seconds / self.cycle_s), -(-self.MIN_OPS // len(self.slots)))

    def plan(self) -> list[Slot]:
        raise NotImplementedError

    def setup(self, seed: int, root: str, cycles: int) -> None:
        raise NotImplementedError

    def prepare(self, slot: Slot, payload, tag: str):
        return payload

    def run(self, slot: Slot, item):
        raise NotImplementedError

    def check(self, slot: Slot, item, result) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def gauge(self) -> SpeedGauge | None:
        """The speed gauge for operations; None means the default one."""
        return None


def _pick(smoke: bool, full, small):
    return small if smoke else full


# -- quiver-analyze -----------------------------------------------------------


class QuiverAnalyze(Workload):
    """A fresh quiver per operation through the ``analyze`` CLI path, then
    the universal evolution of a top-height vertex and its bounded check."""

    cycle_s = 5.5

    def plan(self):
        full = {
            "monotonous": [100, 150, 250, 400],
            "raw": [(150, 375), (300, 750), (100, 800)],
            "ladder": [8, 9, 10, 11, 12],
            "chain": [300, 1200],
        }
        small = {"monotonous": [20], "raw": [(20, 50)], "ladder": [3], "chain": [12]}
        plan = _pick(self.smoke, full, small)
        # Three of every random and ladder input per chain pair keeps the
        # chains, the costliest inputs, to a small share of operations.
        reps = _pick(self.smoke, 3, 1)
        return [Slot(fam, p) for _ in range(reps)
                for fam in ("monotonous", "raw", "ladder") for p in plan[fam]] + \
            [Slot("chain", p) for p in plan["chain"]]

    def setup(self, seed, root, cycles):
        rng = random.Random(f"quiver-analyze:{seed}")
        fixed = {}
        for s in self.slots:
            if s.family == "ladder":
                fixed[s] = (s.param, inputs.ladder_quiver(s.param))
            elif s.family == "chain":
                fixed[s] = (s.param, inputs.chain_quiver(s.param))

        def draw(s):
            if s in fixed:
                return fixed[s]
            if s.family == "monotonous":
                obj = inputs.random_monotonous_quiver(rng.randrange(2**31), s.param, 3.5)
            else:
                obj = inputs.dense_random_quiver(rng, *s.param)
            return len(obj["vertices"]) + len(obj["edges"]), obj

        self.items = [[draw(s) for s in self.slots] for _ in range(cycles)]

    def prepare(self, slot, payload, tag):
        return json.dumps(inputs.relabel_quiver(payload, tag))

    def run(self, slot, text):
        q = serialize.quiver_from_obj(serialize.loads(text))
        report = serialize.report_to_obj(analysis.analyze(q))
        out = serialize.dumps(report)
        top = max(report["vertices"], key=lambda r: r["height"])["id"]
        try:
            evo = analysis.universal_evolution(q, top)
        except UndecidedError:
            return q, report, out, top, "undecided", None
        if evo is None:
            return q, report, out, top, None, None
        bound = report_height(report, top) + 4
        return q, report, out, top, evo, analysis.verify_universal_bounded(q, evo, bound)

    def check(self, slot, text, result):
        q, report, out, top, evo, bounded = result
        rows = report["vertices"]
        expect([r["id"] for r in rows] == list(q.vertices), "report misses vertices")
        expect(json.loads(out) == report, "serialized report differs")
        if slot.family != "raw":
            expect(report["quiver"]["monotonous"], "monotonous input not reported so")
        status = next(r["phylogenetic"] for r in rows if r["id"] == top)
        if evo == "undecided":
            expect(status is None, "undecided status disagrees with the report")
        elif evo is None:
            expect(status is False, "no universal evolution for a phylogenetic vertex")
        else:
            quiver_mod.validate_evolution(q, evo.vertices)
            expect(status is True, "universal evolution for a non-phylogenetic vertex")
            expect(evo.terminal == top, "evolution ends elsewhere")
            expect(evo.length == report_height(report, top), "evolution is not short")
            expect(bounded is True, "bounded universality check failed")


def report_height(report: dict, v: str) -> int:
    return next(r["height"] for r in report["vertices"] if r["id"] == v)


# -- quiver-queries -----------------------------------------------------------


class QuiverQueries(Workload):
    """Seeded batches of point reads on a few large quivers warmed in
    set-up. No operation builds a new quiver."""

    cycle_s = 0.39
    BATCH = 8

    def plan(self):
        return [Slot("phylogenetic", 0), Slot("random", 1)] * _pick(self.smoke, 20, 1)

    def setup(self, seed, root, cycles):
        rng = random.Random(f"quiver-queries:{seed}")
        widths = _pick(self.smoke, [6, 12, 24, 36, 48, 60], [2, 4, 6])
        wide = inputs.random_esequence(rng, widths, 0.3)
        n = _pick(self.smoke, 600, 40)
        quivers = [
            esequence.realize_esequence(serialize.esequence_from_obj(wide)),
            serialize.quiver_from_obj(inputs.layered_quiver(rng, n, n // 50 + 2, 27 * n // 10)),
        ]
        self.pool = [self._warm(q, rng) for q in quivers]
        self.items = [[(len(self.pool[s.param]["q"].vertices), self._batch(s.param, rng))
                       for s in self.slots] for _ in range(cycles)]

    def _warm(self, q, rng):
        """Whole-quiver tables the point answers are checked against; the
        first ``analyze`` of each quiver lands here, in set-up."""
        report = serialize.report_to_obj(analysis.analyze(q))
        anc = {v: quiver_mod.ancestors(q, v) for v in q.vertices}
        desc = {v: set() for v in q.vertices}
        for v, above in anc.items():
            for a in above:
                desc[a].add(v)
        # Apexes at evenly spaced ranks of clade size, so the cost of the
        # clade reads is the same for every seed; the seed breaks ties.
        by_size = sorted(q.vertices, key=lambda v: (len(desc[v]), rng.random()))
        k = min(12, len(by_size))
        apexes = [by_size[i * (len(by_size) - 1) // max(k - 1, 1)] for i in range(k)]
        entry = {
            "q": q, "anc": anc, "desc": desc, "apexes": apexes,
            "rows": {r["id"]: r for r in report["vertices"]},
            "crit": {v: analysis.critical_ancestors(q, v) for v in q.vertices},
            "clades": {a: clades.clade_report(q, a) for a in apexes},
            "regular": [],
        }
        if report["quiver"]["phylogenetic_quiver"]:
            esequence.evolutionary_sequence(q)
            entry["regular"] = [a for a in apexes if entry["clades"][a]["regular"]]
        return entry

    def _batch(self, key, rng):
        p = self.pool[key]
        vs = p["q"].vertices
        apex = rng.choice(p["regular"]) if p["regular"] else None
        members = sorted(p["desc"][apex]) if apex else []
        return {
            "points": rng.sample(vs, min(self.BATCH, len(vs))),
            "pairs": [(rng.choice(vs), rng.choice(vs)) for _ in range(self.BATCH)],
            "universal": rng.choice(vs),
            "clade": rng.choice(p["apexes"]),
            "apex": apex,
            "members": rng.sample(members, min(2, len(members))),
        }

    def run(self, slot, batch):
        q = self.pool[slot.param]["q"]
        points = [
            (v, analysis.height(q, v), analysis.is_normal(q, v),
             analysis.critical_ancestors(q, v), analysis.phylogenetic_status(q, v))
            for v in batch["points"]
        ]
        pairs = [quiver_mod.ancestor_of(q, a, b) for a, b in batch["pairs"]]
        evo = analysis.universal_evolution(q, batch["universal"])
        report = clades.clade_report(q, batch["clade"])
        heights = [clades.clade_height(q, batch["apex"], b) for b in batch["members"]]
        return points, pairs, evo, report, heights

    def check(self, slot, batch, result):
        p = self.pool[slot.param]
        points, pairs, evo, report, heights = result
        for v, h, normal, crit, status in points:
            row = p["rows"][v]
            expect(h == row["height"], f"height of {v} disagrees")
            expect(normal == row["normal"], f"normality of {v} disagrees")
            expect(status == row["phylogenetic"], f"status of {v} disagrees")
            expect(crit == p["crit"][v], f"critical ancestors of {v} disagree")
        for (a, b), answer in zip(batch["pairs"], pairs):
            expect(answer == (a in p["anc"][b]), f"ancestor_of({a}, {b}) disagrees")
        u = batch["universal"]
        expect((evo is not None) == bool(p["rows"][u]["phylogenetic"]),
               f"universal evolution of {u} disagrees with its status")
        if evo is not None:
            quiver_mod.validate_evolution(p["q"], evo.vertices)
            expect(evo.terminal == u and evo.length == p["rows"][u]["height"],
                   f"universal evolution of {u} is not short")
            expect(p["rows"][evo.initial]["primitive"], "evolution is not full")
        expect(report == p["clades"][batch["clade"]], "clade report disagrees")
        expect(report["members"] == sorted(p["desc"][batch["clade"]]),
               "clade members disagree with the descendant table")
        table = p["clades"].get(batch["apex"], {}).get("clade_heights", {})
        for b, h in zip(batch["members"], heights):
            expect(h == table[b], f"clade height of {b} disagrees")


# -- esequence-roundtrip ------------------------------------------------------


class ESequenceRoundTrip(Workload):
    """Parse E-sequence JSON, then realize and read back (multi-root and
    chain inputs) or reconstruct from the terminal data (single-root
    surjective inputs); every round trip must be isomorphic."""

    cycle_s = 2.8

    def plan(self):
        full = {
            "multi": [(4, 6), (5, 10), (6, 14), (7, 20)],
            "single": [12, 19, 26, 33, 40],
            "chain": [300, 750, 1200],
        }
        small = {"multi": [(3, 4)], "single": [6], "chain": [10]}
        plan = _pick(self.smoke, full, small)
        # Two of each random input per chain, and five of width 19: the
        # median then falls in the middle of the single-root width-19
        # inputs and p90 inside width 40, and enough draws sit around each
        # that neither moves much with the seed.
        reps = _pick(self.smoke, {"multi": 2, "single": 2, "chain": 1},
                     {"multi": 1, "single": 1, "chain": 1})
        slots = [Slot(fam, p) for fam in ("multi", "single", "chain")
                 for _ in range(reps[fam]) for p in plan[fam]]
        return slots if self.smoke else slots + [Slot("single", 19)] * 3

    def setup(self, seed, root, cycles):
        rng = random.Random(f"esequence-roundtrip:{seed}")
        chains = {s: (s.param, inputs.chain_esequence(s.param))
                  for s in self.slots if s.family == "chain"}

        def draw(s):
            if s.family == "multi":
                # Widths alternate, so levels both fan out (surjective, with
                # orders inside fibres) and narrow (random, non-surjective).
                levels, width = s.param
                widths = [width // 3 + 1] + [width if m % 2 else width // 2
                                             for m in range(1, levels)]
                return width, inputs.random_esequence(rng, widths, 0.3)
            if s.family == "single":
                width = s.param
                widths = [1, 3, max(4, width // 3), max(5, 2 * width // 3), width]
                return width, inputs.random_esequence(rng, widths, 0.3)
            return chains[s]

        self.items = [[draw(s) for s in self.slots] for _ in range(cycles)]

    def prepare(self, slot, payload, tag):
        return json.dumps(inputs.relabel_esequence(payload, tag))

    def gauge(self):
        return SpeedGauge(rational_kernel, ref_s=0.0015)

    def run(self, slot, text):
        seq = serialize.esequence_from_obj(serialize.loads(text))
        forest = esequence.build_forest(seq)
        if slot.family == "single":
            top = seq.top
            space = esequence.terminal_ultrametric(seq, top)
            prec = esequence.induce_prec(seq, top)
            back = esequence.reconstruct(space, prec, top)
            return seq, esequence.esequence_isomorphic(back, seq), \
                serialize.forest_to_newick(forest)
        back = esequence.evolutionary_sequence(esequence.realize_esequence(seq))
        iso = esequence.esequence_isomorphic(back, seq)
        text_out = serialize.forest_to_dot(forest)
        if slot.family == "chain":
            text_out += serialize.forest_to_newick(forest)
        return seq, iso, text_out

    def check(self, slot, text, result):
        seq, iso, text_out = result
        expect(iso is True, "round trip is not isomorphic")
        for x in seq.labels():
            expect(x in text_out, f"label {x} missing from the forest output")


# -- metric-towers ------------------------------------------------------------


class MetricTowers(Workload):
    """Distance-matrix CSV to contraction towers (ultrametrics) and drift
    towers (metrics), with every map classified and serialized."""

    cycle_s = 2.55

    def plan(self):
        # Sizes lean small so a run reaches 100 operations; the three
        # metric spaces of 20 points hold the median and the two of 32 hold
        # p90, at every seed.
        full = [Slot("ultrametric", p) for p in
                [(16, 3), (16, 4), (16, 5), (20, 4), (24, 6), (28, 3), (34, 5), (40, 4)]]
        full += [Slot("metric", n) for n in [12, 12, 16, 20, 20, 20, 24, 32, 32]]
        return _pick(self.smoke, full, [Slot("ultrametric", (6, 3)), Slot("metric", 5)])

    def setup(self, seed, root, cycles):
        rng = random.Random(f"metric-towers:{seed}")

        def draw(s):
            if s.family == "ultrametric":
                return s.param[0], inputs.ultrametric_csv(rng, *s.param)
            return s.param, inputs.metric_csv(rng, s.param)

        self.items = [[draw(s) for s in self.slots] for _ in range(cycles)]

    def gauge(self):
        return SpeedGauge(rational_kernel, ref_s=0.0015)

    def run(self, slot, text):
        space = serialize.space_from_csv(text)
        if slot.family == "ultrametric":
            tower = metric.tower_u(space)
        else:
            tower = metric.tower_v(space)
        kinds = [metric.classify_map(m).kind for m in tower.maps]
        out = serialize.dumps(serialize.tower_to_obj(tower, slot.family))
        blocks = []
        if slot.family == "ultrametric":
            radii = sorted({d for row in space.rows for d in row if d > 0})
            blocks = [metric.balls(space, r) for r in radii]
        return space, tower, kinds, out, blocks

    def check(self, slot, text, result):
        space, tower, kinds, out, blocks = result
        expect(all(k in ("contraction", "drift") for k in kinds),
               "a tower map is neither a contraction nor a drift")
        expect(json.loads(out)["length"] == len(tower), "serialized tower length")
        if slot.family == "ultrametric":
            expect(len(tower) == metric.n_nonzero(space), "tower_u length != n_nonzero")
            expect(len(tower.terminal) == 1, "contraction tower must end at a point")
            for partition in blocks:
                expect(sorted(x for b in partition for x in b) == sorted(space.points),
                       "balls do not partition the space")
        else:
            expect(metric.is_trim(tower.terminal), "drift tower terminal is not trim")


# -- cli-cold -----------------------------------------------------------------


class CliCold(Workload):
    """One ``python -m phyloquiver`` child per operation over small files,
    rotating through every subcommand; stdout must equal an in-process
    ``cli.main`` run of the same arguments. The child cannot be traced, so
    a traced run records spans around the in-process reference instead."""

    cycle_s = 1.8
    trace_in_check = True
    COMMANDS = ("analyze", "universal", "clade", "esequence", "forest",
                "reconstruct", "ultra-tower", "metric-tower", "validate", "gen")

    def plan(self):
        return [Slot(name, None) for name in self.COMMANDS]

    def setup(self, seed, root, cycles):
        from phyloquiver import generators

        rng = random.Random(f"cli-cold:{seed}")
        self.root = root
        self.dir = os.path.join(".perfbench", f"cli-{os.getpid()}")
        shutil.rmtree(os.path.join(root, self.dir), ignore_errors=True)
        os.makedirs(os.path.join(root, self.dir))
        q = generators.gen_random_phylogenetic(40, 0.08, rng.randrange(2**31))
        seq_obj = inputs.random_esequence(rng, [1, 2, 4, 6], 0.4)
        seq = serialize.esequence_from_obj(seq_obj)
        leaves = esequence.terminal_ultrametric(seq, seq.top)
        prec = esequence.induce_prec(seq, seq.top)
        files = {
            "q.json": serialize.dumps(serialize.quiver_to_obj(q)),
            "s.esq.json": serialize.dumps(seq_obj),
            "leaves.csv": serialize.space_to_csv(leaves),
            "prec.txt": "".join(f"{a} {b}\n" for a, b in sorted(prec.pairs)) or "empty\n",
            "u.csv": inputs.ultrametric_csv(rng, 8, 3),
            "m.csv": inputs.metric_csv(rng, 8),
        }
        for name, text in files.items():
            with open(os.path.join(root, self.dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        h = analysis.heights(q)
        top = max(q.vertices, key=lambda v: (h[v], v))

        def f(name):
            return os.path.join(self.dir, name)

        argvs = {
            "analyze": ["analyze", f("q.json")],
            "universal": ["universal", f("q.json"), top, "--bound", str(h[top] + 4)],
            "clade": ["clade", f("q.json"), rng.choice(q.vertices)],
            "esequence": ["esequence", f("q.json")],
            "forest": ["forest", f("s.esq.json"), "--format", "newick"],
            "reconstruct": ["reconstruct", f("leaves.csv"), "--prec", f("prec.txt")],
            "ultra-tower": ["ultra-tower", f("u.csv")],
            "metric-tower": ["metric-tower", f("m.csv")],
            "validate": ["validate", f("m.csv")],
            "gen": ["gen", "random-monotonous", "--n", "30", "--seed", str(rng.randrange(1000))],
        }
        self.items = [[(1, argvs[s.family]) for s in self.slots]] * cycles
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.run(self.slots[0], argvs["analyze"])  # warm-up: one child start

    def gauge(self):
        # Starting an interpreter slows less than pure computation in the
        # host's slow mode, so child operations are gauged by a bare start.
        def start():
            subprocess.run([sys.executable, "-c", "pass"], env=self.env,
                           capture_output=True, timeout=60, check=True)

        return SpeedGauge(start, ref_s=0.055, every_s=0.4, repeats=1)

    def run(self, slot, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "phyloquiver", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, slot, argv, result):
        code, out, err = result
        expect(code == 0, f"exit code {code}: {err.strip()[-200:]}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):  # paths are relative to the root
            want = cli.main(list(argv))
        expect(want == 0, f"in-process exit code {want}")
        expect(out == buf.getvalue(), "child stdout differs from the in-process run")

    def teardown(self):
        shutil.rmtree(os.path.join(self.root, self.dir), ignore_errors=True)


WORKLOADS = {
    "quiver-analyze": QuiverAnalyze,
    "quiver-queries": QuiverQueries,
    "esequence-roundtrip": ESequenceRoundTrip,
    "metric-towers": MetricTowers,
    "cli-cold": CliCold,
}
