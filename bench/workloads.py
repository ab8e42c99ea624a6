"""Seeded inputs and operations of the build, cli and check workloads.

A workload's `setup` makes its inputs from the seed and returns one round of
operations; the benchmark repeats that round. Each `Op` separates untimed
preparation from the timed call, and carries the checks its output must
pass. Point and generator names are fixed: the cost of term normalization
depends on set iteration order, so names drawn per seed would make every
seed a different amount of work. The seed picks the order of the round,
the command arguments and the table's fee values.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from typedtopo import chains, cli, closure, ingest, lattice, oracle, space

import checks

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class Op:
    label: str
    heavy: bool  # runs on the workload's largest input (most opens)
    prepare: Callable[[], Callable[[], object]]  # untimed; returns the timed call
    digest: Callable[[object], object]  # compared across rounds
    verify: Callable[[object], list]  # independent checks; returns problems


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def street(n: int) -> ingest.CommunityDataset:
    return ingest.CommunityDataset((("main", tuple(f"r{i}" for i in range(1, n + 1))),))


def lineage(n: int) -> ingest.GenealogyDataset:
    people = [f"g{i}" for i in range(1, n + 1)]
    return ingest.GenealogyDataset(tuple(zip(people, people[1:])))


def binary_tree(n: int) -> ingest.GenealogyDataset:
    """Heap-shaped advisor tree: t1 advises t2 and t3, t2 advises t4 and t5, ..."""
    return ingest.GenealogyDataset(tuple((f"t{i // 2}", f"t{i}") for i in range(2, n + 1)))


# two residents on one street, so that a build takes about 1 s and not the
# 3-5 s of the 3+3 fixture (which the cli workload loads instead)
TWO_STREETS = ingest.CommunityDataset(
    (("ash", ("a1", "a2")), ("birch", ("b1", "b2", "b3"))),
    (("friend", (("a1", "b2"),)),),
)

# name, expression, declared implications, the same test in Python
TABLE_PREDICATES = (
    ("cheap", "fee<200", ("affordable",), lambda fee: fee < 200),
    ("affordable", "fee<1000", (), lambda fee: fee < 1000),
    ("midrange", "fee>=200 AND fee<500", ("affordable",), lambda fee: 200 <= fee < 500),
    ("premium", "fee>=1000", (), lambda fee: fee >= 1000),
)
# (low, high, rows): every row matches a predicate, since a row that matches
# none makes the strictness repair fail (see CHANGES.md)
TABLE_BANDS = ((20, 199, 4), (200, 499, 3), (500, 999, 3), (1000, 2500, 2))
# 10 rows for the cli, whose inputs stay within the connectivity oracle's
# 10-point budget
SMALL_TABLE_BANDS = ((20, 199, 3), (200, 499, 3), (500, 999, 2), (1000, 2500, 2))


def fee_table(rng: random.Random, bands=TABLE_BANDS) -> ingest.PredicateTableDataset:
    fees = [rng.randint(lo, hi) for lo, hi, count in bands for _ in range(count)]
    rng.shuffle(fees)
    rows = tuple((str(i + 1), str(fee), f"item{i + 1}") for i, fee in enumerate(fees))
    preds = tuple(ingest.Predicate(name, expr, implies)
                  for name, expr, implies, _ in TABLE_PREDICATES)
    return ingest.PredicateTableDataset(("id", "fee", "product"), rows, preds)


def community_sets(data: ingest.CommunityDataset) -> list:
    sets = []
    for _, members in data.streets:
        sets.append(set(members))
        for i in range(len(members)):
            sets += [set(members[i:]), set(members[: i + 1])]
    for _, pairs in data.relations:
        balls: dict = {}
        for a, b in pairs:
            balls.setdefault(a, {a}).add(b)
            balls.setdefault(b, {b}).add(a)
        sets += balls.values()
    return sets


def genealogy_sets(data: ingest.GenealogyDataset) -> list:
    def reach(start, step):
        out, todo = set(), [start]
        while todo:
            for nxt in step.get(todo.pop(), ()):
                if nxt not in out:
                    out.add(nxt)
                    todo.append(nxt)
        return out

    down, up = {}, {}
    for a, b in data.edges:
        down.setdefault(a, []).append(b)
        up.setdefault(b, []).append(a)
    people = {p for edge in data.edges for p in edge}
    return [s for p in people for s in (reach(p, up), reach(p, down)) if s]


def table_sets(data: ingest.PredicateTableDataset) -> list:
    ids = data.row_ids()
    sets = [{rid for rid, row in zip(ids, data.rows) if test(float(row[1]))}
            for _, _, _, test in TABLE_PREDICATES]
    return [s for s in sets if s]


def _by_kind(data, community, genealogy, table):
    if isinstance(data, ingest.CommunityDataset):
        return community
    if isinstance(data, ingest.GenealogyDataset):
        return genealogy
    return table


# ---------------------------------------------------------------------------
# build: dataset -> space -> JSON
# ---------------------------------------------------------------------------

# order answers per input replayed through lattice.leq_by_valuations, which
# enumerates valuations one by one and takes up to 0.2 s a test here
REPLAYS = 4


def _build(data):
    # looked up at call time, so that a traced run reaches the wrapped builders
    if isinstance(data, ingest.CommunityDataset):
        return ingest.build_community(data)
    if isinstance(data, ingest.GenealogyDataset):
        return ingest.build_genealogy(data)
    return ingest.build_table(data, apply_strictify=True)


def _build_op(label, data, discrete, heavy, rng) -> Op:
    points = _by_kind(data, ingest.CommunityDataset.residents, ingest.GenealogyDataset.people,
                      ingest.PredicateTableDataset.row_ids)(data)
    sets = _by_kind(data, community_sets, genealogy_sets, table_sets)(data)

    def timed():
        built = _build(data)
        return built, space.space_to_json(built)

    def verify(out) -> list:
        built, doc = out
        got = [frozenset(e["set"]) for e in doc["opens"]]
        problems = []
        if len(set(got)) != len(got):
            problems.append("duplicate opens in the JSON document")
        if set(got) != checks.generated_opens(points, sets):
            problems.append("opens differ from the unions of generator intersections")
        if discrete and len(got) != 2 ** len(points):
            problems.append(f"{len(got)} opens on a discrete input of {len(points)} points")
        sd = checks.SpaceDoc(json.loads(json.dumps(doc)))
        problems += checks.type_mapping_problems(doc, sd, rng, REPLAYS)
        problems += checks.round_trip_problems(built, sd)
        return problems

    return Op(label, heavy, lambda: timed, lambda out: json.dumps(out[1], sort_keys=True), verify)


def setup_build(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    specs = [(f"street{n}", street(n), True, n == 7) for n in (5, 6, 7)]
    specs += [(f"lineage{n}", lineage(n), True, False) for n in (5, 6, 7)]
    specs += [(f"tree{n}", binary_tree(n), False, False) for n in (8, 9)]
    specs += [("two-streets", TWO_STREETS, False, False),
              ("fee-table", fee_table(rng), False, False)]
    ops = [_build_op(f"build {label}", data, discrete, heavy, random.Random(f"{seed}:{label}"))
           for label, data, discrete, heavy in specs]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: one in-process `tts` command per operation
# ---------------------------------------------------------------------------


@dataclass
class CliInput:
    key: str
    path: Path
    chain: str
    # generator for stats sizes and activity; None where no open is typed in
    # one generator alone, so that both commands rightly refuse (exit 3)
    gen: str | None
    affinity: bool  # pair affinity has spread here (not on discrete spaces)
    street: bool  # single street r1..rn with the full right chain: closed forms apply
    kinds: tuple | None = None  # the commands run on this input; None for all


def _all_points_chain(gen: str, points) -> str:
    return f"{gen} & " + " & ".join(f"@{p}" for p in points) + f" ; {gen}"


def _write_space(path: Path, built) -> None:
    path.write_text(json.dumps(space.space_to_json(built), indent=2, sort_keys=True) + "\n")


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


class CliModels:
    """Chain models of the cli inputs, built on first use (untimed)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.docs: dict = {}
        self.models: dict = {}

    def doc(self, inp: CliInput) -> checks.SpaceDoc:
        if inp.key not in self.docs:
            self.docs[inp.key] = checks.SpaceDoc(json.loads(inp.path.read_text()))
        return self.docs[inp.key]

    def model(self, inp: CliInput) -> tuple:
        """The chain model and the problems found replaying its order sample."""
        if inp.key not in self.models:
            sd = self.doc(inp)
            levels = [lattice.parse_type_expr(t, sd.ctx) for t in inp.chain.split(";")]
            model = checks.ChainModel(sd.points, sd.sigma, levels, checks.Semantics(sd.ctx))
            rng = random.Random(f"{self.seed}:{inp.key}")
            replay = checks.valuation_replay_problems(model.order_answers(), rng, REPLAYS)
            self.models[inp.key] = (model, replay)
        return self.models[inp.key]


def _street_problems(kind: str, res: dict, model: checks.ChainModel) -> list:
    """Closed forms on a single street r1..rn under `right & @r1 & ... & @rn ; right`."""
    n = len(model.points)

    def ray(j: int) -> list:
        return sorted(f"r{i}" for i in range(j, n + 1))

    def k(point: str) -> int:
        return int(point[1:])

    if kind == "nbhd":
        want = sorted(ray(j) for j in range(2, k(res["point"]) + 1))
        if sorted(res["neighborhoods"]) != want or sorted(res["base"]) != want:
            return [f"street nbhd of {res['point']} is not the rays r_j..r_n, 2 <= j <= k"]
    elif kind == "closure" and len(res["set"]) == 1:
        if sorted(res["closure"]) != sorted(f"r{i}" for i in range(1, k(res["set"][0]) + 1)):
            return [f"street closure of {res['set']} is not r1..r{k(res['set'][0])}"]
    elif kind == "dense":
        got = (res["density"], sorted(res["witness"]), res["unsupported"])
        if got != (2, ["r1", f"r{n}"], ["r1"]):
            return ["street density is not 2 with witness {r1, rn} and r1 unsupported"]
    elif kind == "stats-sizes":
        if sorted(s["value"] for s in res["table"]["subjects"]) != list(range(1, n)):
            return ["street right-family sizes are not 1..n-1"]
    elif kind == "stats-activity":
        if any(s["value"] != k(s["subject"]) - 1 for s in res["table"]["subjects"]):
            return ["street activity of r_k is not k-1"]
    elif kind == "connect-pair" and (res["x"], res["y"]) == ("r1", f"r{n}"):
        if res["certificate"] is not None or res["oracle"] is not False:
            return [f"street connect r1 r{n} is not false"]
    return []


def _cli_problems(kind: str, out, inp: CliInput, models: CliModels) -> list:
    code, text = out
    if code != 0:
        return [f"exit code {code}"]
    res = json.loads(text)["result"]
    model, problems = models.model(inp)
    problems = list(problems)

    def fams(rows) -> set:
        return {frozenset(r) for r in rows}

    def as_names(masks) -> set:
        return {model.names(m) for m in masks}

    if kind == "validate":
        if not (res["valid"] and res["strict"]) or res["failures"]:
            problems.append("a valid strict space was refused")
    elif kind == "basis":
        sd = models.doc(inp)
        p = lattice.parse_type_expr(res["anchor"], sd.ctx)
        want = {sd.names(m) for m in sd.sigma if m and model.semantics.leq(p, sd.sigma[m])}
        family, irr = fams(res["family"]), fams(res["irreducible"])
        if family != want:
            problems.append("basis family is not the opens typed at or above the anchor")
        own = {u for u in family
               if not any(a | b == u for a in family for b in family if a < u and b < u)}
        if irr != own:
            problems.append("irreducible members are not the family's join-irreducibles")
        if any(frozenset().union(*(b for b in irr if b <= u)) != u for u in family):
            problems.append("a family member is not the union of the irreducibles inside it")
    elif kind == "nbhd":
        x = res["point"]
        if fams(res["neighborhoods"]) != as_names(model.neighborhoods(x)):
            problems.append(f"neighborhoods of {x} differ from the chain pool through it")
        if fams(res["base"]) != as_names(model.family(x)):
            problems.append(f"base of {x} differs from the irreducible pool members through it")
    elif kind == "closure":
        got, start = set(res["closure"]), set(res["set"])
        if not start <= got:
            problems.append("closure misses part of its start set")
        if got != model.names(model.closure(model.mask(start))):
            problems.append("closure differs from the points whose base families meet the set")
    elif kind == "dense":
        witness = model.mask(res["witness"])
        if not model.is_dense(witness):
            problems.append("dense witness misses a base family or an unsupported point")
        if not res["density"] == len(res["witness"]) == model.min_dense_size():
            problems.append("density differs from the smallest dense subset")
        if set(res["unsupported"]) != model.names(model.unsupported):
            problems.append("unsupported points differ from those with empty base families")
    elif kind == "connect-set":
        mask = model.mask(res["set"])
        if res["connected"] == model.separated(mask):
            problems.append("connectedness verdict differs from the separator search")
        if res["separator"] is not None:
            left, right = (model.mask(s) for s in res["separator"])
            if left & right or mask & ~(left | right) or not (mask & left and mask & right):
                problems.append("separator is not two disjoint opens splitting the set")
    elif kind == "connect-pair":
        if not res["definitive"]:
            problems.append("oracle skipped on an input of at most 10 points")
        cert = res["certificate"]
        if cert is not None:
            members = model.mask(cert["set"])
            if not {res["x"], res["y"]} <= set(cert["set"]) or res["oracle"] is not True:
                problems.append("certificate misses an end point or contradicts the oracle")
            if model.separated(members):
                problems.append("certificate set is separated")
    elif kind.startswith("stats"):
        table = res["table"]
        problems += checks.score_table_problems(table)
        subjects = [s["subject"] for s in table["subjects"]]
        sizes = [(s["value"], len(s["subject"])) for s in table["subjects"]]
        if kind == "stats-sizes" and any(value != size for value, size in sizes):
            problems.append("family size differs from the member count")
        if kind == "stats-affinity":
            n, pairs = len(model.points), {frozenset(s) for s in subjects}
            if len(subjects) != n * (n - 1) // 2 or len(pairs) != len(subjects) or any(
                len(p) != 2 for p in pairs
            ):
                problems.append("affinity does not score every unordered pair once")
    if inp.street:
        problems += _street_problems(kind, res, model)
    return problems


def _cli_op(kind: str, argv: list, inp: CliInput, heavy: bool, models: CliModels) -> Op:
    argv = argv + ["--stable"]
    return Op(
        f"cli {kind} {inp.key}",
        heavy,
        lambda: lambda: _run_cli(argv),
        lambda out: out,
        lambda out: _cli_problems(kind, out, inp, models),
    )


def _cli_inputs(workdir: Path, rng: random.Random) -> list:
    tree = binary_tree(9)
    _write_space(workdir / "tree9.json", ingest.build_genealogy(tree))
    table = ingest.build_table(fee_table(rng, SMALL_TABLE_BANDS), apply_strictify=True)
    _write_space(workdir / "fee-table.json", table)
    # every table type mentions all four predicates, so a hand-written chain of
    # two would see no opens; take the longest chain of the realized types
    table_chain = max(chains.chain_cover(table).chains, key=lambda c: c.k).text()
    return [
        CliInput("STREET5", FIXTURES / "street5.json",
                 _all_points_chain("right", [f"r{i}" for i in range(1, 6)]),
                 "right", False, True),
        # about 1.3 s a command, nearly all of it loading and validating the
        # file; four commands keep a round near 15 s, so that a run holds two
        CliInput("STREET2X3", FIXTURES / "street2x3.json",
                 _all_points_chain("right", ["a1", "a2", "a3", "b1", "b2", "b3"]),
                 "right", False, False, ("validate", "nbhd", "dense", "connect-pair")),
        CliInput("GENEALOGY5", FIXTURES / "genealogy5.json",
                 _all_points_chain("anc", ["B", "S", "H", "C", "W"]),
                 "anc", False, False),
        CliInput("TREE9", workdir / "tree9.json",
                 _all_points_chain("anc", tree.people()),
                 "anc", True, False),
        CliInput("FEE-TABLE", workdir / "fee-table.json", table_chain,
                 None, True, False),
    ]


def cli_ops(inp: CliInput, rng: random.Random, models: CliModels, heavy: bool) -> list:
    """One operation per command on one input, with seeded arguments."""
    sd = checks.SpaceDoc(json.loads(inp.path.read_text()))
    pts = list(sd.points)
    path = str(inp.path)
    chain = ["--chain", inp.chain]
    # a realized type, so that the anchored family is never empty
    anchor = lattice.format_term(sd.sigma[rng.choice(sorted(m for m in sd.sigma if m))])
    start = rng.sample(pts, 1 if inp.street else rng.randint(1, 2))
    group = rng.sample(pts, rng.randint(2, 3))
    pair = [pts[0], pts[-1]] if inp.street else rng.sample(pts, 2)
    commands = [
        ("validate", ["validate", path, "--strict"]),
        ("basis", ["basis", path, "--p", anchor]),
        ("nbhd", ["nbhd", path, *chain, "--x", rng.choice(pts)]),
        ("closure", ["closure", path, *chain, "--set", ",".join(start)]),
        ("dense", ["dense", path, *chain]),
        ("connect-set", ["connect", path, *chain, "--set", ",".join(group)]),
        ("connect-pair", ["connect", path, *chain, "--x", pair[0], "--y", pair[1]]),
    ]
    if inp.gen:
        commands += [
            ("stats-sizes", ["stats", path, "--kind", "sizes", "--p", inp.gen]),
            ("stats-activity", ["stats", path, "--kind", "activity", "--p", inp.gen]),
        ]
    if inp.affinity:
        commands.append(("stats-affinity", ["stats", path, "--kind", "affinity"]))
    return [_cli_op(kind, argv, inp, heavy, models) for kind, argv in commands
            if inp.kinds is None or kind in inp.kinds]


def street_input(n: int, workdir: Path) -> CliInput:
    """A single street r1..rn written as space JSON, for the closed-form checks."""
    path = workdir / f"street{n}.json"
    _write_space(path, ingest.build_community(street(n)))
    points = [f"r{i}" for i in range(1, n + 1)]
    return CliInput(f"STREET{n}", path, _all_points_chain("right", points), "right", False, True)


def setup_cli(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    models = CliModels(seed)
    ops = [op for inp in _cli_inputs(workdir, rng)
           for op in cli_ops(inp, rng, models, heavy=inp.key == "TREE9")]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# check: the oracle and the chain layers on cold indexes
# ---------------------------------------------------------------------------


def _cold(sp, call):
    """Preparation that copies ``sp`` and returns ``call`` on the copy.

    The per-space indexes in `chains` are keyed by the space object, so each
    copy starts with cold indexes. ``call`` looks the timed function up when
    it runs, so that a traced run reaches the wrapper.
    """
    def prepare():
        copy = dataclasses.replace(sp)
        return lambda: call(copy)

    return prepare


def _check_space_op(key: str, held) -> Op:
    def verify(rep) -> list:
        bad = [r.name for r in rep.results if not r.passed]
        return [f"check_space on {key}: {bad or 'not ok'}"] if bad or not rep.ok else []

    return Op(
        f"check_space {key}",
        False,
        _cold(held, lambda sp: oracle.check_space(sp)),
        lambda rep: tuple((r.name, r.scope, r.passed, r.counterexamples) for r in rep.results),
        verify,
    )


def _min_dense_op(i: int, tree, chain, semantics, rng: random.Random) -> Op:
    def verify(rep) -> list:
        sigma = {m: t for m, t in tree.sigma.items() if m}
        model = checks.ChainModel(tree.points, sigma, chain.levels, semantics)
        problems = checks.valuation_replay_problems(model.order_answers(), rng, 1)
        witness = model.mask(rep.witness)
        if not model.is_dense(witness) or len(rep.witness) != rep.density:
            problems.append(f"chain {i}: witness is not a dense set of the reported size")
        if rep.density != model.min_dense_size():
            problems.append(f"chain {i}: density differs from the smallest dense subset")
        if rep.unsupported != model.names(model.unsupported):
            problems.append(f"chain {i}: unsupported points differ")
        return problems

    return Op(
        f"min_chain_dense tree9 chain{i}",
        True,
        _cold(tree, lambda sp: closure.min_chain_dense(sp, chain)),
        lambda rep: (rep.density, rep.witness_ids(), tuple(sorted(rep.unsupported)),
                     rep.classes, rep.maximal_classes),
        verify,
    )


def setup_check(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    held = {
        "GENEALOGY5": ingest.build_genealogy(ingest.GENEALOGY5),
        "STREET5": ingest.build_community(ingest.STREET5),
        "FEE-TABLE": ingest.build_table(fee_table(rng), apply_strictify=True),
    }
    tree = ingest.build_genealogy(binary_tree(9))
    cover = chains.chain_cover(tree)
    ops = [_check_space_op(key, sp) for key, sp in held.items()]
    semantics = checks.Semantics(tree.ctx)
    ops += [_min_dense_op(i, tree, ch, semantics, random.Random(f"{seed}:chain{i}"))
            for i, ch in enumerate(cover.chains)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"build": setup_build, "cli": setup_cli, "check": setup_check}
