"""Computations the benchmark checks outputs against, made apart from the timed code.

Opens, chain pools, chain bases, closures, dense sets and separators are
recomputed here from their definitions over bit masks, and the lattice order
is decided by `Semantics`, which evaluates terms under every admissible
valuation at once as integer truth tables. The typedtopo code used is the
term reader (`lattice.term_from_json`, `lattice.parse_type_expr`) and
`lattice.leq_by_valuations`, the package's own semantic reference, which
replays a seeded sample of the order answers given here.
"""
from __future__ import annotations

import itertools
import random
import statistics
from collections import Counter

from typedtopo import lattice


def mask_of(bit: dict, names) -> int:
    m = 0
    for p in names:
        m |= bit[p]
    return m


def names_of(points, mask: int) -> frozenset:
    return frozenset(p for i, p in enumerate(points) if mask >> i & 1)


def generated_opens(points, generator_sets) -> set:
    """Unions of the nonempty intersections of the generator sets, plus the empty and whole set."""
    bit = {p: 1 << i for i, p in enumerate(points)}
    gens = {mask_of(bit, s) for s in generator_sets}
    meets, frontier = set(gens), set(gens)
    while frontier:
        frontier = {a & g for a in frontier for g in gens} - meets - {0}
        meets |= frontier
    opens = {0, (1 << len(points)) - 1} | meets
    frontier = set(meets)
    while frontier:
        frontier = {a | b for a in frontier for b in meets} - opens
        opens |= frontier
    return {names_of(points, m) for m in opens}


class SpaceDoc:
    """A space JSON document read with the term parser only (no validation)."""

    def __init__(self, doc: dict):
        self.points = tuple(doc["points"])
        poset = lattice.Poset(doc["poset"]["elements"], [tuple(p) for p in doc["poset"]["leq"]])
        self.ctx = lattice.Context(poset, self.points)
        self.bit = {p: 1 << i for i, p in enumerate(self.points)}
        self.sigma = {}
        for entry in doc["opens"]:
            self.sigma[self.mask(entry["set"])] = lattice.term_from_json(self.ctx, entry["type"])
        self.generators = [
            (self.mask(g["set"]), lattice.term_from_json(self.ctx, g["type"]))
            for g in doc["generators"]
        ]

    def mask(self, names) -> int:
        return mask_of(self.bit, names)

    def names(self, mask: int) -> frozenset:
        return names_of(self.points, mask)

    def covering_pairs(self) -> list:
        """Pairs U < V of opens with no open strictly between them."""
        opens = sorted(self.sigma)
        out = []
        for u in opens:
            above = [v for v in opens if v != u and u & v == u]
            for v in above:
                if not any(w != v and w & v == w and u & w == u for w in above):
                    out.append((u, v))
        return out


class Semantics:
    """Truth tables of terms over every admissible valuation of a context.

    A valuation picks an up-set of the generator poset and a subset of the
    points; ``@x`` holds when x is picked and ``~@x`` when it is not. Bit v of
    a table is the term's value under valuation v, so ``a <= b`` exactly when
    no bit of a's table lies outside b's.
    """

    MAX_POINTS = 16

    def __init__(self, ctx):
        gens, points = sorted(ctx.poset.elements), ctx.points
        if len(points) > self.MAX_POINTS:
            raise ValueError(f"{len(points)} points: truth tables would not fit")
        upsets = []
        for bits in itertools.product((False, True), repeat=len(gens)):
            chosen = {g for g, b in zip(gens, bits) if b}
            if all(h in chosen for g in chosen for h in gens if ctx.poset.leq(g, h)):
                upsets.append(chosen)
        width = 1 << len(points)
        block = (1 << width) - 1
        self.all = sum(block << (u * width) for u in range(len(upsets)))
        self.literal = {}
        for i, p in enumerate(points):
            pattern, span = ((1 << (1 << i)) - 1) << (1 << i), 1 << (i + 1)
            while span < width:  # bit a of pattern is bit i of a
                pattern |= pattern << span
                span <<= 1
            table = sum(pattern << (u * width) for u in range(len(upsets)))
            self.literal["pos", p] = table
            self.literal["neg", p] = self.all & ~table
        for g in gens:
            self.literal["gen", g] = sum(
                block << (u * width) for u, chosen in enumerate(upsets) if g in chosen
            )
        self._tables: dict = {}

    def table(self, term) -> int:
        got = self._tables.get(term.clauses)
        if got is None:
            got = 0
            for c in term.clauses:
                t = self.all
                for kind, names in (("gen", c.gens), ("pos", c.pos), ("neg", c.neg)):
                    for name in names:
                        t &= self.literal[kind, name]
                got |= t
            self._tables[term.clauses] = got
        return got

    def leq(self, a, b) -> bool:
        return self.table(a) & ~self.table(b) == 0


def valuation_replay_problems(pairs, rng: random.Random, sample: int) -> list:
    """Replay a seeded sample of ``(a, b, a <= b)`` answers through `leq_by_valuations`."""
    picked = rng.sample(pairs, min(sample, len(pairs)))
    return [
        f"order of {lattice.format_term(a)!r} <= {lattice.format_term(b)!r} "
        "differs between the truth tables and leq_by_valuations"
        for a, b, got in picked
        if lattice.leq_by_valuations(a, b) != got
    ]


def type_mapping_problems(doc: dict, sd: SpaceDoc, rng: random.Random, replay: int) -> list:
    """Bottom exactly on the empty set, Top nowhere, monotone on every covering pair.

    Generator sets must be open with a type at or above the declared one.
    ``replay`` of the order answers are replayed through `leq_by_valuations`.
    """
    problems = []
    for entry in doc["opens"]:
        clauses = entry["type"].get("clauses")
        if entry["type"].get("top") is True or any(c == [] for c in clauses or ()):
            problems.append(f"open {entry['set']} typed TOP")
        if (clauses == []) != (not entry["set"]):
            problems.append(f"open {entry['set']}: BOT must type exactly the empty set")
    sem = Semantics(sd.ctx)
    answers = []
    for u, v in sd.covering_pairs():
        ok = sem.leq(sd.sigma[u], sd.sigma[v])
        answers.append((sd.sigma[u], sd.sigma[v], ok))
        if not ok:
            problems.append(f"type decreases from {sorted(sd.names(u))} to {sorted(sd.names(v))}")
    for mask, declared in sd.generators:
        if mask not in sd.sigma:
            problems.append(f"generator set {sorted(sd.names(mask))} is not open")
            continue
        ok = sem.leq(declared, sd.sigma[mask])
        answers.append((declared, sd.sigma[mask], ok))
        if not ok:
            problems.append(f"generator set {sorted(sd.names(mask))} typed below its declaration")
    return problems + valuation_replay_problems(answers, rng, replay)


def round_trip_problems(space, sd: SpaceDoc) -> list:
    """The JSON document names the same opens and terms as the built space."""
    if tuple(space.points) != sd.points:
        return ["points reordered by the JSON document"]
    if set(space.opens) != set(sd.sigma):
        return ["JSON opens differ from the built opens"]
    bad = [m for m in space.opens if space.sigma[m].clauses != sd.sigma[m].clauses]
    if bad:
        return [f"{len(bad)} terms change in the JSON round trip"]
    built_gens = Counter((sd.mask(g.members), g.type_term.clauses) for g in space.generators)
    if built_gens != Counter((m, t.clauses) for m, t in sd.generators):
        return ["generators change in the JSON round trip"]
    return []


class ChainModel:
    """Chain pool, base families, closure, density and separation from the definitions.

    Visible opens are those whose type uses only the chain's generators; the
    pool holds visible opens typed between two consecutive levels; the base
    keeps pool members that no two other visible opens above some lower
    level (at or below the member's type) union to.
    """

    def __init__(self, points, sigma: dict, levels, semantics: Semantics):
        self.points = tuple(points)
        self.semantics = semantics
        self._leq_seen: dict = {}
        support = frozenset().union(*(t.generators() for t in levels))
        visible = [m for m in sorted(sigma) if m and sigma[m].generators() <= support]
        pairs = list(zip(levels, levels[1:]))
        self.pool = [
            m for m in visible
            if any(self._leq(lo, sigma[m]) and self._leq(sigma[m], hi) for lo, hi in pairs)
        ]
        base = set()
        for lo in levels[:-1]:
            anchored = [m for m in visible if self._leq(lo, sigma[m])]
            for m in self.pool:
                if m in anchored and self._irreducible(anchored, m):
                    base.add(m)
        self.base = sorted(base)
        self.families = [frozenset(m for m in self.base if m >> i & 1)
                         for i in range(len(self.points))]
        self.unsupported = sum(1 << i for i, f in enumerate(self.families) if not f)

    def _leq(self, a, b) -> bool:
        key = (a, b)
        got = self._leq_seen.get(key)
        if got is None:
            got = self._leq_seen[key] = self.semantics.leq(a, b)
        return got

    @staticmethod
    def _irreducible(family, m: int) -> bool:
        inside = [w for w in family if w != m and w & m == w]
        return not any(w | v == m for w, v in itertools.combinations(inside, 2))

    def order_answers(self) -> list:
        """Every order test made, as ``(a, b, a <= b)`` in a deterministic order."""
        items = sorted(self._leq_seen.items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1])))
        return [(a, b, got) for (a, b), got in items]

    def mask(self, names) -> int:
        return mask_of({p: 1 << i for i, p in enumerate(self.points)}, names)

    def names(self, mask: int) -> frozenset:
        return names_of(self.points, mask)

    def family(self, x: str) -> frozenset:
        return self.families[self.points.index(x)]

    def neighborhoods(self, x: str) -> frozenset:
        bit = 1 << self.points.index(x)
        return frozenset(m for m in self.pool if m & bit)

    def closure(self, start: int) -> int:
        return sum(1 << i for i, fam in enumerate(self.families)
                   if all(m & start for m in fam))

    def is_dense(self, mask: int) -> bool:
        return self.unsupported & ~mask == 0 and all(
            m & mask for fam in self.families for m in fam
        )

    def min_dense_size(self) -> int:
        n = len(self.points)
        for size in range(n + 1):
            for combo in itertools.combinations(range(n), size):
                if self.is_dense(sum(1 << i for i in combo)):
                    return size
        raise AssertionError("the whole point set is always dense")

    def separated(self, mask: int) -> bool:
        return any(
            not u & v and mask & ~(u | v) == 0 and mask & u and mask & v
            for u, v in itertools.combinations(self.pool, 2)
        )


def score_table_problems(table: dict) -> list:
    """Mean, sample deviation and z-scores recomputed from the listed values."""
    values = [s["value"] for s in table["subjects"]]
    if len(values) < 2:
        return ["score table with fewer than two subjects"]
    mean, std = statistics.fmean(values), statistics.stdev(values)
    problems = []
    if abs(mean - table["mean"]) > 1e-9 or abs(std - table["sample_std"]) > 1e-9:
        problems.append("score table mean or deviation is off")
    if any(abs((s["value"] - mean) / std - s["z"]) > 1e-9 for s in table["subjects"]):
        problems.append("z-score is off")
    return problems
