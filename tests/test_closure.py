import dataclasses
import functools
import itertools
import operator
import random

import pytest

from conftest import random_generated_space, random_realized_chain
from typedtopo import chains, closure, oracle
from typedtopo.chains import TypeChain, parse_chain
from typedtopo.errors import PreconditionError, UnknownPointError
from typedtopo.lattice import Context, Poset, parse_type_expr
from typedtopo.space import GeneratorSpec, generate_topology


def test_closure_of_singleton_collects_left_neighbors(street5, c_right5):
    rep = closure.chain_closure(street5, {"r3"}, c_right5)
    assert rep.ids() == ("r1", "r2", "r3")
    assert rep.witnesses["r1"] == ("vacuous",)
    assert rep.witnesses["r2"] == ("core", ("r2", "r3", "r4", "r5"))


def test_closure_of_empty_set_is_unsupported_region(street5, c_right5):
    rep = closure.chain_closure(street5, set(), c_right5)
    assert rep.members == closure.min_chain_dense(street5, c_right5).unsupported == {"r1"}


def test_closure_of_root_is_everything(genealogy5, c_anc5):
    rep = closure.chain_closure(genealogy5, {"B"}, c_anc5)
    assert rep.members == frozenset(genealogy5.points)


def test_unsupported_points(street5, c_right5, genealogy5, c_anc5):
    assert closure.min_chain_dense(street5, c_right5).unsupported == {"r1"}
    assert closure.min_chain_dense(genealogy5, c_anc5).unsupported == {"W"}


def test_chain_admitting_every_open_supports_every_point():
    poset = Poset({"g"})
    pts = ("x", "y")
    ctx = Context(poset, pts)
    sp = generate_topology(ctx, [
        GeneratorSpec("a", frozenset({"x"}), parse_type_expr("g & @x", ctx)),
        GeneratorSpec("b", frozenset(pts), parse_type_expr("g", ctx)),
    ])
    ch = parse_chain("g & @x ; g", sp.ctx)
    assert chains.chain_pool(sp, ch) == frozenset(m for m in sp.opens if m)
    assert closure.min_chain_dense(sp, ch).unsupported == frozenset()


def test_closure_is_extensive_and_monotone(street5, c_right5):
    rng = random.Random(3)
    pts = street5.points
    unsupported = closure.min_chain_dense(street5, c_right5).unsupported
    for _ in range(25):
        a = frozenset(p for p in pts if rng.random() < 0.4)
        b = a | frozenset(p for p in pts if rng.random() < 0.3)
        ca = closure.chain_closure(street5, a, c_right5).members
        cb = closure.chain_closure(street5, b, c_right5).members
        assert a <= ca
        assert ca <= cb
        assert unsupported <= ca


def test_neighborhood_classes_street5(street5, c_right5):
    assert closure.min_chain_dense(street5, c_right5).classes == (
        ("r2",),
        ("r3",),
        ("r4",),
        ("r5",),
    )


def test_neighborhood_classes_merge_twins():
    poset = Poset({"g"})
    pts = ("x", "y", "z")
    ctx = Context(poset, pts)
    sp = generate_topology(ctx, [
        GeneratorSpec("a", frozenset({"x", "y"}), parse_type_expr("g & @x & @y", ctx)),
        GeneratorSpec("b", frozenset(pts), parse_type_expr("g", ctx)),
    ])
    ch = parse_chain("g & @x & @y ; g", sp.ctx)
    assert ("x", "y") in closure.min_chain_dense(sp, ch).classes


def test_is_chain_dense_examples(street5, c_right5):
    all_pts = street5.points
    assert closure.is_chain_dense(street5, {"r5", "r1"}, all_pts, c_right5)
    assert closure.is_chain_dense(street5, set(all_pts), all_pts, c_right5)
    assert not closure.is_chain_dense(street5, {"r2"}, all_pts, c_right5)
    assert closure.is_chain_dense(street5, {"r3"}, {"r2", "r3"}, c_right5)
    with pytest.raises(PreconditionError):
        closure.is_chain_dense(street5, {"r1"}, {"r2"}, c_right5)


class _Slotted(str):
    """A point name with a fixed hash, so a set iterates it in a known order."""

    def __hash__(self):
        return {"zz": 0, "yy": 1, "xx": 2, "qq": 3}[str(self)]


def test_is_chain_dense_names_the_first_sorted_unknown_point(street5, c_right5):
    """Whatever order the region's set iterates in, the error names ``qq``."""
    region = ("zz", "qq", "yy", "xx")
    for names in (set(region), {_Slotted(p) for p in region}):
        with pytest.raises(UnknownPointError, match="'qq'"):
            closure.is_chain_dense(street5, set(), names, c_right5)


def test_min_dense_street5(street5, c_right5):
    rep = closure.min_chain_dense(street5, c_right5)
    assert rep.density == 2
    assert rep.witness_ids() == ("r1", "r5")
    assert rep.unsupported == {"r1"}
    assert rep.maximal_classes == (("r5",),)


def test_min_dense_genealogy(genealogy5, c_anc5):
    rep = closure.min_chain_dense(genealogy5, c_anc5)
    assert rep.unsupported == {"W"}
    assert rep.density == len(rep.unsupported) + len(rep.maximal_classes) == 2
    assert rep.witness_ids() == ("B", "W")


def test_min_dense_discrete_chain_needs_every_point(street5):
    """A chain sandwiching exactly the singleton types forces density |X|."""
    ctx = street5.ctx
    lo = parse_type_expr("left & right & @r1 & @r2 & @r3 & @r4 & @r5", ctx)
    hi = parse_type_expr("left | right", ctx)
    ch = TypeChain((lo, hi))
    rep = closure.min_chain_dense(street5, ch)
    assert rep.density == len(street5.points)
    assert rep.witness_ids() == street5.points
    size, _ = oracle.exhaustive_min_dense(street5, ch)
    assert size == rep.density


def test_min_dense_witnesses_interchange_within_classes(street5, c_right5):
    rep = closure.min_chain_dense(street5, c_right5)
    _, witnesses = oracle.exhaustive_min_dense(street5, c_right5)
    classes = {frozenset(c) for c in rep.maximal_classes}
    for w in witnesses:
        wset = frozenset(w)
        assert rep.unsupported <= wset
        rest = wset - rep.unsupported
        hit = set()
        for p in rest:
            cls = next(c for c in classes if p in c)
            assert cls not in hit
            hit.add(cls)
        assert hit == classes


def reach_readings(sp, chain, x: str, y: str) -> tuple[bool, bool, bool]:
    """Three readings of 'x is reachable from y', which must agree.

    (1) the base family of ``x`` is contained in that of ``y``;
    (2) ``x`` lies in the closure of every set containing ``y``, decided
        from ``x``'s base family over all of them;
    (3) ``x`` lies in the `closure.chain_closure` of ``{y}``.
    """
    fam_x, fam_y = (chains.chain_base(sp, p, chain) for p in (x, y))
    ybit = sp.point_bit(y)
    every_superset = all(
        all(m & (a | ybit) for m in fam_x) for a in range(1 << len(sp.points))
    )
    return (
        fam_x <= fam_y,
        every_superset,
        x in closure.chain_closure(sp, {y}, chain).members,
    )


# a two-level chain of the no-least-base fixture on which the density formula gives 3
# and the exhaustive search 2
OFF_HYPOTHESIS = "g0 & @x0 | g0 & ~@x1 & ~@x2 ; g0 | g1 & @x1 | g1 & @x2"


def test_min_dense_reads_its_point_families_once(monkeypatch, tree9, no_least_base3):
    """One call reads the base pool once, and searches only off the hypothesis.

    On TREE9 every base family has a least member, so the witness, dense by
    construction, is the answer and no search runs. On a no-least-base
    chain the search runs once, reading the pool again, and its smaller
    size and first witness are the answer.
    """
    calls = []
    base_pool, search = chains.chain_base_pool, oracle.exhaustive_min_dense
    monkeypatch.setattr(chains, "chain_base_pool",
                        lambda sp, ch: calls.append("pool") or base_pool(sp, ch))
    monkeypatch.setattr(oracle, "exhaustive_min_dense",
                        lambda sp, ch: calls.append("search") or search(sp, ch))
    chain = max(chains.chain_cover(tree9).chains, key=lambda c: c.k)
    report = closure.min_chain_dense(dataclasses.replace(tree9), chain)
    assert calls == ["pool"]
    assert report.density == search(tree9, chain)[0] > 1
    calls.clear()
    chain = parse_chain(OFF_HYPOTHESIS, no_least_base3.ctx)
    report = closure.min_chain_dense(dataclasses.replace(no_least_base3), chain)
    assert calls == ["pool", "search", "pool"]
    size, witnesses = search(no_least_base3, chain)
    assert (report.density, report.witness_ids()) == (size, witnesses[0]) == (2, ("x0", "x1"))
    assert len(report.maximal_classes) == 3


def test_chain_closure_matches_the_definition(
    genealogy5, street5, street2x3, no_least_base3, tree9
):
    """The check `chain_closure` no longer makes in line.

    On every cover chain of the fixtures, TREE9 and the strict random
    7-point spaces of seeds 0 to 39, and on `OFF_HYPOTHESIS`, for every
    singleton and pair start set, a point is a member iff every base member
    through it meets the set. A supported member's witness is its family's
    core when that meets the set, and ``("members",)`` otherwise, which
    happens only where the family has no least member: on no cover chain,
    but on `OFF_HYPOTHESIS` with the start set ``{x0, x1}``.
    """
    spaces = [genealogy5, street5, street2x3, no_least_base3, tree9]
    spaces += filter(None, (random_generated_space(random.Random(s), 7) for s in range(40)))
    cases = [(sp, chain) for sp in spaces for chain in chains.chain_cover(sp).chains]
    cases.append((no_least_base3, parse_chain(OFF_HYPOTHESIS, no_least_base3.ctx)))
    closures = bare = 0
    for sp, chain in cases:
        pool = chains.chain_base_pool(sp, chain)
        fams = {p: [m for m in pool if m & sp.point_bit(p)] for p in sp.points}
        cores = {p: functools.reduce(operator.and_, fam, sp.full_mask)
                 for p, fam in fams.items()}
        for start in itertools.chain(itertools.combinations(sp.points, 1),
                                     itertools.combinations(sp.points, 2)):
            mask = sp.mask_of(start)
            rep = closure.chain_closure(sp, start, chain)
            assert rep.members == {p for p in sp.points if all(m & mask for m in fams[p])}
            for p in rep.members:
                if not fams[p]:
                    assert rep.witnesses[p] == ("vacuous",)
                elif cores[p] & mask:
                    assert rep.witnesses[p] == ("core", sp.ids_of(cores[p]))
                else:
                    assert rep.witnesses[p] == ("members",) and cores[p] not in fams[p]
                    bare += 1
            closures += 1
    assert len(spaces) >= 20 and closures >= 1000 and bare == 1


def test_reach_equivalence(street5, c_right5):
    assert reach_readings(street5, c_right5, "r2", "r3") == (True, True, True)
    assert reach_readings(street5, c_right5, "r3", "r2") == (False, False, False)


def test_reach_readings_agree_on_fixtures_and_random_spaces(
    street5, c_right5, genealogy5, c_anc5, street2x3, c_right6
):
    cases = [(street5, c_right5), (genealogy5, c_anc5), (street2x3, c_right6)]
    rng = random.Random(11)
    while len(cases) < 15:
        sp = random_generated_space(rng, max_points=7)
        chain = sp and random_realized_chain(rng, sp)
        if chain:
            cases.append((sp, chain))
    for sp, chain in cases:
        for x, y in itertools.permutations(sp.points, 2):
            assert len(set(reach_readings(sp, chain, x, y))) == 1, (x, y)


def test_idempotence_reported_not_asserted(street5, c_right5, genealogy5, c_anc5):
    gaps = {}
    for name, sp, start, ch in (
        ("street5", street5, {"r3"}, c_right5),
        ("genealogy5", genealogy5, {"C"}, c_anc5),
    ):
        once = closure.chain_closure(sp, start, ch).members
        twice = closure.chain_closure(sp, once, ch).members
        assert once <= twice
        gaps[name] = twice - once
    for name, gap in gaps.items():
        # informational: record the gap in the test log, assert nothing about it
        print(f"idempotence gap on {name}: {sorted(gap)}")
