import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from typedtopo import basis, lattice
from typedtopo.errors import PreconditionError
from typedtopo.lattice import parse_type_expr
from typedtopo.space import realized_types


def test_opens_above_rejects_bottom_anchor(street5):
    with pytest.raises(PreconditionError):
        basis.opens_above(street5, street5.ctx.bottom())


def test_opens_above_top_anchor_is_empty(street5):
    assert len(basis.opens_above(street5, street5.ctx.top())) == 0


def test_opens_above_street5_minimum_right_type(street5):
    """Everything containing the rightmost resident sits above the ray meet.

    The minimal right type is witnessed by the one-point ray {r5}, so the
    anchored family is exactly the opens through r5; re-derived here from
    the semantic order as an independent justification for the frozen value.
    """
    p = parse_type_expr("right & @r1 & @r2 & @r3 & @r4 & @r5", street5.ctx)
    fam = basis.opens_above(street5, p)
    want = {m for m in street5.opens if m & street5.point_bit("r5")}
    assert fam == want
    for m in street5.opens:
        if m:
            assert (m in fam) == lattice.leq_by_valuations(
                p, street5.sigma[m]
            )


def test_opens_above_genealogy_at_point(genealogy5):
    g = genealogy5
    p = parse_type_expr("anc & @W", g.ctx)
    fam = basis.opens_above(g, p, at="C")
    assert sorted(g.ids_of(m) for m in fam) == [("B", "C", "H", "S"), ("B", "C", "H", "S", "W")]


def _example_anchors(g):
    ray = g.mask_of(["B", "S", "H", "C"])
    p_own = g.sigma[ray]
    p_mixed = functools.reduce(
        lattice.meet,
        [g.sigma[ray], g.sigma[g.mask_of(["B", "S", "H"])], g.sigma[g.mask_of(["C"])]],
    )
    return ray, p_own, p_mixed


def test_join_irreducible_at_own_type(genealogy5):
    ray, p_own, _ = _example_anchors(genealogy5)
    assert ray in basis.irreducibles_above(genealogy5, p_own)


def test_join_irreducible_fails_with_weaker_anchor(genealogy5):
    g = genealogy5
    ray, _, p_mixed = _example_anchors(g)
    fam = basis.opens_above(g, p_mixed)
    assert ray in fam and ray not in basis.irreducibles_above(g, p_mixed)
    assert g.mask_of(["B", "S", "H"]) in fam and g.mask_of(["C"]) in fam


def test_singletons_always_join_irreducible(genealogy5):
    g = genealogy5
    for pt in g.points:
        m = g.mask_of([pt])
        assert m in basis.irreducibles_above(g, g.sigma[m])


def test_irreducibles_above_contains_every_own_typed_open(genealogy5):
    g = genealogy5
    for m in g.nonempty_opens():
        fam = basis.irreducibles_above(g, g.sigma[m])
        assert m in fam


def _irreducible_parts(sp, open_mask, p) -> list:
    """The members of `basis.irreducibles_above` ``p`` inside the open, ascending."""
    return sorted(m for m in basis.irreducibles_above(sp, p) if (m & open_mask) == m)


def test_irreducible_parts_mixed_anchor(genealogy5):
    g = genealogy5
    ray, _, p_mixed = _example_anchors(g)
    parts = _irreducible_parts(g, ray, p_mixed)
    assert [g.ids_of(m) for m in parts] == [("B",), ("S",), ("H",), ("C",)]


def test_irreducible_parts_trivial_member(genealogy5):
    g = genealogy5
    ray, p_own, _ = _example_anchors(g)
    assert ray in _irreducible_parts(g, ray, p_own)


def test_decomposition_covers_every_anchored_open(street5, genealogy5):
    for sp in (street5, genealogy5):
        rt = realized_types(sp)
        for p in rt.terms:
            fam = basis.opens_above(sp, p)
            for u in fam:
                parts = _irreducible_parts(sp, u, p)
                covered = 0
                for m in parts:
                    covered |= m
                assert covered == u


def test_monotone_anchor_transfer(street5):
    """Irreducibility survives raising the anchor below the member's type."""
    sp = street5
    rng = random.Random(5)
    rt = realized_types(sp)
    n = len(rt)
    checked = 0
    while checked < 60:
        i, j = rng.randrange(n), rng.randrange(n)
        if not rt.up[i] >> j & 1:
            continue
        p, q = rt.terms[i], rt.terms[j]
        assert basis.irreducibles_above(sp, p) & basis.opens_above(sp, q) <= (
            basis.irreducibles_above(sp, q))
        checked += 1


# ---------------------------------------------------------------------------
# the plain pairwise search: slow twin of the union pre-test
# ---------------------------------------------------------------------------


def pairwise_irreducible(pool, mask: int) -> bool:
    """No two other pool members union to ``mask``, by trying every pair."""
    inside = [m for m in pool if m != mask and (m & mask) == m]
    return not any((w | v) == mask for w, v in itertools.combinations(inside, 2))


def _union_closure(masks) -> frozenset:
    closed: set = set()
    for m in masks:
        closed |= {m} | {m | c for c in closed}
    return frozenset(closed)


def _decided(pool) -> frozenset:
    """The members of ``pool`` that `basis._irreducible` keeps, each decided on its own.

    The members are asked in descending mask order, against the ascending
    order the routine reads, so no decision leans on an earlier one.
    """
    order = sorted(pool)
    return frozenset(m for m in sorted(pool, reverse=True) if basis._irreducible(order, m))


@st.composite
def _pools(draw):
    """A pool over up to 6 bits, union-closed or arbitrary, and extra masks."""
    top = (1 << draw(st.integers(1, 6))) - 1
    pool = draw(st.frozensets(st.integers(0, top), max_size=8))
    if draw(st.booleans()):
        pool = _union_closure(pool)
    return pool, draw(st.lists(st.integers(0, top), max_size=6))


@given(_pools())
@settings(max_examples=300, deadline=None)
def test_property_irreducibility_matches_the_pairwise_search(drawn):
    """The one pass by size keeps exactly the pairwise irreducible members.

    Each extra mask joins the pool once, to be decided as a member. A
    nonempty mask is reducible in a union-closed pool exactly when the
    members strictly inside it cover it: adding them one at a time, the
    last partial union short of the mask and the next member are a pair.
    """
    pool, extra = drawn
    for grown in [pool] + [pool | {mask} for mask in extra]:
        got = _decided(grown)
        assert got == {m for m in grown if pairwise_irreducible(grown, m)}
        if _union_closure(grown) == grown:
            for mask in grown - {0}:
                union = 0
                for m in grown:
                    if m != mask and (m & mask) == m:
                        union |= m
                assert (mask in got) == (union != mask)


def test_irreducible_members_off_union_closed_pools():
    """Pools that are not union-closed, where the pair search decides.

    Each pool also holds the pairwise unions of a few of its members, so
    that members covered by the smaller ones come both with and without a
    covering pair.
    """
    rng = random.Random(21)
    searched = {True: 0, False: 0}  # covered members by their pairwise verdict
    for _ in range(150):
        top = (1 << rng.randint(4, 10)) - 1
        pool = {rng.randint(1, top) for _ in range(rng.randint(2, 24))}
        pool |= {a | b for a, b in itertools.combinations(sorted(pool)[:4], 2)}
        pool = frozenset(pool)
        if _union_closure(pool) == pool:
            continue
        got = _decided(pool)
        assert got == {m for m in pool if pairwise_irreducible(pool, m)}
        for mask in pool:
            union = 0
            for m in pool:
                if m != mask and (m & mask) == m:
                    union |= m
            if union == mask:
                searched[mask in got] += 1
    assert searched[True] >= 10 and searched[False] >= 100


def test_irreducibles_among_decides_each_member_once(monkeypatch, genealogy5, street5):
    """Asking about a few members at a time gives the whole row's answer met with them.

    Each row of a fresh copy is asked in random open rows ``among``, bits
    outside the row included, and then whole; every member is decided at
    most once, and a bit outside the row is never kept.
    """
    rng = random.Random(5)
    decided = []
    decide = basis._irreducible
    monkeypatch.setattr(basis, "_irreducible",
                        lambda order, mask: decided.append((id(order), mask)) or decide(order, mask))
    for fixture in (genealogy5, street5):
        whole, parts = dataclasses.replace(fixture), dataclasses.replace(fixture)
        rt = realized_types(whole)
        every = (1 << len(rt.open_masks)) - 1
        for types in rt.up:
            want = basis.irreducibles(whole, types)
            row = rt.opens_row(types)
            for _ in range(4):
                among = rng.randint(0, every)
                assert basis.irreducibles(parts, types, among) == want & among
            assert basis.irreducibles(parts, types) == want and want & ~row == 0
        assert len(decided) == len(set(decided)) > 0  # both copies hold their rows' orders
        decided.clear()
