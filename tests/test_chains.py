import dataclasses
import gc
import inspect
import random
import sys
import weakref
from collections import Counter

import pytest

from conftest import (
    C_RIGHT5, C_RIGHT6, chain_support, random_generated_space, random_realized_chain,
)
from test_basis import pairwise_irreducible
from typedtopo import basis, chains, closure, connect, ingest, lattice, oracle, space, stats
from typedtopo.chains import TypeChain, chain_cover, parse_chain
from typedtopo.errors import NotStrictlyTypedError, PreconditionError
from typedtopo.lattice import Context, Poset, parse_type_expr
from typedtopo.space import GeneratorSpec, TypedSpace, generate_topology, realized_types


def test_chain_validation():
    ctx = Context(Poset({"g"}), ("x",))
    g = parse_type_expr("g", ctx)
    gx = parse_type_expr("g & @x", ctx)
    with pytest.raises(PreconditionError):
        TypeChain((g,))
    with pytest.raises(PreconditionError):
        TypeChain((g, gx))  # descending
    with pytest.raises(PreconditionError):
        TypeChain((ctx.bottom(), g))
    with pytest.raises(PreconditionError):
        TypeChain((gx, ctx.top()))
    assert TypeChain((gx, g)).k == 2
    assert TypeChain((gx, gx)).k == 2  # padding duplicates are legal


def test_parse_chain(street5):
    ch = parse_chain("right & @r3 ; right", street5.ctx)
    assert ch.k == 2
    assert chain_support(ch) == frozenset({"right"})
    with pytest.raises(PreconditionError):
        parse_chain("right ;; right", street5.ctx)


def family_ids(sp, masks) -> list:
    """The point ids of each mask, in sorted order."""
    return sorted(sp.ids_of(m) for m in masks)


def test_chain_neighborhoods_street5(street5, c_right5):
    fam = chains.chain_neighborhoods(street5, "r3", c_right5)
    assert family_ids(street5, fam) == [("r2", "r3", "r4", "r5"), ("r3", "r4", "r5")]


def test_chain_neighborhoods_exclude_unsupported_point(street5, c_right5, genealogy5, c_anc5):
    assert len(chains.chain_neighborhoods(street5, "r1", c_right5)) == 0
    assert len(chains.chain_neighborhoods(genealogy5, "W", c_anc5)) == 0


def test_two_level_chain_is_the_full_sandwich(street5):
    ctx = street5.ctx
    lo = parse_type_expr("right & @r3 & @r4 & @r5", ctx)
    hi = parse_type_expr("right", ctx)
    fam = chains.chain_neighborhoods(street5, "r4", TypeChain((lo, hi)))
    for m in fam:
        t = street5.sigma[m]
        assert lattice.leq(lo, t) and lattice.leq(t, hi)


def test_chain_base_equals_neighborhoods_on_nested_rays(street5, c_right5):
    for x in street5.points:
        fam = chains.chain_neighborhoods(street5, x, c_right5)
        base = chains.chain_base(street5, x, c_right5)
        assert fam == base


def test_chain_base_families_nested(street5, c_right5):
    fams = [chains.chain_base(street5, x, c_right5) for x in street5.points]
    assert [len(f) for f in fams] == [0, 1, 2, 3, 4]


def test_base_property_on_fixture_chains(street5, c_right5, genealogy5, c_anc5):
    for sp, ch in ((street5, c_right5), (genealogy5, c_anc5)):
        for x in sp.points:
            fam = chains.chain_neighborhoods(sp, x, ch)
            base = chains.chain_base(sp, x, ch)
            bit = sp.point_bit(x)
            for u in fam:
                assert any((v & u) == v and (v & bit) for v in base)


def _tied_space() -> TypedSpace:
    """Two nested opens of one type: valid, but not strictly typed."""
    ctx = Context(Poset({"g"}), ("x", "y"))
    g = parse_type_expr("g", ctx)
    sigma = {0: ctx.bottom(), 1: g, 3: g}
    return TypedSpace(ctx, frozenset(sigma), sigma, ())


def test_requires_strict_space():
    sp = _tied_space()
    g = sp.sigma[1]
    with pytest.raises(NotStrictlyTypedError):
        chains.chain_neighborhoods(sp, "x", TypeChain((g, g)))


def test_realized_chain_pools_refuses_a_non_strict_space_at_the_call():
    """The refusal comes when it is called, before any chain is read."""
    read = []
    with pytest.raises(NotStrictlyTypedError):
        chains.realized_chain_pools(_tied_space(), map(read.append, [(0, 0)]))
    assert read == []


def test_dropped_space_is_freed_after_chain_query(street5, c_right5):
    copy = dataclasses.replace(street5)
    assert chains.chain_pool(copy, c_right5) == chains.chain_pool(street5, c_right5)
    ref = weakref.ref(copy)
    del copy
    gc.collect()
    assert ref() is None


def test_check_space_scans_each_chain_pool_once(monkeypatch, street5):
    """One theorem replay expands no pool and decides each lower row once.

    Measured on STREET5: the 992 realized chains, and the 8 pure-family
    chains read once for their base and once for their connectivity, make
    1,008 pool reads of 593 distinct pool rows, and the realized chains
    return 692 distinct (pool, base) pairs of open rows. With one open per
    type, `RealizedTypes.opens_row` hands each type row back as its open
    row, so no read expands one; `basis.irreducibles` keeps one memo entry
    for each of the 67 distinct lower rows and decides each member of a
    row at most once. A pool memo keyed by the pool row and the distinct
    lower rows made 781 computations, and keyed by `TypeChain` 1,000.
    """
    pools, returned, decided = [], set(), []
    pools_and_bases, realized_chain_pools = chains._pools_and_bases, chains.realized_chain_pools
    opens_row, decide = space.RealizedTypes.opens_row, basis._irreducible

    def recorded(sp, chain_list):
        return map(lambda got: returned.add(got) or got, realized_chain_pools(sp, chain_list))

    def read(rt, types):
        got = opens_row(rt, types)
        assert got == types
        return got

    monkeypatch.setattr(chains, "realized_chain_pools", recorded)
    monkeypatch.setattr(chains, "_pools_and_bases", lambda sp, keys: pools_and_bases(
        sp, (pools.append(key[0]) or key for key in keys)))
    monkeypatch.setattr(space.RealizedTypes, "opens_row", read)
    monkeypatch.setattr(basis, "_irreducible", lambda order, mask: decided.append(
        (tuple(order), mask)) or decide(order, mask))
    sp = dataclasses.replace(street5)
    assert oracle.check_space(sp).ok
    assert (len(pools), len(set(pools)), len(returned)) == (1008, 593, 692)
    assert len(decided) == len(set(decided)) and len(sp.index.irreducibles) == 67
    assert len({order for order, _ in decided}) <= 67


def test_both_chain_routes_read_one_routine(monkeypatch, street5):
    """A change to what `_pools_and_bases` yields reaches both routes.

    The `TypeChain` route and the walk over realized-type indexes read
    every pool and base through `_pools_and_bases`.
    """
    rt = realized_types(street5)
    clean = dataclasses.replace(street5)
    i, j, chain = next(
        (i, j, chain)
        for i in range(len(rt)) for j in range(len(rt)) if i != j and rt.up[i] >> j & 1
        for chain in [TypeChain((rt.terms[i], rt.terms[j]))]
        if len(chains.chain_base_pool(clean, chain)) > 1
    )
    pool, base = chains.chain_pool(clean, chain), chains.chain_base_pool(clean, chain)
    masks = rt.open_masks

    def row(members):
        return sum(1 << masks.index(m) for m in members)

    def drop(r):
        """The open row ``r`` without the bit of its smallest mask."""
        return r & ~(1 << min(space.bit_indexes(r), key=masks.__getitem__))

    pools_and_bases = chains._pools_and_bases
    with monkeypatch.context() as patch:
        patch.setattr(chains, "_pools_and_bases", lambda sp, keys: (
            (p, b if b is None else drop(b)) for p, b in pools_and_bases(sp, keys)))
        sp = dataclasses.replace(street5)
        assert chains.chain_base_pool(sp, chain) == frozenset(sorted(base)[1:])
        assert list(chains.realized_chain_pools(sp, [(i, j)])) == [(row(pool), drop(row(base)))]
    monkeypatch.setattr(chains, "_pools_and_bases", lambda sp, keys: (
        (drop(p), b) for p, b in pools_and_bases(sp, keys)))
    sp = dataclasses.replace(street5)
    assert chains.chain_pool(sp, chain) == frozenset(sorted(pool)[1:])
    assert [p for p, _ in chains.realized_chain_pools(sp, [(i, j)])] == [drop(row(pool))]


def test_pool_readers_decide_no_irreducibility(monkeypatch, street5, street2x3):
    """Pools, neighborhoods and connectedness read pool rows alone.

    A base read afterwards does decide, so the count reaches the routine.
    """
    calls, reads = [], []
    decide, opens_row = basis._irreducible, space.RealizedTypes.opens_row
    monkeypatch.setattr(basis, "_irreducible",
                        lambda order, mask: calls.append(mask) or decide(order, mask))
    monkeypatch.setattr(space.RealizedTypes, "opens_row",
                        lambda rt, types: reads.append(types) or opens_row(rt, types))
    for sp, text in ((street5, C_RIGHT5), (street2x3, C_RIGHT6)):
        sp = dataclasses.replace(sp)
        chain = parse_chain(text, sp.ctx)
        assert chains.chain_pool(sp, chain)
        assert any(chains.chain_neighborhoods(sp, x, chain) for x in sp.points)
        assert connect.is_chain_connected(sp, sp.points[-1:], chain)[0]
        assert reads and not sp.index.irreducibles
        assert calls == []
        reads.clear()
    assert chains.chain_base_pool(sp, chain) and calls


def test_replaced_copy_starts_with_empty_chain_memos(street5, c_right5):
    base = chains.chain_base_pool(street5, c_right5)
    assert street5.index.irreducibles
    copy = dataclasses.replace(street5)
    idx = copy.index
    assert idx.realized is None and not idx.irreducibles
    assert chains.chain_base_pool(copy, c_right5) == base
    assert chains.chain_pool(copy, c_right5) == chains.chain_pool(street5, c_right5)
    assert len(idx.irreducibles) == 1
    assert idx.realized is not street5.index.realized


def test_chains_with_equal_rows_share_one_memo_entry(monkeypatch, street5):
    """A padded chain, and the same realized chain by indexes, key one pool row.

    Their one lower row takes one entry of the irreducibles memo.
    """
    keys = []
    pools_and_bases = chains._pools_and_bases
    monkeypatch.setattr(chains, "_pools_and_bases", lambda sp, got: pools_and_bases(
        sp, (keys.append(key) or key for key in got)))
    sp = dataclasses.replace(street5)
    rt = realized_types(sp)
    i, j = next((i, j) for i in range(len(rt)) for j in space.bit_indexes(rt.up[i]) if i != j)
    t, u = rt.terms[i], rt.terms[j]
    short, padded = TypeChain((t, u)), TypeChain((t, t, u))
    got = (chains.chain_pool(sp, short), chains.chain_base_pool(sp, short))
    assert (chains.chain_pool(sp, padded), chains.chain_base_pool(sp, padded)) == got
    fetched = chains.realized_chain_pools(sp, [(i, i, j), (i, j)])
    assert [(rt.members(p), rt.members(b)) for p, b in fetched] == [got, got]
    assert len(keys) == 6 and len({row for row, _ in keys}) == 1
    assert len({frozenset(lows) for _, lows in keys if lows}) == len(sp.index.irreducibles) == 1


def test_two_opens_of_one_type_take_two_bits_of_an_open_row():
    """An open row numbers the opens, not their types, when two share a type.

    Built spaces have one open per type, where a pool row is its type row;
    here ``{x}`` and ``{y}`` are both typed ``g``, and the replay meets
    their disjoint pair. The anchored families and their irreducibles read
    the same open rows: ``{x, y}`` is the union of the two at ``g``, and
    irreducible alone at ``g | h``.
    """
    ctx = Context(Poset({"g", "h"}), ("x", "y"))
    g = parse_type_expr("g", ctx)
    sigma = {0: ctx.bottom(), 1: g, 2: g, 3: parse_type_expr("g | h", ctx)}
    sp = TypedSpace(ctx, frozenset(sigma), sigma, ())
    rt = realized_types(sp)
    assert len(rt) == 2 and rt.open_masks == (1, 2, 3)
    rows = [(0b011, 0b011), (0b111, 0b011)]
    assert list(chains.realized_chain_pools(sp, [(0, 0), (0, 1)])) == rows
    assert chains.chain_pool(sp, TypeChain((g, g))) == {1, 2}
    gh = rt.terms[1]
    assert [rt.opens_row(types) for types in (0b01, 0b10, 0b11)] == [0b011, 0b100, 0b111]
    assert [basis.irreducibles(sp, types) for types in (0b01, 0b10, 0b11)] == [0b011, 0b100, 0b011]
    assert (basis.opens_above(sp, g), basis.opens_above(sp, g, at="x")) == ({1, 2, 3}, {1, 3})
    assert basis.irreducibles_above(sp, g) == {1, 2} and basis.opens_above(sp, gh) == {3}
    assert basis.irreducibles_above(sp, gh) == {3} and basis.irreducibles_above(sp, g, "y") == {2}
    assert oracle.check_space(dataclasses.replace(sp)).ok


@pytest.mark.parametrize("fixture, text", [("street5", C_RIGHT5), ("street2x3", C_RIGHT6)])
def test_chain_query_orders_only_its_own_levels(request, monkeypatch, fixture, text):
    """One query reads its levels' rows off the cube table, built once.

    Once strictness is decided, the query makes no `lattice.leq` call and
    computes no `TypeTerm.sort_key`: the realized types are built once, on
    the space's cube table, which deciding strictness built in key order,
    so the query builds no second one. The realized-type build hashes no
    term: it buckets the opens by their cube rows.
    """
    sp = dataclasses.replace(request.getfixturevalue(fixture))
    chain = parse_chain(text, sp.ctx)
    space.is_strictly_typed(sp)
    cubes = sp.index.cubes
    assert cubes is not None
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lattice, "leq", counted("leq", lattice.leq))
    monkeypatch.setattr(
        lattice.TypeTerm, "sort_key", counted("sort_key", lattice.TypeTerm.sort_key)
    )
    monkeypatch.setattr(space, "RealizedTypes", counted("table", space.RealizedTypes))
    monkeypatch.setattr(lattice.TypeTerm, "__hash__", counted("hash", lattice.TypeTerm.__hash__))
    space.realized_types(sp)
    assert calls == {"table": 1}
    chains.chain_base(sp, sp.points[0], chain)
    chains.chain_base(sp, sp.points[-1], chain)
    assert calls["table"] == 1 and not calls["leq"] and not calls["sort_key"]
    assert sp.index.cubes is cubes


def test_a_cold_chain_query_builds_no_order_row_by_type(monkeypatch, street5, tree9):
    """A cold `min_chain_dense` or `chain_closure` reads per-cube rows alone.

    Each query on a fresh copy builds the cube table once, validation and
    the realized types sharing it, and leaves the rows by realized type
    (`RealizedTypes.up`, ``generators`` and ``down``) unbuilt.
    """
    built = []
    cube_rows = space._cube_rows

    def counted(sp):
        if sp.index.cubes is None:
            built.append(sp)
        return cube_rows(sp)

    monkeypatch.setattr(space, "_cube_rows", counted)
    queries = (closure.min_chain_dense, lambda sp, ch: closure.chain_closure(sp, sp.points[:1], ch))
    held = [street5, tree9]
    runs = 0
    for sp, ch in [(sp, ch) for sp in held for ch in chain_cover(sp).chains]:
        for query in queries:
            cold = dataclasses.replace(sp)
            built.clear()
            query(cold, ch)
            assert len(built) == 1 and built[0] is cold
            assert {"up", "generators", "down"}.isdisjoint(vars(realized_types(cold)))
            runs += 1
    assert runs > 40


def generator_neighborhoods(sp, x, gen) -> frozenset:
    """The members of `chains.generator_family` that contain ``x``."""
    bit = sp.point_bit(x)
    return frozenset(m for m in chains.generator_family(sp, gen) if m & bit)


def test_generator_neighborhoods_street5(street5):
    fam = generator_neighborhoods(street5, "r3", "right")
    assert family_ids(street5, fam) == [("r2", "r3", "r4", "r5"), ("r3", "r4", "r5")]


def test_generator_neighborhoods_genealogy(genealogy5):
    fam = generator_neighborhoods(genealogy5, "B", "anc")
    assert family_ids(genealogy5, fam) == [
        ("B",),
        ("B", "C", "H", "S"),
        ("B", "H", "S"),
        ("B", "S"),
    ]


def test_generator_neighborhood_members_reappear_in_some_base(genealogy5):
    g = genealogy5
    anc = parse_type_expr("anc", g.ctx)
    for x in g.points:
        fam = generator_neighborhoods(g, x, "anc")
        for m in fam:
            t = g.sigma[m]
            ch = TypeChain((t, t)) if lattice.term_eq(t, anc) else TypeChain((t, anc))
            assert m in basis.irreducibles_above(g, t)
            assert m in chains.chain_base(g, x, ch)


def _reference_generator_union(sp, gen) -> frozenset:
    """Union of the chain pools over every comparable pair of generator levels.

    The levels are the generator itself and the realized types typed purely
    in it below it; each pair ``lo <= hi`` is ordered by `lattice.leq` and
    read as a two-level `TypeChain` through `chains.chain_pool`.
    """
    top = lattice.normalize(sp.ctx, [lattice.clause_of(gens=[gen])])
    levels = [top] + [
        t for t in realized_types(sp).terms
        if t != top and t.uses_only({gen}) and lattice.leq(t, top)
    ]
    out = set()
    for lo in levels:
        for hi in levels:
            if lattice.leq(lo, hi):
                out |= chains.chain_pool(sp, TypeChain((lo, hi)))
    return frozenset(out)


def test_generator_family_matches_the_pairwise_chain_union(genealogy5, street5, street2x3):
    rng = random.Random(15)
    spaces = [genealogy5, street5, street2x3]
    while len(spaces) < 23:
        sp = random_generated_space(rng, max_points=6)
        if sp is not None:
            spaces.append(sp)
    nonempty = 0
    for sp in spaces:
        for gen in sorted(sp.poset.elements):
            fam = chains.generator_family(dataclasses.replace(sp), gen)
            assert fam == _reference_generator_union(dataclasses.replace(sp), gen)
            nonempty += bool(fam)
    assert nonempty >= 20


def _scanned_generator_family(sp, gen) -> frozenset:
    """The nonempty opens whose type uses only ``gen`` and lies at or below it.

    One scan of the opens' terms, ordered by `lattice.leq`: the route
    `chains.generator_family` no longer takes.
    """
    top = lattice.normalize(sp.ctx, [lattice.clause_of(gens=[gen])])
    return frozenset(m for m in sp.opens
                     if m and sp.sigma[m].uses_only({gen}) and lattice.leq(sp.sigma[m], top))


def test_generator_family_matches_the_scan_of_the_opens(
    genealogy5, street5, street2x3, no_least_base3, tree9
):
    """The check `chains.generator_family` no longer makes in line.

    On the fixtures, TREE9 and the strict random 7-point spaces of seeds 0
    to 39, every generator's family, read off the realized types' rows,
    equals the scan of the opens' terms.
    """
    spaces = [genealogy5, street5, street2x3, no_least_base3, tree9]
    spaces += filter(None, (random_generated_space(random.Random(s), 7) for s in range(40)))
    nonempty = 0
    for sp in spaces:
        for gen in sorted(sp.poset.elements):
            fam = chains.generator_family(sp, gen)
            assert fam == _scanned_generator_family(sp, gen)
            nonempty += bool(fam)
    assert len(spaces) >= 20 and nonempty >= 30


def test_generator_family_is_checked_against_the_realized_chain_union(monkeypatch, street5):
    """One read of the realized types' rows, which the scan of the opens checks.

    Measured on STREET5, once the strictness check has run:
    `stats.family_size_scores` makes no `lattice.leq` call and 1
    `RealizedTypes.rows` call, for the generator's own term, and builds no
    order row by type (`up`, `generators`, `down`). The family is every
    open of a type visible to the generator and below it; the union of
    two-level chain pools over every comparable pair of levels made 360
    `leq` calls. A realized-type index that loses or gains a family member
    makes the family part from `_scanned_generator_family`.
    """
    copy = dataclasses.replace(street5)
    space.is_strictly_typed(copy)
    calls = []
    leq, rows = lattice.leq, space.RealizedTypes.rows
    monkeypatch.setattr(lattice, "leq", lambda a, b: calls.append("leq") or leq(a, b))
    monkeypatch.setattr(
        space.RealizedTypes, "rows", lambda self, level: calls.append("rows") or rows(self, level))
    table = stats.family_size_scores(copy, "right")
    assert calls.count("leq") == 0 and calls.count("rows") <= 1
    assert not {"up", "generators", "down"} & vars(realized_types(copy)).keys()
    monkeypatch.undo()
    assert table.population == stats.family_size_scores(street5, "right").population
    scanned = _scanned_generator_family(copy, "right")
    assert chains.generator_family(copy, "right") == scanned
    rt = realized_types(copy)
    j = rt.terms.index(copy.sigma[max(scanned)])
    outsider = next(m for m in copy.nonempty_opens() if not copy.sigma[m].uses_only({"right"}))
    for opens in ((), rt.opens_by_type[j] + (outsider,)):
        buckets = rt.opens_by_type[:j] + (opens,) + rt.opens_by_type[j + 1:]
        copy.index.realized = dataclasses.replace(rt, opens_by_type=buckets)
        assert chains.generator_family(copy, "right") != scanned


def test_generator_neighborhoods_needs_known_generator(street5):
    with pytest.raises(PreconditionError):
        chains.generator_family(street5, "nosuch")


def test_chain_cover_width_one_for_nested_types():
    poset = Poset({"g"})
    pts = ("x", "y")
    ctx = Context(poset, pts)
    specs = [
        GeneratorSpec("a", frozenset({"x"}), parse_type_expr("g & @x", ctx)),
        GeneratorSpec("b", frozenset(pts), parse_type_expr("g", ctx)),
    ]
    sp = generate_topology(ctx, specs)
    cov = chain_cover(sp)
    assert len(cov.chains) == 1


def test_chain_cover_width_two_for_antichain():
    poset = Poset({"g", "h"})
    pts = ("x", "y")
    ctx = Context(poset, pts)
    specs = [
        GeneratorSpec("a", frozenset({"x"}), parse_type_expr("g & @x", ctx)),
        GeneratorSpec("b", frozenset({"y"}), parse_type_expr("h & @y", ctx)),
    ]
    sp = generate_topology(ctx, specs)
    cov = chain_cover(sp)
    assert len(realized_types(sp)) == 3
    assert len(cov.chains) == 2


def _recursive_cover(sp, keep_seen: bool = False) -> list[tuple]:
    """The levels of each chain of a minimum chain partition, by recursive matching.

    The reference for `chain_cover`: augmenting paths by a recursive
    depth-first search, left vertices and successors in ascending order,
    each search with a fresh ``seen``, or with ``keep_seen`` the one a
    failed search left.
    """
    rt = realized_types(sp)
    n = len(rt)
    succ = {i: [j for j in range(n) if j != i and rt.up[i] >> j & 1] for i in range(n)}
    match_right: dict = {}
    match_left: dict = {}

    def try_augment(i: int, seen: set) -> bool:
        for j in succ[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_right or try_augment(match_right[j], seen):
                match_right[j] = i
                match_left[i] = j
                return True
        return False

    seen: set = set()
    for i in range(n):
        if try_augment(i, seen) or not keep_seen:
            seen = set()
    out = []
    for s in (i for i in range(n) if i not in match_right):
        seq = [s]
        while seq[-1] in match_left:
            seq.append(match_left[seq[-1]])
        out.append(tuple(rt.terms[i] for i in seq) * (2 if len(seq) == 1 else 1))
    return out


def _street(n: int):
    residents = tuple(f"r{i}" for i in range(1, n + 1))
    return ingest.build_community(ingest.CommunityDataset((("main", residents),)))


def test_chain_cover_matches_the_recursive_matching(genealogy5, street5, street2x3, tree9):
    """The same chains, in the same order, as the recursive search finds."""
    for sp in [genealogy5, street5, street2x3, tree9] + [_street(n) for n in range(6, 10)]:
        sp = dataclasses.replace(sp)
        cover = chain_cover(sp)
        want = _recursive_cover(sp)
        assert [ch.levels for ch in cover.chains] == want
        assert len(cover.chains) == len(want)


def test_chain_cover_keeps_seen_across_failed_searches(tree9):
    """Keeping ``seen`` after a failed search changes no chain.

    A failed search leaves the matching as it was, so every type it
    exhausted stays dead for the next search. On streets of 6 to 9 points
    and on TREE9 the chains equal those of the reference that starts each
    search afresh, and so do the reference's own when it keeps ``seen``.
    """
    for sp in [_street(n) for n in range(6, 10)] + [tree9]:
        sp = dataclasses.replace(sp)
        want = _recursive_cover(sp)
        assert _recursive_cover(sp, keep_seen=True) == want
        assert [ch.levels for ch in chain_cover(sp).chains] == want


def test_chain_cover_needs_no_recursion_for_long_augmenting_paths():
    """An 8-point street needs augmenting paths of 57 left vertices.

    A recursive search would need a frame per vertex on the path, and a
    12-point street overflowed the default recursion limit. Here the limit
    leaves 40 frames above the test.
    """
    sp = _street(8)
    want = _recursive_cover(sp)
    sp = dataclasses.replace(sp)
    space.is_strictly_typed(sp)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        cover = chain_cover(sp)
    finally:
        sys.setrecursionlimit(limit)
    assert [ch.levels for ch in cover.chains] == want


def test_chain_cover_recovers_full_neighborhood_system(street5, genealogy5):
    for sp in (street5, genealogy5):
        cov = chain_cover(sp)
        rt = realized_types(sp)
        covered = set()
        for ch in cov.chains:
            covered |= {t.sort_key() for t in ch.levels}
        assert covered == {t.sort_key() for t in rt.terms}
        for x in sp.points:
            nbhd = set()
            base = set()
            for ch in cov.chains:
                nbhd |= chains.chain_neighborhoods(sp, x, ch)
                base |= chains.chain_base(sp, x, ch)
            bit = sp.point_bit(x)
            want = {m for m in sp.opens if m & bit}
            assert nbhd == want
            for u in want:
                assert any((v & u) == v and (v & bit) for v in base)


def test_refining_a_chain_never_drops_members(street5):
    ctx = street5.ctx
    lo = parse_type_expr("right & @r1 & @r2 & @r3 & @r4 & @r5", ctx)
    mid = parse_type_expr("right & @r3 & @r4 & @r5", ctx)
    hi = parse_type_expr("right", ctx)
    coarse = TypeChain((lo, hi))
    fine = TypeChain((lo, mid, hi))
    for x in street5.points:
        before = chains.chain_neighborhoods(street5, x, coarse)
        after = chains.chain_neighborhoods(street5, x, fine)
        assert before <= after


# ---------------------------------------------------------------------------
# per-open scans: slow twin of the chain pools' mask algebra
# ---------------------------------------------------------------------------


def _visible(sp, chain):
    """The nonempty opens whose type mentions only the chain's generators."""
    gens = chain_support(chain)
    return [m for m in sp.nonempty_opens() if sp.sigma[m].generators() <= gens]


def _reference_pool(sp, chain):
    return frozenset(
        m
        for m in _visible(sp, chain)
        if any(lattice.leq(lo, sp.sigma[m]) and lattice.leq(sp.sigma[m], hi)
               for lo, hi in zip(chain.levels, chain.levels[1:]))
    )


def _reference_anchored(sp, chain, level):
    return frozenset(m for m in _visible(sp, chain) if lattice.leq(level, sp.sigma[m]))


def _reference_base(sp, chain):
    lower = [_reference_anchored(sp, chain, lo) for lo in chain.levels[:-1]]
    return frozenset(
        m
        for m in _reference_pool(sp, chain)
        if any(m in pool and pairwise_irreducible(pool, m) for pool in lower)
    )


def _random_chain(rng, sp):
    """Levels around a realized type, mostly unrealized: ``a ^ b <= a <= a v c``.

    ``c`` is a realized type or a single generator, so the top level may
    bring in generators that no open of the chain's pool mentions.
    """
    rt = realized_types(sp)
    ctx = sp.ctx
    gens = [lattice.normalize(ctx, [lattice.clause_of(gens=[g])])
            for g in sorted(sp.poset.elements)]
    a, b = rng.choice(rt.terms), rng.choice(rt.terms)
    c = rng.choice(rt.terms + tuple(gens))
    levels = [lattice.meet(a, b), a, lattice.join(a, c)]
    if rng.random() < 0.5:
        del levels[1]
    try:
        return TypeChain(tuple(levels))
    except PreconditionError:
        return None


def _parsed_chain(rng, sp):
    """A chain parsed from text: a generator narrowed by one or two points, up to itself."""
    gen = rng.choice(sorted(sp.poset.elements))
    a, b = rng.sample(sp.points, 2)
    text = rng.choice([f"{gen} & @{a} & @{b} ; {gen} & @{a} ; {gen}", f"{gen} & ~@{a} ; {gen}"])
    try:
        return parse_chain(text, sp.ctx)
    except PreconditionError:
        return None


def test_chain_pools_match_the_per_open_scans(genealogy5, street5, street2x3):
    """Pools, anchored pools, their irreducibles and bases against per-open scans.

    Chains come as realized levels, also read by index through
    `chains.realized_chain_pools`; as meets and joins around a realized
    type; and parsed from text, with levels that no open realizes.
    """
    rng = random.Random(8)
    spaces = [genealogy5, street5, street2x3]
    while len(spaces) < 12:
        sp = random_generated_space(rng, max_points=6)
        if sp is not None:
            spaces.append(sp)
    checked = unrealized = 0
    for sp in spaces:
        sp = dataclasses.replace(sp)
        rt = realized_types(sp)
        realized = [random_realized_chain(rng, sp) for _ in range(4)]
        chain_list = [tuple(map(rt.terms.index, c.levels)) for c in filter(None, realized)]
        fetched = chains.realized_chain_pools(sp, chain_list)
        assert [(rt.members(p), rt.members(b)) for p, b in fetched] == [
            (_reference_pool(sp, c), _reference_base(sp, c)) for c in filter(None, realized)
        ]
        drawn = realized + [_random_chain(rng, sp) for _ in range(6)]
        drawn += [_parsed_chain(rng, sp) for _ in range(3)]
        for chain in filter(None, drawn):
            unrealized += any(t not in rt.terms for t in chain.levels)
            assert chains.chain_pool(sp, chain) == _reference_pool(sp, chain)
            for level in chain.levels:
                row = rt.visible(rt.generator_bits(chain_support(chain))) & rt.rows(level)[0]
                anchored = _reference_anchored(sp, chain, level)
                assert rt.members(rt.opens_row(row)) == anchored
                assert rt.members(basis.irreducibles(sp, row)) == {
                    m for m in anchored if pairwise_irreducible(anchored, m)
                }
            assert chains.chain_base_pool(sp, chain) == _reference_base(sp, chain)
            checked += 1
    assert checked >= 100 and unrealized >= 40


def test_check_space_decides_irreducibility_at_most_409_times(monkeypatch, street5, genealogy5):
    """Each member of each distinct row is decided at most once.

    Measured on STREET5: 409 members in 67 rows, and on GENEALOGY5 231 in
    39; the anchored families read every member of their rows. Per-member
    and per-chain decisions without the union pre-test made 13,949 on
    STREET5, and one memo per anchored pool beside per-call decisions for
    each anchor made 1,062. The chain walk asks the memo about its pool's
    members and decides only those not yet decided, so a fresh replay
    still decides each member once.
    """
    decided = []
    decide = basis._irreducible
    monkeypatch.setattr(basis, "_irreducible", lambda order, mask: decided.append(
        (tuple(order), mask)) or decide(order, mask))
    for sp, rows, members in ((street5, 67, 409), (genealogy5, 39, 231)):
        decided.clear()
        assert oracle.check_space(dataclasses.replace(sp)).ok
        assert 0 < len(decided) == len(set(decided)) <= members
        assert len({order for order, _ in decided}) <= rows


def test_a_cold_dense_query_decides_only_its_pool(monkeypatch, tree9):
    """A cold `min_chain_dense` decides irreducibility for members of its chain's pool alone.

    The base keeps only pool members, so no other member of a lower row
    is decided: on the 21 cover chains of the 9-person advisor tree, 193
    decisions, against 948 when each lower row was decided whole.
    """
    decided = []
    decide = basis._irreducible
    monkeypatch.setattr(basis, "_irreducible",
                        lambda order, mask: decided.append(mask) or decide(order, mask))
    total = 0
    for ch in chain_cover(tree9).chains:
        decided.clear()
        closure.min_chain_dense(dataclasses.replace(tree9), ch)
        assert decided and set(decided) <= chains.chain_pool(tree9, ch)
        total += len(decided)
    assert total <= 193
