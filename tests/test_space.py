import dataclasses
import functools
import itertools
import json
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_generated_space
from typedtopo import ingest, lattice, space
from typedtopo.errors import (
    ContextMismatchError,
    NotStrictlyTypedError,
    PreconditionError,
    SpaceValidationError,
    UnknownPointError,
)
from typedtopo.lattice import Context, Poset, clause_of, format_term, normalize, parse_type_expr
from typedtopo.space import (
    GeneratorSpec,
    TypedSpace,
    generate_topology,
    is_strictly_typed,
    realized_types,
    space_from_json,
    space_to_json,
    strictify,
    validate_type_mapping,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_genealogy_topology_values(genealogy5):
    g = genealogy5
    assert len(g.opens) == 32
    assert format_term(g.sigma[g.mask_of(["B", "S", "H", "C"])]) == "anc & @W"
    assert (
        format_term(g.sigma[g.mask_of(["W"])]) == "desc & @B & @C & @H & @S"
    )


def test_generate_topology_rejects_empty_spec_list():
    poset = Poset({"g"})
    with pytest.raises(SpaceValidationError):
        generate_topology(Context(poset, ("x", "y")), [])


def test_generate_topology_single_full_generator():
    poset = Poset({"anc"})
    pts = ("x", "y")
    ctx = Context(poset, pts)
    t = parse_type_expr("anc", ctx)
    sp = generate_topology(ctx, [GeneratorSpec("g", frozenset(pts), t)])
    assert sp.opens == frozenset({0, sp.full_mask})
    assert lattice.term_eq(sp.sigma[sp.full_mask], t)


def test_generate_topology_opens_budget(monkeypatch):
    """The budget counts opens, not points, and stops a build before typing.

    70 points spanning 2 opens build; a 16-point street would span 2^16
    opens and fails once the enumeration passes `space.MAX_OPENS`, after
    the generator intersections are typed and before any open is.
    """
    poset = Poset({"g"})
    pts = tuple(f"x{i}" for i in range(70))
    ctx = Context(poset, pts)
    spec = GeneratorSpec("g0", frozenset(pts), parse_type_expr("g", ctx))
    assert len(generate_topology(ctx, [spec]).opens) == 2

    entries, typed = [], []
    induced_type_entries, join_all = space._induced_type_entries, lattice.join_all

    def induced(*args):
        entries.append(induced_type_entries(*args))
        return entries[-1]

    def counted_join_all(ctx, terms):
        if entries:
            typed.append(terms)
        return join_all(ctx, terms)

    monkeypatch.setattr(space, "_induced_type_entries", induced)
    monkeypatch.setattr(lattice, "join_all", counted_join_all)
    data = ingest.CommunityDataset((("main", tuple(f"r{i}" for i in range(1, 17))),))
    with pytest.raises(PreconditionError, match=f"more than {space.MAX_OPENS} opens"):
        ingest.build_community(data)
    assert len(entries) == 1 and not typed
    assert space.MAX_OPENS >= 2 ** 12  # a 12-point street still builds


def test_validation_passes_on_fixtures(genealogy5, street5, street2x3):
    for sp in (genealogy5, street5, street2x3):
        assert validate_type_mapping(sp).ok


def by_code(report, code: str) -> tuple:
    """The failures of ``report`` with the code ``code``, in report order."""
    return tuple(f for f in report.failures if f.code == code)


def _with_sigma(sp: TypedSpace, replacements: dict) -> TypedSpace:
    sigma = dict(sp.sigma)
    sigma.update(replacements)
    return TypedSpace(sp.ctx, sp.opens, sigma, sp.generators)


def test_validation_flags_top_type(genealogy5):
    m = genealogy5.mask_of(["C"])
    broken = _with_sigma(genealogy5, {m: genealogy5.ctx.top()})
    report = validate_type_mapping(broken)
    assert not report.ok
    assert by_code(report, "top-forbidden")


def test_validation_flags_typed_empty_set(genealogy5):
    broken = _with_sigma(
        genealogy5, {0: parse_type_expr("anc", genealogy5.ctx)}
    )
    report = validate_type_mapping(broken)
    assert not report.ok
    assert by_code(report, "bottom-on-empty")


def test_validation_flags_monotonicity(genealogy5):
    g = genealogy5
    broken = _with_sigma(g, {g.mask_of(["C"]): g.sigma[g.mask_of(["C", "W"])]})
    report = validate_type_mapping(broken)
    assert not report.ok
    assert by_code(report, "monotone")


def _without(sp: TypedSpace, drop=(), untyped=()) -> TypedSpace:
    """``sp`` less the opens ``drop``, with the opens ``untyped`` left untyped."""
    opens = sp.opens - set(drop)
    sigma = {m: t for m, t in sp.sigma.items() if m in opens and m not in untyped}
    return TypedSpace(sp.ctx, opens, sigma, sp.generators)


def test_validation_flags_missing_empty_and_whole_set(street5):
    report = validate_type_mapping(_without(street5, drop=(0, street5.full_mask)))
    assert by_code(report, "empty-open-missing")
    assert by_code(report, "whole-set-missing")


def test_validation_flags_untyped_open(street5):
    m = street5.mask_of(["r2", "r3"])
    report = validate_type_mapping(_without(street5, untyped=(m,)))
    assert [f.witness for f in by_code(report, "type-missing")] == [(("r2", "r3"),)]


def test_closure_failures_name_each_bad_pair_once(street5):
    broken = _without(street5, drop=(street5.mask_of(["r3", "r4", "r5"]),))
    expected = []
    for u, v in itertools.combinations(sorted(broken.opens), 2):
        pair = frozenset({broken.ids_of(u), broken.ids_of(v)})
        if (u | v) not in broken.opens:
            expected.append(("union-closure", pair))
        if (u & v) not in broken.opens:
            expected.append(("intersection-closure", pair))
    report = validate_type_mapping(broken)
    assert len(by_code(report, "union-closure")) == 6
    assert len(by_code(report, "intersection-closure")) == 1
    got = [(f.code, frozenset(f.witness)) for f in report.failures]
    assert Counter(got) == Counter(expected)


def test_meet_join_bounds_hold_exhaustively(street5):
    sig = street5.sigma
    for u, v in itertools.combinations(sorted(street5.opens), 2):
        assert lattice.leq(sig[u & v], lattice.meet(sig[u], sig[v]))
        assert lattice.leq(lattice.join(sig[u], sig[v]), sig[u | v])


@given(st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_validation_implies_meet_and_join_bounds(seed):
    """Monotone + closed under union and intersection gives both bounds.

    Validation checks only the former; one swapped type keeps a space
    valid now and then, and every valid one must satisfy the bounds.
    """
    rng = random.Random(seed)
    sp = None
    while sp is None:  # about one draw in three is usable
        sp = random_generated_space(rng, max_points=5)
    nonempty = [m for m in sorted(sp.opens) if m]
    realized = sorted({sp.sigma[m].sort_key(): sp.sigma[m] for m in nonempty}.items())
    swapped = _with_sigma(sp, {rng.choice(nonempty): rng.choice(realized)[1]})
    if not validate_type_mapping(swapped).ok:
        return
    sig = swapped.sigma
    for u in sorted(swapped.opens):
        for v in sorted(swapped.opens):
            assert lattice.leq(sig[u & v], lattice.meet(sig[u], sig[v]))
            assert lattice.leq(lattice.join(sig[u], sig[v]), sig[u | v])


def test_sigma_is_read_only(street5):
    sp = _with_sigma(street5, {})
    m = sp.nonempty_opens()[0]
    with pytest.raises(TypeError):
        sp.sigma[m] = sp.sigma[sp.full_mask]
    assert dict(sp.sigma) == dict(street5.sigma)


def test_strictness_verdict_never_passes_to_another_space(street5):
    """A freed non-strict space must not leave its verdict to a later one."""
    u = street5.nonempty_opens()[0]
    for _ in range(50):
        tied = _with_sigma(street5, {u: street5.sigma[street5.full_mask]})
        with pytest.raises(NotStrictlyTypedError):
            space.require_strict(tied)
        del tied
        space.require_strict(_with_sigma(street5, {}))


def test_replace_gives_a_cold_index(street5):
    space.require_strict(street5)
    copy = dataclasses.replace(street5)
    assert copy.index is not street5.index
    assert copy.index.strict_report is None
    assert space.is_strictly_typed(copy) == space.is_strictly_typed(street5)


def test_a_space_owns_the_context_of_its_types(genealogy5, street2x3):
    """Built, loaded, strictified and replaced spaces type opens and generators in ``sp.ctx``.

    Each builder hands `generate_topology` the context it typed its
    generators in.
    """
    assert [f.name for f in dataclasses.fields(TypedSpace)] == [
        "ctx", "opens", "sigma", "generators",
    ]
    loaded = [space.load_space(FIXTURES / f"{name}.json")
              for name in ("genealogy5", "street5", "street2x3")]
    table = ingest.build_table(ingest.read_table_dataset(
        (FIXTURES / "datasets" / "fees.csv").read_text(),
        (FIXTURES / "datasets" / "fees_predicates.json").read_text(),
    ), apply_strictify=True)
    copy = dataclasses.replace(loaded[2])
    assert copy.ctx is loaded[2].ctx
    for sp in (*loaded, genealogy5, street2x3, table, copy):
        assert (sp.points, sp.poset) == (sp.ctx.points, sp.ctx.poset)
        assert all(t.ctx is sp.ctx for t in sp.sigma.values())
        assert sp.generators and all(g.type_term.ctx is sp.ctx for g in sp.generators)


def test_generate_topology_refuses_generators_of_an_equal_context(street5):
    """Generators typed in an equal copy of the context would leave ``sp.ctx``."""
    twin = Context(street5.poset, street5.points)
    assert twin == street5.ctx and twin is not street5.ctx
    with pytest.raises(PreconditionError, match="not typed in the space's context"):
        generate_topology(twin, street5.generators)
    assert generate_topology(street5.ctx, street5.generators).ctx is street5.ctx


def test_point_bit_refuses_unknown_and_unhashable_points(street5):
    assert [street5.point_bit(p) for p in street5.points] == [1 << i for i in range(5)]
    for bad in ("zz", ["r1"]):
        with pytest.raises(UnknownPointError, match="unknown point"):
            street5.point_bit(bad)


def test_ids_of_sorts_names_whatever_the_point_order():
    ctx = Context(Poset({"g"}), ("b", "c", "a"))
    sp = TypedSpace(ctx, frozenset({0, 7}), {0: ctx.bottom(), 7: parse_type_expr("g", ctx)}, ())
    assert sp.ids_of(0b101) == ("a", "b") and sp.ids_of(7) == ("a", "b", "c")
    for m in range(8):
        assert sp.ids_of(m) == tuple(sorted(p for i, p in enumerate(ctx.points) if m >> i & 1))
        assert sp.mask_of(sp.ids_of(m)) == m


@pytest.mark.parametrize("name", ["genealogy5.json", "street5.json"])
def test_a_loaded_space_reads_the_verdict_validation_recorded(monkeypatch, name):
    """`is_strictly_typed` walks no step pair and orders no pair on a loaded space."""
    sp = space.load_space(FIXTURES / name)
    calls = []
    monkeypatch.setattr(space, "_steps_rise", lambda _sp: calls.append("walk"))
    monkeypatch.setattr(lattice, "leq", lambda a, b: calls.append("leq"))
    verdict = is_strictly_typed(sp)
    assert verdict is is_strictly_typed(sp) is sp.index.strict_report
    assert verdict == space.StrictnessReport(True) and calls == []


def test_strictness_on_fixtures(genealogy5, street5):
    assert is_strictly_typed(genealogy5).strict
    assert is_strictly_typed(street5).strict


def _degenerate_space() -> TypedSpace:
    poset = Poset({"g"})
    pts = ("x", "y", "z")
    ctx = Context(poset, pts)
    gx = parse_type_expr("g & @x", ctx)
    sigma = {0: ctx.bottom(), 1: gx, 3: gx, 7: parse_type_expr("g", ctx)}
    return TypedSpace(ctx, frozenset(sigma), sigma, ())


def test_strictness_counterexample():
    res = is_strictly_typed(_degenerate_space())
    assert not res.strict
    assert res.witness == (("x",), ("x", "y"))


def test_strictify_repairs_degenerate_space():
    sp = _degenerate_space()
    fixed = strictify(sp)
    assert is_strictly_typed(fixed).strict
    assert validate_type_mapping(fixed).ok
    assert format_term(fixed.sigma[1]) == "g & @x | g & ~@y & ~@z"
    assert format_term(fixed.sigma[3]) == "g & @x | g & ~@z"
    assert format_term(fixed.sigma[7]) == "g"


def test_strictify_preserves_already_strict(street5):
    fixed = strictify(street5)
    assert is_strictly_typed(fixed).strict
    assert validate_type_mapping(fixed).ok


def _two_scan_reference(sp: TypedSpace):
    """Monotone witnesses and strictness verdict from two separate scans.

    Every nested pair is ordered both ways for strictness, apart from the
    monotone scan, as the two checks were computed before they shared a pass.
    """
    sig = sp.sigma
    opens = sorted(sp.opens)
    nested = [(u, v) for u in opens for v in opens if u != v and (u & v) == u]
    monotone = [
        (sp.ids_of(u), sp.ids_of(v)) for u, v in nested if not lattice.leq(sig[u], sig[v])
    ]
    for u, v in nested:
        if u and (not lattice.leq(sig[u], sig[v]) or lattice.leq(sig[v], sig[u])):
            return monotone, space.StrictnessReport(False, (sp.ids_of(u), sp.ids_of(v)))
    return monotone, space.StrictnessReport(True)


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_one_order_scan_matches_the_two_scan_reference(seed):
    rng = random.Random(seed)
    sp = None
    while sp is None:  # about one draw in three is usable
        sp = random_generated_space(rng, max_points=5)
    nonempty = sp.nonempty_opens()
    copied = {
        rng.choice(nonempty): sp.sigma[rng.choice(nonempty)] for _ in range(rng.randint(0, 2))
    }
    probe = _with_sigma(sp, copied)
    monotone, verdict = _two_scan_reference(probe)
    assert is_strictly_typed(probe) == verdict
    report = validate_type_mapping(probe)
    assert [f.witness for f in by_code(report, "monotone")] == monotone
    assert probe.index.strict_report == verdict


def _bundle_dfs_entries(ctx, specs, masks) -> dict:
    """Induced entries by depth-first search over generator bundles.

    Each bundle is visited once, in index order, and its meet type joined
    into the entry of its intersection; the slow twin of the dynamic
    program in `space._induced_type_entries`.
    """
    entries = {}
    types = [s.type_term for s in specs]

    def rec(start, mask, term):
        for j in range(start, len(specs)):
            nm = mask & masks[j]
            if nm == 0:
                continue
            nt = lattice.meet(term, types[j])
            if not nt.is_bottom:
                prev = entries.get(nm)
                entries[nm] = nt if prev is None else lattice.join(prev, nt)
                rec(j + 1, nm, nt)

    rec(0, (1 << len(ctx.points)) - 1, ctx.top())
    return entries


@given(st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_induced_entries_match_the_bundle_search(rng):
    """The entries match the bundle search, and the build matches the definition.

    The definition types each union of entries as the join of every entry
    inside it, with no maximal-entry selection. The family builds exactly
    that space when it is valid, and fails validation when it is not.
    """
    pts = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
    gnames = ["g", "h"]
    poset = Poset(gnames, [("g", "h")] if rng.random() < 0.5 else [])
    ctx = Context(poset, pts)
    specs = []
    for k in range(rng.randint(1, 6)):
        # a whole-set generator now and then; signed literals make some
        # bundles meet to Bottom
        members = pts if rng.random() < 0.2 else rng.sample(pts, rng.randint(1, len(pts)))
        clauses = []
        for _ in range(rng.randint(1, 2)):
            signed = {p: rng.random() for p in pts if rng.random() < 0.4}
            clauses.append(clause_of(
                gens=[rng.choice(gnames)],
                pos=[p for p, r in signed.items() if r < 0.5],
                neg=[p for p, r in signed.items() if r >= 0.5],
            ))
        specs.append(GeneratorSpec(f"s{k}", frozenset(members), normalize(ctx, clauses)))
    bit = {p: 1 << i for i, p in enumerate(pts)}
    masks = [sum(bit[p] for p in s.members) for s in specs]
    got = space._induced_type_entries(ctx, specs, masks)
    assert got == _bundle_dfs_entries(ctx, specs, masks)
    opens = {0, (1 << len(pts)) - 1}
    for e in got:
        opens |= {o | e for o in opens}
    sigma = {u: lattice.join_all(ctx, [t for m, t in got.items() if m & u == m]) for u in opens}
    if not validate_type_mapping(TypedSpace(ctx, frozenset(opens), sigma, tuple(specs))).ok:
        with pytest.raises(SpaceValidationError):
            generate_topology(ctx, specs)
        return
    built = generate_topology(ctx, specs)
    assert (built.opens, dict(built.sigma)) == (opens, sigma)


def test_induced_entries_whole_set_and_bottom_bundles():
    poset = Poset({"g"})
    pts = ("x", "y", "z")
    ctx = Context(poset, pts)
    specs = [
        GeneratorSpec("a", frozenset(pts), parse_type_expr("g & @x", ctx)),
        GeneratorSpec("b", frozenset("xy"), parse_type_expr("g & ~@x", ctx)),
        GeneratorSpec("c", frozenset("yz"), parse_type_expr("g", ctx)),
    ]
    masks = [7, 3, 6]
    got = space._induced_type_entries(ctx, specs, masks)
    assert got == _bundle_dfs_entries(ctx, specs, masks)
    # the whole set keeps a's own type; a ^ b is Bottom and adds nothing to
    # {x, y}; a ^ c = g & @x joins into c's {y, z}; b ^ c types {y}
    assert {m: format_term(t) for m, t in got.items()} == {
        7: "g & @x", 3: "g & ~@x", 6: "g", 2: "g & ~@x",
    }


def _perturbed(rng, sp: TypedSpace) -> TypedSpace:
    """``sp`` with 0-2 types copied between opens, then an open dropped or untyped."""
    nonempty = sp.nonempty_opens()
    sigma = dict(sp.sigma)
    for _ in range(rng.randint(0, 2)):
        sigma[rng.choice(nonempty)] = sp.sigma[rng.choice(nonempty)]
    opens = set(sp.opens)
    mode = rng.randrange(4)
    if mode == 1:
        opens.discard(rng.choice(sorted(sp.opens)))
    elif mode == 2:
        del sigma[rng.choice(sorted(sp.opens))]
    return TypedSpace(sp.ctx, frozenset(opens), {m: sigma[m] for m in opens if m in sigma},
                      sp.generators)


@given(st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_step_pass_matches_the_full_scans(seed):
    """The least-neighborhood tests report what the exhaustive scans report."""
    rng = random.Random(seed)
    sp = None
    while sp is None:  # about one draw in three is usable
        sp = random_generated_space(rng, max_points=5)
    probe = _perturbed(rng, sp)
    fast = dataclasses.replace(probe)
    slow = dataclasses.replace(probe)
    report = validate_type_mapping(fast)
    verdict = is_strictly_typed(fast)
    with mock.patch.object(space, "_minimal_neighborhoods", lambda _sp: None):
        assert validate_type_mapping(slow) == report
        assert is_strictly_typed(slow) == verdict
    assert is_strictly_typed(dataclasses.replace(probe)) == verdict  # asked before validation
    assert space._order_scan(probe)[1] == verdict  # the exhaustive scan, no memo


def _step_pairs(sp: TypedSpace) -> set:
    """The distinct ``(U, U | U_x)`` with ``U_x`` the least open around ``x``."""
    return {(u, u | m) for u in sp.opens for m in _least_by_scan(sp) if u | m != u}


@pytest.mark.parametrize(
    "name, steps, nested",
    [("street5.json", 80, 211), ("genealogy5.json", 80, 211), ("street2x3.json", 192, 665)],
)
def test_load_and_verdict_order_each_step_pair_once(monkeypatch, name, steps, nested):
    """Validation orders each step pair once, and that pass yields the verdict.

    Only the steps out of the empty set, one per least neighborhood ``U_x``,
    call `lattice.leq`; the cube table decides the others. Before the table
    every step pair made one call: 80, 80 and 192 on these fixtures.
    """
    calls = []
    leq = lattice.leq
    monkeypatch.setattr(lattice, "leq", lambda a, b: calls.append(1) or leq(a, b))
    sp = space.load_space(FIXTURES / name)
    assert space.is_strictly_typed(sp).strict
    pairs = _step_pairs(sp)
    assert len(pairs) == steps
    assert len(calls) == len({v for u, v in pairs if u == 0}) == len(sp.points)
    assert sum(1 for u, v in itertools.permutations(sp.opens, 2) if (u & v) == u) == nested


def test_building_a_street_orders_its_steps_on_the_cube_table(monkeypatch):
    """A 7-point street build calls `lattice.leq` once per ``U_x``, 7 times.

    Its 448 step pairs made 448 calls before the cube table decided them.
    """
    calls = []
    leq = lattice.leq
    monkeypatch.setattr(lattice, "leq", lambda a, b: calls.append(1) or leq(a, b))
    data = ingest.CommunityDataset((("main", tuple(f"r{i}" for i in range(1, 8))),))
    sp = ingest.build_community(data)
    assert sp.index.strict_report == space.StrictnessReport(True)
    assert len(_step_pairs(sp)) == 448
    assert len(calls) == 7


def _retyped_copies(rng, sp: TypedSpace) -> list:
    """Five copies of ``sp``, each with one retyping the step pass must see.

    A step pair tied, a nested pair's types swapped, an open typed Bottom,
    one typed Top, and the empty set typed as an open.
    """
    sig, ctx = sp.sigma, sp.ctx
    u, v = rng.choice(sorted(p for p in _step_pairs(sp) if p[0]))
    a, b = rng.choice([(a, b) for a in sp.nonempty_opens() for b in sp.opens
                       if a != b and a & b == a])
    m = rng.choice(sp.nonempty_opens())
    return [_with_sigma(sp, edit) for edit in (
        {u: sig[v]}, {a: sig[b], b: sig[a]}, {m: ctx.bottom()}, {m: ctx.top()}, {0: sig[m]},
    )]


def test_table_step_pass_matches_the_order_scan(genealogy5, street5, street2x3):
    """The cube-table step pass answers what `_order_scan` answers, fail or pass.

    The slow side skips the step walk, so `_structure_failures` and
    `_order_scan`, one `lattice.leq` per nested pair, write its report,
    verdict and witness. Run on the fixtures, random spaces, and retyped
    copies of both whose ties, swaps, Bottom and Top the table must see.
    """
    rng = random.Random(20)
    spaces = [genealogy5, street5, street2x3]
    while len(spaces) < 12:
        sp = random_generated_space(rng, max_points=5)
        if sp is not None and len(_step_pairs(sp)) > 1:
            spaces.append(sp)
    for sp in list(spaces):
        spaces += _retyped_copies(rng, sp)
    for sp in spaces:
        fast, slow = dataclasses.replace(sp), dataclasses.replace(sp)
        report, verdict = validate_type_mapping(fast), is_strictly_typed(fast)
        with mock.patch.object(space, "_steps_rise", lambda _sp: None):
            assert validate_type_mapping(slow) == report
            assert is_strictly_typed(slow) == verdict
        assert space._order_scan(sp)[1] == verdict  # the exhaustive scan, no memo
        rises = not by_code(report, "monotone") and verdict.strict
        assert space._steps_rise(dataclasses.replace(sp)) is rises


def test_building_a_street_meets_at_most_once_per_entry_and_generator(monkeypatch):
    """The induced types cost at most one meet per entry and generator.

    Every canonicalization counts, whether it comes from `normalize`,
    `meet`, `join` or `join_all`.
    """
    calls = Counter()

    def counted(name):
        op = getattr(lattice, name)
        return lambda *args: calls.update([name]) or op(*args)

    for name in ("meet", "_canonical"):
        monkeypatch.setattr(lattice, name, counted(name))
    data = ingest.CommunityDataset((("main", tuple(f"r{i}" for i in range(1, 8))),))
    sp = ingest.build_community(data)
    meets, normalizes = calls["meet"], calls["_canonical"]
    entries = space._induced_type_entries(
        sp.ctx, sp.generators, [sp.mask_of(g.members) for g in sp.generators])
    assert (len(entries) + 1) * len(sp.generators) == 435
    assert meets <= 435
    assert normalizes <= 500


def test_space_to_json_renders_only_generator_types_through_term_to_json(monkeypatch):
    """The nonempty opens' types are written off the cube table.

    Only the generator types and the empty open's Bottom reach
    `lattice.term_to_json`; the document equals the one rendered term by
    term, and a Top type is still written as ``{"top": true}``.
    """
    data = ingest.CommunityDataset((("main", tuple(f"r{i}" for i in range(1, 8))),))
    sp = ingest.build_community(data)
    rendered, to_json = [], lattice.term_to_json
    monkeypatch.setattr(lattice, "term_to_json", lambda t: rendered.append(t) or to_json(t))
    doc = space_to_json(sp)
    assert rendered == [sp.sigma[0], *(g.type_term for g in sp.generators)]
    assert doc["opens"] == [
        {"set": list(ids), "type": to_json(sp.sigma[m])}
        for ids, m in sorted((sp.ids_of(m), m) for m in sp.opens)
    ]
    ctx = Context(Poset({"g"}), ("x", "y"))
    topped = TypedSpace(ctx, frozenset({0, 1, 3}), {0: ctx.bottom(), 1: ctx.top(), 3: ctx.top()}, ())
    assert [o["type"] for o in space_to_json(topped)["opens"]] == [{"clauses": []}, *[{"top": True}] * 2]


def test_built_loaded_and_repaired_spaces_carry_the_verdict(street5):
    tied = space_from_json(space_to_json(_degenerate_space()))
    spaces = [
        generate_topology(street5.ctx, street5.generators),
        space_from_json(space_to_json(street5)),
        strictify(_degenerate_space()),
        tied,
    ]
    for sp in spaces:
        assert sp.index.strict_report is not None
        assert sp.index.strict_report == space._order_scan(sp)[1]  # the exhaustive scan
    assert tied.index.strict_report.witness == (("x",), ("x", "y"))


def test_strictify_cannot_fix_top_level_tie():
    poset = Poset({"g"})
    pts = ("x", "y")
    ctx = Context(poset, pts)
    g = parse_type_expr("g", ctx)
    sigma = {0: ctx.bottom(), 1: g, 3: g}
    sp = TypedSpace(ctx, frozenset(sigma), sigma, ())
    assert not is_strictly_typed(sp).strict
    with pytest.raises(SpaceValidationError):
        strictify(sp)


def test_realized_types_counts(genealogy5):
    rt = realized_types(genealogy5)
    assert len(rt) == len(genealogy5.opens) - 1 == 31


def test_realized_types_singleton_space():
    poset = Poset({"anc"})
    pts = ("x",)
    ctx = Context(poset, pts)
    sp = generate_topology(ctx, [GeneratorSpec("g", frozenset(pts), parse_type_expr("anc", ctx))])
    assert len(realized_types(sp)) == 1


def test_loading_and_indexing_a_space_decodes_no_clause(monkeypatch):
    """Loading reads JSON types into cubes; sorting and generator sets read bits."""
    decoded = []
    decode = lattice._Code.decode
    monkeypatch.setattr(
        lattice._Code, "decode", lambda code, cube: decoded.append(cube) or decode(code, cube)
    )
    sp = space.load_space(FIXTURES / "street2x3.json")
    rt = realized_types(sp)
    assert len(rt) == 63 and rt.generators[0]
    assert decoded == []


def _row_bits(row: int, n: int) -> list:
    """The first ``n`` bits of an int row, after checking no higher bit is set."""
    assert row >> n == 0
    return [bool(row >> j & 1) for j in range(n)]


def _sample_spaces(seed: int, fixtures) -> list:
    """The fixtures, then random generated spaces, 10 in all."""
    rng = random.Random(seed)
    spaces = list(fixtures)
    while len(spaces) < 10:
        sp = random_generated_space(rng, max_points=6)
        if sp is not None:
            spaces.append(sp)
    return spaces


def test_order_rows_of_realized_levels_match_leq(genealogy5, street5, street2x3):
    """``up``, `down` and `RealizedTypes.rows` of each realized type against `lattice.leq`."""
    for sp in _sample_spaces(4, (genealogy5, street5, street2x3)):
        rt = realized_types(sp)
        for i, a in enumerate(rt.terms):
            above = [lattice.leq(a, b) for b in rt.terms]
            below = [lattice.leq(b, a) for b in rt.terms]
            assert _row_bits(rt.up[i], len(rt)) == _row_bits(rt.rows(a)[0], len(rt)) == above
            assert _row_bits(rt.down[i], len(rt)) == _row_bits(rt.rows(a)[1], len(rt)) == below


def test_order_rows_of_chain_levels_match_leq(
    genealogy5, street5, street2x3, c_anc5, c_right5, c_right6
):
    assert not set(c_right5.levels) & set(realized_types(street5).terms)
    for sp, chain in ((street5, c_right5), (genealogy5, c_anc5), (street2x3, c_right6)):
        rt = realized_types(sp)
        for level in chain.levels:
            above, below = rt.rows(level)
            assert _row_bits(above, len(rt)) == [lattice.leq(level, t) for t in rt.terms]
            assert _row_bits(below, len(rt)) == [lattice.leq(t, level) for t in rt.terms]


def _random_level(rng: random.Random, sp: TypedSpace, ctx: Context) -> lattice.TypeTerm:
    """A meet or join of up to three atoms parsed in ``ctx``: realized types,
    generators and point literals of ``sp``, BOT and TOP."""
    atoms = [format_term(t) for t in realized_types(sp).terms] + sorted(sp.poset.elements)
    atoms += [f"{sign}@{x}" for x in sp.points for sign in ("", "~")] + ["BOT", "TOP"]
    level = parse_type_expr(rng.choice(atoms), ctx)
    for _ in range(rng.randrange(3)):
        step = lattice.meet if rng.random() < 0.5 else lattice.join
        level = step(level, parse_type_expr(rng.choice(atoms), ctx))
    return level


def test_rows_of_random_levels_match_leq(genealogy5, street5, street2x3):
    """The one scan of `RealizedTypes.rows` against `lattice.leq`, both directions.

    Levels are BOT, TOP and random meets and joins, many with cubes off
    the space's cube table, half of them parsed in an equal but distinct
    context.
    """
    rng = random.Random(12)
    off_table = 0
    for sp in _sample_spaces(12, (genealogy5, street5, street2x3)):
        sp = dataclasses.replace(sp)
        rt = realized_types(sp)
        twin = Context(sp.poset, sp.points)
        levels = [sp.ctx.bottom(), sp.ctx.top(), twin.bottom(), twin.top()]
        levels += [_random_level(rng, sp, rng.choice((sp.ctx, twin))) for _ in range(16)]
        for level in levels:
            off_table += not level.cubes <= set(rt.cubes)
            above, below = rt.rows(level)
            assert _row_bits(above, len(rt)) == [lattice.leq(level, t) for t in rt.terms]
            assert _row_bits(below, len(rt)) == [lattice.leq(t, level) for t in rt.terms]
    assert off_table >= 60


def test_order_rows_are_memoized_by_term_value(street5, c_right5):
    rt = realized_types(street5)
    for level in c_right5.levels + rt.terms[:3]:
        again = parse_type_expr(format_term(level), street5.ctx)
        assert again is not level
        assert rt.rows(again) is rt.rows(level)


@pytest.mark.parametrize("name", ["genealogy5", "street5", "street2x3"])
def test_every_open_type_of_a_fixture_parses_back_from_its_text(name):
    sp = space.load_space(FIXTURES / f"{name}.json")
    assert len(sp.sigma) == len(sp.opens) > 1
    for t in sp.sigma.values():
        assert parse_type_expr(format_term(t), sp.ctx) == t


def test_realized_types_sort_by_term_sort_key(genealogy5, street5, street2x3, no_least_base3):
    """Order, opens and rows of the realized types against a sort of their terms.

    The reference sorts the distinct terms by `TypeTerm.sort_key` and
    reads each row off the terms' cubes by name: ``holders`` by membership,
    ``up``, ``reach`` and each open's cover row by the cube implication
    test, ``generators`` and ``cube_generators`` by the generator names.
    The cube table itself is in rendered key order. The last spaces are the
    fixture without least base members, and one that types three opens
    alike that its set of masks holds out of ascending order.
    """
    pts = tuple(f"p{i}" for i in range(10))
    ctx = Context(Poset({"g", "h"}), pts)
    apart = generate_topology(ctx, [
        GeneratorSpec("a", frozenset({"p9"}), parse_type_expr("g", ctx)),
        GeneratorSpec("b", frozenset({"p1"}), parse_type_expr("g", ctx)),
        GeneratorSpec("c", frozenset(pts), parse_type_expr("g | h", ctx)),
    ])
    assert list(apart.opens) != sorted(apart.opens)
    for sp in _sample_spaces(5, (genealogy5, street5, street2x3)) + [no_least_base3, apart]:
        sp = dataclasses.replace(sp)
        rt = realized_types(sp)
        terms = sorted({sp.sigma[m] for m in sp.opens if m}, key=lattice.TypeTerm.sort_key)
        assert rt.terms == tuple(terms)
        assert rt.opens_by_type == tuple(
            tuple(sorted(m for m in sp.opens if m and sp.sigma[m] == t)) for t in terms)
        cubes = list(sp.index.cubes[0])
        render = sp.ctx._code.render
        assert cubes == sorted(set().union(*(t.cubes for t in terms)), key=lambda c: render(c)[0])

        def implies(c, d):
            return all(x & y == y for x, y in zip(c, d))

        assert rt.cubes == tuple(cubes)
        assert rt.holders == tuple(sum(1 << j for j, t in enumerate(terms) if c in t.cubes)
                                   for c in cubes)
        assert rt.up == tuple(sum(1 << j for j, t in enumerate(terms)
                                  if all(any(implies(c, d) for d in t.cubes) for c in s.cubes))
                              for s in terms)
        assert rt.generators == tuple(rt.generator_bits(t.generators()) for t in terms)
        assert rt.reach == tuple(sum(1 << j for j, t in enumerate(terms)
                                     if any(implies(c, d) for d in t.cubes)) for c in cubes)
        decode = sp.ctx._code.decode
        assert rt.cube_generators == tuple(rt.generator_bits(decode(c).gens) for c in cubes)
        _, types, covers = sp.index.cubes
        assert types.keys() == covers.keys() == {m for m in sp.opens if m}
        for m, row in covers.items():
            own = sp.sigma[m].cubes
            assert types[m] == sum(1 << i for i, c in enumerate(cubes) if c in own)
            assert row == sum(1 << i for i, c in enumerate(cubes)
                              if any(implies(c, d) for d in own))


def _least_by_scan(sp: TypedSpace):
    """`space._minimal_neighborhoods` by one test per (open, point) pair."""
    opens, full = sp.opens, sp.full_mask
    if 0 not in opens or full not in opens or any(m not in sp.sigma for m in opens):
        return None
    least = []
    for i in range(len(sp.points)):
        u = full
        for o in opens:
            if o >> i & 1:
                u &= o
        least.append(u)
    return frozenset(least) if set(least) <= opens else None


def test_least_neighborhoods_match_the_pair_scan(genealogy5, street5, street2x3):
    """Topologies, and families missing an open, a type, or a least neighborhood."""
    rng = random.Random(9)
    found = Counter()
    for sp in _sample_spaces(8, (genealogy5, street5, street2x3)):
        probes = [sp] + [_perturbed(rng, sp) for _ in range(6)]
        least = _least_by_scan(sp)
        for u in sorted(least):  # a family without one U_x but with every other open
            probes.append(TypedSpace(sp.ctx, sp.opens - {u}, sp.sigma, sp.generators))
        extra = rng.randrange(1, sp.full_mask)  # an open that may break the intersections
        probes.append(TypedSpace(sp.ctx, sp.opens | {extra}, {**sp.sigma, extra: sp.sigma[
            sp.full_mask]}, sp.generators))
        for probe in probes:
            want = _least_by_scan(probe)
            assert space._minimal_neighborhoods(probe) == want
            found[want is None] += 1
    assert found[True] >= 40 and found[False] >= 40


def test_visible_rows_match_the_generator_sets(genealogy5, street5, street2x3, no_least_base3):
    """The generator-bitset row against the named test, for every support."""
    for sp in _sample_spaces(6, (genealogy5, street5, street2x3)) + [no_least_base3]:
        rt = realized_types(dataclasses.replace(sp))
        gens = sorted(sp.poset.elements)
        for k in range(len(gens) + 1):
            for support in map(frozenset, itertools.combinations(gens, k)):
                assert _row_bits(rt.visible(rt.generator_bits(support)), len(rt)) == [
                    support.issuperset(t.generators()) for t in rt.terms
                ]


def test_order_rows_of_a_foreign_level_fail_loudly(street5, c_right5):
    """A level from an unequal context raises; an equal context reads the same rows."""
    rt = realized_types(dataclasses.replace(street5))
    foreign = Context(street5.poset, street5.points + ("r6",))
    for text in (format_term(rt.terms[0]), "right"):
        with pytest.raises(ContextMismatchError):
            rt.rows(parse_type_expr(text, foreign))
    twin = Context(street5.poset, street5.points)
    assert twin is not street5.ctx
    for level in c_right5.levels + rt.terms[:3]:
        again = parse_type_expr(format_term(level), twin)
        assert rt.rows(again) == rt.rows(level)


def test_incompatible_types_never_share_a_point(genealogy5):
    rt = realized_types(genealogy5)
    for i in range(len(rt)):
        for j in range(i + 1, len(rt)):
            if not lattice.meet(rt.terms[i], rt.terms[j]).is_bottom:
                continue
            for u in rt.opens_by_type[i]:
                for v in rt.opens_by_type[j]:
                    assert u & v == 0


def test_space_json_round_trip(genealogy5, street2x3):
    for sp in (genealogy5, street2x3):
        doc = space_to_json(sp)
        again = space_from_json(json.loads(json.dumps(doc)))
        assert space_to_json(again) == doc


def test_space_json_rejects_duplicate_open(street5):
    doc = space_to_json(street5)
    doc["opens"].append(doc["opens"][-1])
    with pytest.raises(SpaceValidationError):
        space_from_json(doc)


def test_induced_types_are_minimal_extension():
    """The induced mapping sits below every qualifying monotone extension."""
    rng = random.Random(11)
    checked = 0
    attempts = 0
    while checked < 3 and attempts < 200:
        attempts += 1
        poset = Poset({"g", "h"})
        pts = ("x", "y", "z")
        ctx = Context(poset, pts)
        specs = []
        for k in range(2):
            members = frozenset(rng.sample(pts, rng.randint(1, 3)))
            term = normalize(
                ctx, [clause_of(gens=[rng.choice(["g", "h"])], pos=[])]
            )
            specs.append(GeneratorSpec(f"s{k}", members, term))
        try:
            sp = generate_topology(ctx, specs)
        except SpaceValidationError:
            continue
        opens = [m for m in sorted(sp.opens) if m]
        if len(opens) > 5:
            continue
        checked += 1
        gen_masks = [sp.mask_of(s.members) for s in specs]
        pool = []
        for picks in itertools.product([0, 1], repeat=len(specs)):
            chosen = [i for i, b in enumerate(picks) if b]
            if not chosen:
                continue
            inter = sp.full_mask
            for i in chosen:
                inter &= gen_masks[i]
            if inter:
                pool.append(functools.reduce(lattice.meet, [specs[i].type_term for i in chosen]))
        values = []
        for sub in itertools.product([0, 1], repeat=len(pool)):
            values.append(
                lattice.join_all(ctx, [t for t, b in zip(pool, sub) if b])
            )
        distinct = {t.sort_key(): t for t in values}
        candidates = list(distinct.values())
        for assignment in itertools.product(candidates, repeat=len(opens)):
            sigma = dict(zip(opens, assignment))
            ok = True
            for u in opens:
                for v in opens:
                    if (u & v) == u and not lattice.leq(sigma[u], sigma[v]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                for i, gm in enumerate(gen_masks):
                    if not lattice.leq(specs[i].type_term, sigma[gm]):
                        ok = False
                        break
            if ok:
                for u in opens:
                    assert lattice.leq(sp.sigma[u], sigma[u])
    assert checked == 3
