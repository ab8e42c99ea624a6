import dataclasses
import itertools
import random
import time
from typing import Optional

import pytest

from conftest import chain_support, random_generated_space
from typedtopo import basis, chains, closure, connect, lattice, oracle, space
from typedtopo.chains import TypeChain
from typedtopo.errors import OracleSkip, PreconditionError
from typedtopo.oracle import check_space, exhaustive_connected, exhaustive_min_dense
from typedtopo.space import TypedSpace, realized_types


def test_exhaustive_min_dense_street5(street5, c_right5):
    size, witnesses = exhaustive_min_dense(street5, c_right5)
    assert size == 2
    assert witnesses == (("r1", "r5"),)


def test_exhaustive_min_dense_terminates_with_full_set(street2x3, c_right6):
    size, witnesses = exhaustive_min_dense(street2x3, c_right6)
    assert size <= len(street2x3.points)
    for w in witnesses:
        assert closure.is_chain_dense(street2x3, set(w), street2x3.points, c_right6)


def test_exhaustive_min_dense_agrees_with_formula(
    street5, c_right5, genealogy5, c_anc5, street2x3, c_right6
):
    for sp, ch in ((street5, c_right5), (genealogy5, c_anc5), (street2x3, c_right6)):
        rep = closure.min_chain_dense(sp, ch)
        size, _ = exhaustive_min_dense(sp, ch)
        assert rep.density == size


def _dense_by_points(sp, chain) -> tuple:
    """The smallest dense size and its witnesses over all 2^n subsets, point by point.

    A subset is dense when it holds every point in no base member and, for
    each supported point, meets every base member through that point.
    """
    pool = chains.chain_base_pool(sp, chain)
    fams = [[m for m in pool if m >> i & 1] for i in range(len(sp.points))]
    dense: dict = {}
    for mask in range(1 << len(sp.points)):
        if all(all(m & mask for m in fam) if fam else mask >> i & 1 for i, fam in enumerate(fams)):
            dense.setdefault(mask.bit_count(), []).append(sp.ids_of(mask))
    size = min(dense)
    return size, tuple(sorted(dense[size]))


def test_exhaustive_min_dense_matches_the_search_over_every_subset(
    genealogy5, street5, street2x3, no_least_base3, tree9
):
    """The search over the free points agrees with the one over all subsets.

    On every cover chain of the fixtures, TREE9 and the strict random
    7-point spaces of seeds 0 to 39; the no-least-base fixture is the case
    where the density formula and the definition part.
    """
    spaces = [genealogy5, street5, street2x3, no_least_base3, tree9]
    spaces += filter(None, (random_generated_space(random.Random(s), 7) for s in range(40)))
    forced = checked = 0
    for sp in spaces:
        for chain in chains.chain_cover(sp).chains:
            want = _dense_by_points(sp, chain)
            assert exhaustive_min_dense(sp, chain) == want
            forced += any(not any(m >> i & 1 for m in chains.chain_base_pool(sp, chain))
                          for i in range(len(sp.points)))
            checked += 1
    assert len(spaces) >= 20 and checked >= 90 and forced >= 60


def test_dense_witnesses_and_certificates_pass_their_definitions(
    genealogy5, street5, street2x3, no_least_base3, tree9
):
    """The checks that `closure`, `connect` and `chain_cover` no longer make in line.

    On every cover chain of the fixtures, TREE9 and the strict random
    7-point spaces of seeds 0 to 39:

    - the cover holds each realized type once, padding aside;
    - each `min_chain_dense` size is the exhaustive search's, and its
      witness has that many points and is dense by `closure.is_chain_dense`;
    - `find_connection` finds a certificate for a pair of points iff
      `exhaustive_connected` answers True, over every pair, negatives
      included; the certificate holds both points, `is_chain_connected`
      accepts it, and no supported point outside it extends it to a
      connected set.
    """
    spaces = [genealogy5, street5, street2x3, no_least_base3, tree9]
    spaces += filter(None, (random_generated_space(random.Random(s), 7) for s in range(40)))
    densities = certificates = negatives = 0
    for sp in spaces:
        rt = realized_types(sp)
        cover = chains.chain_cover(sp).chains
        held = [rt.terms.index(t) for ch in cover for t in dict.fromkeys(ch.levels)]
        assert sorted(held) == list(range(len(rt)))
        for chain in cover:
            report = closure.min_chain_dense(sp, chain)
            assert report.density == exhaustive_min_dense(sp, chain)[0]
            assert len(report.witness) == report.density
            assert closure.is_chain_dense(sp, report.witness, sp.points, chain)
            densities += 1
            supported = set().union(*map(sp.ids_of, chains.chain_pool(sp, chain)))
            for x, y in itertools.combinations(sp.points, 2):
                cert = connect.find_connection(sp, x, y, chain)
                assert (cert is not None) == exhaustive_connected(sp, chain, x, y)
                if cert is None:
                    negatives += 1
                    continue
                assert {x, y} <= set(cert)
                assert connect.is_chain_connected(sp, cert, chain)[0]
                assert not [p for p in supported - set(cert)
                            if connect.is_chain_connected(sp, {*cert, p}, chain)[0]]
                certificates += 1
    assert len(spaces) >= 20 and densities >= 90
    assert certificates >= 800 and negatives >= 700


def test_exhaustive_connected_examples(street5, c_right5, street2x3, c_right6):
    assert not exhaustive_connected(street2x3, c_right6, "a2", "b2")
    assert exhaustive_connected(street5, c_right5, "r2", "r4")
    # points sharing one connected pool member are connected outright
    assert exhaustive_connected(street2x3, c_right6, "a2", "a3")


def test_exhaustive_connected_unsupported_point_is_disconnected(street5, c_right5):
    assert not exhaustive_connected(street5, c_right5, "r1", "r2")


def test_exhaustive_connected_searches_supersets_of_the_two_points():
    """``{x, y}`` alone is split by the pool members ``{x}`` and ``{y}``, but ``{x, y, z}`` is not.

    No two disjoint pool members cover ``z`` too, so the search answers
    True only once it tries a superset of the two points, as the
    certificate of `connect.find_connection` says.
    """
    ctx = lattice.Context(lattice.Poset({"g"}), ("x", "y", "z"))
    typed = {1: "g & @x", 2: "g & @y", 3: "g & @x | g & @y", 7: "g"}
    sigma = {0: ctx.bottom(), **{m: lattice.parse_type_expr(t, ctx) for m, t in typed.items()}}
    sp = TypedSpace(ctx, frozenset(sigma), sigma, ())
    assert space.validate_type_mapping(sp).ok and space.is_strictly_typed(sp).strict
    chain = chains.parse_chain("g & @x & @y ; g", ctx)
    ok, witness = connect.is_chain_connected(sp, {"x", "y"}, chain)
    assert not ok and {witness.left, witness.right} == {("x",), ("y",)}
    assert connect.find_connection(sp, "x", "y", chain) == ("x", "y", "z")
    assert exhaustive_connected(sp, chain, "x", "y")


def test_exhaustive_connected_refuses_one_point_twice(street5, c_right5):
    """The domain of `connect.find_connection`: a supported point is no connection to itself."""
    with pytest.raises(PreconditionError, match="a connection needs two distinct points"):
        exhaustive_connected(street5, c_right5, "r3", "r3")


def test_budget_skips(street5, c_right5):
    with pytest.raises(OracleSkip):
        exhaustive_min_dense(street5, c_right5, max_points=3)
    with pytest.raises(OracleSkip):
        exhaustive_connected(street5, c_right5, "r2", "r4", max_points=3)
    with pytest.raises(OracleSkip, match="budgets must be positive"):
        exhaustive_min_dense(street5, c_right5, max_points=0)
    with pytest.raises(OracleSkip, match="budgets must be positive"):
        exhaustive_connected(street5, c_right5, "r2", "r4", max_points=-1)


def test_check_space_replays_meet_and_join_bounds(genealogy5, monkeypatch):
    """Validation leaves the bounds out; the type-mapping check re-derives them."""
    g = genealogy5
    sigma = dict(g.sigma)
    sigma[g.full_mask] = g.sigma[g.mask_of(["C"])]
    broken = TypedSpace(g.ctx, g.opens, sigma, g.generators)
    monkeypatch.setattr(
        space, "validate_type_mapping", lambda sp: space.ValidationReport(True, ())
    )
    rep = check_space(broken)
    assert [r.name for r in rep.results] == ["type-mapping", "strictly-typed"]
    codes = {c[0] for c in rep.results[0].counterexamples}
    assert codes and codes <= {"meet-bound", "join-bound"}


def _reference_bounds(sp: TypedSpace) -> oracle.CheckResult:
    """The type-mapping result by one meet and one join per open pair.

    Kept as the slow twin of `oracle._bounds`, which decides each bound as
    two order facts about nested opens and meets no pair.
    """
    sig, ids = sp.sigma, sp.ids_of
    bad = [(f.code,) + tuple(f.witness) for f in space.validate_type_mapping(sp).failures]
    opens = sorted(m for m in sp.opens if m in sig)
    for i, u in enumerate(opens):
        for v in opens[i:]:
            if (u & v) in sig and not lattice.leq(sig[u & v], lattice.meet(sig[u], sig[v])):
                bad.append(("meet-bound", ids(u), ids(v)))
            if (u | v) in sig and not lattice.leq(lattice.join(sig[u], sig[v]), sig[u | v]):
                bad.append(("join-bound", ids(u), ids(v)))
    n = len(opens)
    return oracle.CheckResult(
        "type-mapping", f"{n * (n + 1) // 2} open pairs U <= V", not bad, tuple(bad[:5])
    )


def _retyped(sp: TypedSpace, rng: random.Random):
    """Copies of ``sp`` with types swapped, set to Bottom, or met with another's."""
    opens = sp.nonempty_opens()
    for _ in range(2 if len(opens) > 1 else 0):
        u, v = rng.sample(opens, 2)
        for change in ({u: sp.sigma[v], v: sp.sigma[u]}, {u: sp.ctx.bottom()},
                       {u: lattice.meet(sp.sigma[u], sp.sigma[v])}):
            yield TypedSpace(sp.ctx, sp.opens, {**sp.sigma, **change}, sp.generators)


def test_bounds_match_the_meet_and_join_per_pair_reference(
    monkeypatch, genealogy5, street5, street2x3
):
    """The nested-pair memo gives the per-pair meet and join loop's result.

    Validation is made to pass on the retyped copies, so their bounds fail,
    and strictness to fail, so the replay stops after the type-mapping check.
    """
    rng = random.Random(0)
    spaces = [genealogy5, street5, street2x3]
    spaces += [sp for sp in (random_generated_space(rng, 6) for _ in range(60)) if sp][:20]

    def compare(sp: TypedSpace) -> bool:
        want = _reference_bounds(sp)
        assert check_space(dataclasses.replace(sp)).results[0] == want
        return want.passed

    assert len(spaces) == 23 and all(compare(sp) for sp in spaces)
    monkeypatch.setattr(
        space, "validate_type_mapping", lambda sp: space.ValidationReport(True, ())
    )
    monkeypatch.setattr(space, "is_strictly_typed", lambda sp: space.StrictnessReport(False))
    copies = [b for sp in spaces if sp is not street2x3 for b in _retyped(sp, rng)]
    passed = [compare(b) for b in copies]
    assert len(copies) > 100 and passed.count(False) > len(copies) // 2


def test_validation_rejects_overlapping_opens_whose_types_meet_at_bottom(
    genealogy5, street5
):
    """Two opens sharing a point never have types that meet at Bottom.

    Their intersection is a nonempty open typed at or below both, so at or
    below Bottom: monotonicity and ``bottom-off-empty`` reject it. So the
    replay runs no such check after validation, and this test keeps the
    statement in force on retyped copies of the fixtures and random spaces.
    """
    rng = random.Random(1)
    spaces = [genealogy5, street5]
    spaces += [sp for sp in (random_generated_space(rng, 6) for _ in range(30)) if sp]
    forcing = 0
    for sp in spaces:
        for b in _retyped(sp, rng):
            if any(u & v and lattice.meet(b.sigma[u], b.sigma[v]).is_bottom
                   for u, v in itertools.combinations(b.nonempty_opens(), 2)):
                forcing += 1
                assert not space.validate_type_mapping(b).ok
    assert forcing > 0


def test_check_space_names_the_meet_bound_of_an_unnested_pair(genealogy5, monkeypatch):
    """Lowering sigma(CHSW) to sigma(CHW) makes the meet bound name an unnested pair.

    On (BS, CHSW), sigma(BS & CHSW) = sigma(S) is at or below sigma(BS) but
    no longer below sigma(CHSW). The exact counterexamples catch a memo that
    answers one of the two order facts for the other, or decides one in the
    wrong direction.
    """
    g = genealogy5
    broken = _lower_chsw_to_chw(g, monkeypatch)
    sigma = broken.sigma
    assert lattice.leq(sigma[g.mask_of("S")], sigma[g.mask_of("BS")])
    assert not lattice.leq(sigma[g.mask_of("S")], sigma[g.mask_of("CHSW")])
    result = check_space(broken).results[0]
    assert result.counterexamples == (
        ("join-bound", ("S",), ("C", "H", "W")),
        ("meet-bound", ("S",), ("C", "H", "S", "W")),
        ("join-bound", ("S",), ("C", "H", "S", "W")),
        ("meet-bound", ("B", "S"), ("C", "H", "S", "W")),
        ("join-bound", ("H",), ("C", "S", "W")),
    )
    assert result == _reference_bounds(broken)


def test_check_space_green_on_fixtures(genealogy5, street5):
    for sp in (genealogy5, street5):
        rep = check_space(sp)
        assert rep.ok, [r for r in rep.results if not r.passed]


def test_check_space_pinpoints_corruption(genealogy5):
    g = genealogy5
    target = g.mask_of(["C"])
    sigma = dict(g.sigma)
    sigma[target] = g.sigma[g.mask_of(["C", "W"])]
    broken = TypedSpace(g.ctx, g.opens, sigma, g.generators)
    rep = check_space(broken)
    assert not rep.ok
    failed = [r for r in rep.results if not r.passed]
    assert failed
    witnesses = [w for r in failed for w in r.counterexamples]
    assert any(("C",) in w for w in witnesses)


def test_check_report_shape(street5):
    rep = check_space(street5)
    names = [r.name for r in rep.results]
    assert names == [
        "type-mapping",
        "strictly-typed",
        "self-irreducible",
        "anchored-decomposition",
        "neighborhood-base",
        "pure-family-base",
        "closure-core",
        "base-connectivity",
        "anchored-connectivity",
        "pure-family-connectivity",
    ]
    for r in rep.results:
        assert r.scope


def _lower_chsw_to_chw(g: TypedSpace, monkeypatch) -> TypedSpace:
    """The meet-bound corruption, with validation made to pass."""
    monkeypatch.setattr(
        space, "validate_type_mapping", lambda sp: space.ValidationReport(True, ())
    )
    sigma = {**g.sigma, g.mask_of("CHSW"): g.sigma[g.mask_of("CHW")]}
    return TypedSpace(g.ctx, g.opens, sigma, g.generators)


def _tie_c_to_cw(g: TypedSpace, monkeypatch) -> TypedSpace:
    """The strictness corruption: sigma(C) raised to sigma(CW)."""
    sigma = {**g.sigma, g.mask_of("C"): g.sigma[g.mask_of("CW")]}
    return TypedSpace(g.ctx, g.opens, sigma, g.generators)


def _drop_an_irreducible(g: TypedSpace, monkeypatch) -> TypedSpace:
    """Each row's smallest member, always irreducible, dropped where it is decided.

    `basis.irreducibles` memoizes each member's decision, so `basis`,
    `chains` and the oracle all read the dropped member.
    """
    decide = basis._irreducible
    monkeypatch.setattr(basis, "_irreducible",
                        lambda order, mask: mask != order[0] and decide(order, mask))
    return g


def _corrupt_bases(monkeypatch, corrupt) -> None:
    """Every chain base row passed through ``corrupt`` where all of them are read."""
    pools_and_bases = chains._pools_and_bases

    def corrupted(sp, keys):
        for pool, base in pools_and_bases(sp, keys):
            yield pool, base if base is None else corrupt(sp, base)

    monkeypatch.setattr(chains, "_pools_and_bases", corrupted)


def _drop_a_base_member(g: TypedSpace, monkeypatch) -> TypedSpace:
    """Each chain base's smallest member dropped."""
    _corrupt_bases(monkeypatch, _drop_smallest)
    return g


def _pool_every_open(g: TypedSpace, monkeypatch) -> TypedSpace:
    """Every nonempty open's bit added to each chain pool row where all of them are read."""
    pools_and_bases = chains._pools_and_bases

    def corrupted(sp, keys):
        every = (1 << len(realized_types(sp).open_masks)) - 1
        return ((every, base) for _, base in pools_and_bases(sp, keys))

    monkeypatch.setattr(chains, "_pools_and_bases", corrupted)
    return g


# one case per check of `check_space` that makes it fail on GENEALOGY5
FAILING_CASES = {
    "type-mapping": _lower_chsw_to_chw,
    "strictly-typed": _tie_c_to_cw,
    "self-irreducible": _drop_an_irreducible,
    "anchored-decomposition": _drop_an_irreducible,
    "neighborhood-base": _drop_a_base_member,
    "pure-family-base": _drop_a_base_member,
    "closure-core": _drop_a_base_member,
    "base-connectivity": _pool_every_open,
    "anchored-connectivity": _pool_every_open,
    "pure-family-connectivity": _pool_every_open,
}


@pytest.mark.parametrize("name", FAILING_CASES)
def test_every_check_can_fail(monkeypatch, genealogy5, street5, name):
    """A check that no corruption can make fail tests nothing.

    The table names every check `check_space` emits, so a new check needs
    a case here.
    """
    assert list(FAILING_CASES) == [r.name for r in check_space(street5).results]
    broken = FAILING_CASES[name](dataclasses.replace(genealogy5), monkeypatch)
    result = {r.name: r for r in check_space(broken).results}[name]
    assert not result.passed and result.counterexamples


def _realized_levels(rt) -> list:
    """Ascending index tuples of length 2, then 3, from a per-pair `lattice.leq` table."""
    usable = [i for i, t in enumerate(rt.terms) if not (t.is_bottom or t.is_top)]
    le = [[lattice.leq(a, b) for b in rt.terms] for a in rt.terms]
    return [
        (i, j) for i in usable for j in usable if le[i][j]
    ] + [
        (i, j, k) for i in usable for j in usable if le[i][j]
        for k in usable if le[j][k]
    ]


def test_realized_chains_read_no_level_term(monkeypatch, street5):
    """Chains come in the order of the per-pair `leq` scan, read by index alone.

    Building the realized types with their ``up`` rows, then counting and
    listing the chains, reads no order row through `RealizedTypes.rows`
    and hashes no term.
    """
    sp = dataclasses.replace(street5)
    reference = _realized_levels(realized_types(dataclasses.replace(street5)))
    calls = []
    rows = space.RealizedTypes.rows
    monkeypatch.setattr(
        space.RealizedTypes, "rows", lambda self, level: calls.append("rows") or rows(self, level))
    term_hash = lattice.TypeTerm.__hash__
    monkeypatch.setattr(
        lattice.TypeTerm, "__hash__", lambda t: calls.append("hash") or term_hash(t))
    rt = realized_types(sp)
    assert len(rt.up) == len(rt) == 31
    assert oracle._chain_count(rt, oracle.MAX_CHAINS) == len(reference) == 992
    assert oracle._chain_levels(rt) == reference
    assert calls == []


def test_anchor_checks_read_realized_rows_by_index(monkeypatch, street5):
    """The self-irreducible and anchored-decomposition checks read ``rt.up``.

    Once the realized types are built, neither reaches an order row through
    `RealizedTypes.rows` nor decides a `lattice.leq`. Measured on STREET5:
    reaching each row through its type made 93 `rows` and 31 `leq` calls.
    """
    sp = dataclasses.replace(street5)
    space.is_strictly_typed(sp)
    rt = realized_types(sp)
    calls = []
    rows, leq = space.RealizedTypes.rows, lattice.leq
    monkeypatch.setattr(
        space.RealizedTypes, "rows", lambda self, level: calls.append("rows") or rows(self, level))
    monkeypatch.setattr(lattice, "leq", lambda a, b: calls.append("leq") or leq(a, b))
    results = [oracle._self_irreducible(sp, rt), oracle._anchored_decomposition(sp, rt)]
    assert all(r.passed for r in results)
    assert calls == []


@pytest.mark.parametrize("fixture", ["genealogy5", "street5", "street2x3"])
def test_check_space_builds_realized_types_once(request, monkeypatch, fixture):
    """The oracle, the chains and the bases all read the memo on ``space.index``."""
    init = space.RealizedTypes.__init__
    builds = []
    monkeypatch.setattr(space.RealizedTypes, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    assert check_space(dataclasses.replace(request.getfixturevalue(fixture))).ok
    assert len(builds) == 1


def _reference_chain_results(space: TypedSpace) -> list:
    """The per-check chain loops of `check_space`, one loop over every chain each.

    Kept as the slow twin of the one-pass mask algebra: each check fetches
    the pools again and walks points x pool x base.
    """
    results = []
    ids = space.ids_of
    rt = realized_types(space)
    chain_list = [TypeChain(tuple(rt.terms[i] for i in ix)) for ix in _realized_levels(rt)]

    # base property: every sandwiched neighborhood contains a base member
    bad = []
    for chain in chain_list:
        pool = chains.chain_pool(space, chain)
        base = chains.chain_base_pool(space, chain)
        for i, x in enumerate(space.points):
            bit = 1 << i
            for u in pool:
                if not (u & bit):
                    continue
                if not any((v & u) == v and (v & bit) for v in base):
                    bad.append((chain.text(), x, ids(u)))
    results.append(
        oracle.CheckResult(
            "neighborhood-base",
            f"{len(chain_list)} realized chains x {len(space.points)} points",
            not bad,
            tuple(bad[:5]),
        )
    )

    # closure core identity: every nonempty base family has a least member
    bad = []
    for chain in chain_list:
        base = chains.chain_base_pool(space, chain)
        for i, x in enumerate(space.points):
            fam = [m for m in base if m >> i & 1]
            if not fam:
                continue
            core = space.full_mask
            for m in fam:
                core &= m
            if core not in fam:
                bad.append((chain.text(), x))
    results.append(
        oracle.CheckResult(
            "closure-core",
            f"{len(chain_list)} realized chains x supported points",
            not bad,
            tuple(bad[:5]),
        )
    )

    # connectivity of irreducible base members and anchored family members
    bad_base, bad_anchor = [], []
    for chain in chain_list:
        pool = sorted(chains.chain_pool(space, chain))
        disjoint = [
            (u, v) for u, v in itertools.combinations(pool, 2) if not (u & v)
        ]

        def separated(mask: int) -> Optional[tuple]:
            for u, v in disjoint:
                if (mask & ~(u | v)) == 0 and (mask & u) and (mask & v):
                    return (ids(u), ids(v))
            return None

        visible = rt.visible(rt.generator_bits(chain_support(chain)))
        irr0 = sorted(rt.members(basis.irreducibles(space, visible & rt.rows(chain.levels[0])[0])))
        base = chains.chain_base_pool(space, chain)
        for m in irr0:
            w = separated(m)
            if w:
                bad_anchor.append((chain.text(), ids(m), w))
                if m in base:
                    bad_base.append((chain.text(), ids(m), w))
    results.append(
        oracle.CheckResult(
            "base-connectivity",
            f"{len(chain_list)} realized chains x first-level-irreducible base members",
            not bad_base,
            tuple(bad_base[:5]),
        )
    )
    results.append(
        oracle.CheckResult(
            "anchored-connectivity",
            f"{len(chain_list)} realized chains x first-level irreducibles",
            not bad_anchor,
            tuple(bad_anchor[:5]),
        )
    )
    return results


def _reference_pure_family_results(space: TypedSpace) -> list:
    """The pure-family checks of `check_space`, one point at a time.

    Kept as the slow twin of the per-generator families: the members of
    `chains.generator_family` through each point are walked in ascending
    mask order, and looked up in that point's `chains.chain_base`.
    """
    sig, ids = space.sigma, space.ids_of
    bad_base, bad_conn = [], []
    for gen in sorted(space.poset.elements):
        top = lattice.normalize(space.ctx, [lattice.clause_of(gens=[gen])])

        def chain_of(m: int) -> TypeChain:
            t = sig[m]
            return TypeChain((t, t)) if lattice.term_eq(t, top) else TypeChain((t, top))

        members = chains.generator_family(space, gen)
        for x in space.points:
            bit = space.point_bit(x)
            for m in sorted(m for m in members if m & bit):
                if m not in chains.chain_base(space, x, chain_of(m)):
                    bad_base.append((gen, x, ids(m)))
        for m in sorted(members):
            ok, w = connect.is_chain_connected(space, ids(m), chain_of(m))
            if not ok:
                bad_conn.append((gen, ids(m), (w.left, w.right)))
    return [
        oracle.CheckResult(
            "pure-family-base",
            "all generators x points x family members",
            not bad_base,
            tuple(bad_base[:5]),
        ),
        oracle.CheckResult(
            "pure-family-connectivity",
            "all generators x pure family members",
            not bad_conn,
            tuple(bad_conn[:5]),
        ),
    ]


def _reference_results(space: TypedSpace) -> list:
    return _reference_chain_results(space) + _reference_pure_family_results(space)


def _drop_smallest_bit(masks, row):
    """The row ``row`` without the bit of its smallest mask, bit ``k`` standing for ``masks[k]``."""
    return row & ~(1 << min(space.bit_indexes(row), key=masks.__getitem__)) if row else row


def _drop_smallest(sp, row):
    """The open row ``row`` without the bit of its smallest mask."""
    return _drop_smallest_bit(realized_types(sp).open_masks, row)


def _add_whole_set(sp, row):
    """The open row ``row`` with the whole point set's bit."""
    return row | 1 << realized_types(sp).open_masks.index(sp.full_mask)


@pytest.mark.parametrize("corrupt", [None, _drop_smallest, _add_whole_set])
@pytest.mark.parametrize("fixture", ["genealogy5", "street5", "street2x3"])
def test_one_pass_chain_checks_match_the_per_check_loops(
    request, monkeypatch, fixture, corrupt
):
    """Name, scope, verdict and counterexamples agree with the slow twins.

    A corrupted chain base (its smallest member dropped, or the whole point
    set added) makes the twins report failing counterexamples, not only
    passing verdicts; dropping a member fails the pure-family base check.
    The corruption is made in the one routine that reads every pool and
    base, so the index walk and the `TypeChain` route both see it.
    """
    sp = request.getfixturevalue(fixture)
    if corrupt is not None:
        _corrupt_bases(monkeypatch, corrupt)
    got = {r.name: r for r in check_space(dataclasses.replace(sp)).results}
    want = _reference_results(dataclasses.replace(sp))
    assert [got[r.name] for r in want] == want
    if corrupt is _drop_smallest:
        assert not got["pure-family-base"].passed


def _paired_chains(sp) -> tuple[int, int]:
    """How many realized chains have a pool with two disjoint members, of how many."""
    chain_list = oracle._chain_levels(realized_types(sp))
    members = realized_types(sp).members
    return sum(any(not u & v for u, v in itertools.combinations(members(pool), 2))
               for pool, _ in chains.realized_chain_pools(sp, chain_list)), len(chain_list)


def test_one_pass_chain_checks_match_on_random_spaces():
    """The twins agree on the random spaces, seeds 16 and 18 among them.

    Those two are the only ones whose replays meet chains with two disjoint
    pool members, 23 of 272 and 12 of 96 (the same under PYTHONHASHSEED 0,
    1 and 7), so the connectivity checks run on real pairs there.
    """
    compared, failing, paired = [], 0, {}
    for seed in range(40):
        sp = random_generated_space(random.Random(seed), 7)
        if sp is None:
            continue
        rep = check_space(dataclasses.replace(sp))
        if len(rep.results) == 2:  # not a strict typed space: no chain checks
            continue
        got = {r.name: r for r in rep.results}
        want = _reference_results(dataclasses.replace(sp))
        assert [got[r.name] for r in want] == want, seed
        compared.append(seed)
        failing += sum(not r.passed for r in want)
        pairs, total = _paired_chains(dataclasses.replace(sp))
        if pairs:
            paired[seed] = (pairs, total)
    assert len(compared) >= 15 and failing > 0 and {16, 18} <= set(compared)
    assert paired == {16: (23, 272), 18: (12, 96)}


def test_the_replay_expands_only_the_rows_of_chains_it_reports(monkeypatch, street5):
    """A chain's pool and base rows become masks only when it has a counterexample.

    A passing STREET5 replay expands no realized chain's rows. With each
    base's smallest member dropped, it expands the pool and base rows of
    exactly the chains its raw counterexamples name, once each.
    """
    expanded, reported = [], []
    expand, witnesses = oracle._expand, oracle._chain_witnesses
    monkeypatch.setattr(
        oracle, "_expand", lambda masks, row: expanded.append(row) or expand(masks, row))
    monkeypatch.setattr(oracle, "_chain_witnesses", lambda sp, rt, bad: (
        reported.extend(levels for levels, *_ in bad) or witnesses(sp, rt, bad)))
    assert check_space(dataclasses.replace(street5)).ok
    assert expanded == reported == []
    sp = _drop_a_base_member(dataclasses.replace(street5), monkeypatch)
    assert not check_space(sp).ok
    rows = chains.realized_chain_pools(sp, sorted(set(reported)))
    assert reported and sorted(expanded) == sorted(row for pair in rows for row in pair)


def test_a_pool_lists_its_disjoint_pairs_only_when_a_disjoint_row_shows_one(monkeypatch):
    """Three members meeting pairwise with no point in common expand nothing.

    No shipped fixture has a pool without a point in every member, so the
    `disjoint` rows are tested on four masks over four points.
    """
    masks = (0b0011, 0b0101, 0b0110, 0b1000)
    expanded = []
    expand = oracle._expand
    monkeypatch.setattr(
        oracle, "_expand", lambda masks, row: expanded.append(row) or expand(masks, row))
    through, _, disjoint = oracle._row_tables(masks, 4)
    assert oracle._disjoint_pairs(masks, through, disjoint, 0b0111) == [] and expanded == []
    assert oracle._disjoint_pairs(masks, through, disjoint, 0b1111) == [(3, 8), (5, 8), (6, 8)]
    assert oracle._disjoint_pairs(masks, through, disjoint, 0b1001) == [(3, 8)]


def test_check_space_fetches_each_chain_pool_and_base_once(monkeypatch, street5):
    """Realized chains walked by index, and the bounds decided without a meet or join.

    Measured on STREET5: 8 `TypeChain` constructions, one per pure-family
    member, with 8 `chain_base_pool` and 8 `chain_pool` calls; 992 realized
    chains read by index, in one `realized_chain_pools` call that yields a
    pool and base for each, where one call per chain made 992. Building a
    `TypeChain` for each realized chain made 1,000 constructions, 1,000
    `chain_base_pool` and 2,000 `chain_pool` calls.

    Of the 264 `lattice.leq` calls, the bounds make 243 on nested pairs, with
    no `lattice.meet` or `lattice.join`; a meet and a join per open pair made
    528 of each and 1,183 `leq` calls. Validation makes 5, one per step out
    of the empty set, where it made 80, one per step pair, before the cube
    table. The pure families make 16, one per family scan test and one per
    chain built. Reaching each anchor's row through its type added 31.

    The 32 `RealizedTypes.rows` calls read the two levels of each
    pure-family chain, once for its base and once for its pool; reaching
    each anchor's row through its type added 93. The (pool, base)
    computations are gated in
    `test_chains.test_check_space_scans_each_chain_pool_once`.
    """
    calls = {"chain_base_pool": 0, "chain_pool": 0, "realized_chain_pools": 0,
             "meet": 0, "join": 0, "leq": 0, "rows": 0}
    for mod, name in ((chains, "chain_base_pool"), (chains, "chain_pool"), (lattice, "meet"),
                      (lattice, "join"), (lattice, "leq"), (space.RealizedTypes, "rows")):
        def counted(*args, _f=getattr(mod, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(mod, name, counted)
    fetched = []
    fetch = chains.realized_chain_pools

    def fetch_counted(sp, chain_list):
        calls["realized_chain_pools"] += 1
        return map(lambda got: fetched.append(got) or got, fetch(sp, chain_list))

    monkeypatch.setattr(chains, "realized_chain_pools", fetch_counted)
    built = []
    post_init = TypeChain.__post_init__
    monkeypatch.setattr(
        TypeChain, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    assert check_space(dataclasses.replace(street5)).ok
    assert 0 < len(built) <= 8
    assert 0 < calls["chain_base_pool"] <= 8
    assert 0 < calls["chain_pool"] <= 8
    assert calls["realized_chain_pools"] == 1 and len(fetched) == 992
    assert calls["meet"] == 0
    assert calls["join"] == 0
    assert calls["leq"] <= 264
    assert calls["rows"] <= 32


def test_check_space_declares_its_chain_count_before_the_pair_loop(street10):
    """A 10-point street fails fast, naming the count and the budget.

    The count reads the order rows by index and stops once it passes
    `oracle.MAX_CHAINS`, before any pair loop runs.
    """
    start = time.perf_counter()
    with pytest.raises(OracleSkip) as err:
        check_space(dataclasses.replace(street10))
    assert time.perf_counter() - start < 1
    message = str(err.value)
    count = int(message.split()[2])
    assert count > oracle.MAX_CHAINS and f"budget of {oracle.MAX_CHAINS}" in message


def test_the_over_budget_skip_reads_the_up_rows_alone(monkeypatch, street10):
    """The skip builds no ``down`` row and reads ``up`` rows only until the budget.

    It reads the fewest leading rows whose chains pass `oracle.MAX_CHAINS`,
    each once. Measured on the 10-point street (1,023 realized types): 243
    rows, 11,780 bits in all, for the budget of 180,000 (176 rows and 6,876
    bits for 100,000). Counting from ``up`` and its transpose ``down`` read
    all 1,023 rows to build ``down`` first.
    """
    sp = dataclasses.replace(street10)
    rt = realized_types(sp)
    assert len(rt.up) == 1023
    sizes = [row.bit_count() for row in rt.up]
    needed = total = 0
    while total <= oracle.MAX_CHAINS:
        total += sizes[needed] + sum(sizes[j] for j in range(1023) if rt.up[needed] >> j & 1)
        needed += 1
    rows = []
    bit_indexes = space.bit_indexes
    monkeypatch.setattr(space, "bit_indexes", lambda row: rows.append(row) or bit_indexes(row))
    with pytest.raises(OracleSkip):
        check_space(sp)
    assert "down" not in vars(rt)
    assert rows == list(rt.up[:needed])
    assert (oracle.MAX_CHAINS, needed, sum(row.bit_count() for row in rows)) == (180_000, 243, 11780)


def test_check_space_reads_the_report_validation_recorded(monkeypatch, street5):
    """A load validates once; the replay reads the report and verdict it recorded.

    Loading a space and replaying its theorems walk the step pairs once, in
    the load. A copy starts with an empty index, so its replay validates it
    again, in one more walk, and records that report. A copy asked for its
    verdict before it is validated walks once too: the verdict is validation's.
    """
    walks = []
    steps_rise = space._steps_rise
    monkeypatch.setattr(space, "_steps_rise", lambda sp: walks.append(sp) or steps_rise(sp))
    sp = space.space_from_json(space.space_to_json(street5))
    assert check_space(sp).ok and walks == [sp]
    copy = dataclasses.replace(sp)
    assert check_space(copy).ok and walks == [sp, copy]
    assert space.validate_type_mapping(copy) is copy.index.report
    assert copy.index.report == sp.index.report and copy.index.report.ok
    asked = dataclasses.replace(sp)
    space.require_strict(asked)
    assert check_space(asked).ok and walks == [sp, copy, asked]
