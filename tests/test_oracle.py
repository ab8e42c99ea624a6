import dataclasses

import pytest

from typedtopo import chains, closure, connect, oracle, space
from typedtopo.errors import OracleSkip
from typedtopo.oracle import SearchBudget, check_space, exhaustive_connected, exhaustive_min_dense
from typedtopo.space import TypedSpace


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


def test_exhaustive_connected_examples(street5, c_right5, street2x3, c_right6):
    assert not exhaustive_connected(street2x3, c_right6, "a2", "b2")
    assert exhaustive_connected(street5, c_right5, "r2", "r4")
    # points sharing one connected pool member are connected outright
    assert exhaustive_connected(street2x3, c_right6, "a2", "a3")


def test_exhaustive_connected_unsupported_point_is_disconnected(street5, c_right5):
    assert not exhaustive_connected(street5, c_right5, "r1", "r2")


def test_budget_skips(street5, c_right5):
    with pytest.raises(OracleSkip):
        exhaustive_min_dense(street5, c_right5, SearchBudget(max_points=3))
    with pytest.raises(OracleSkip):
        exhaustive_connected(street5, c_right5, "r2", "r4", SearchBudget(max_points=3))
    with pytest.raises(OracleSkip):
        SearchBudget(max_points=0)


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


def test_check_space_green_on_fixtures(genealogy5, street5):
    for sp in (genealogy5, street5):
        rep = check_space(sp)
        assert rep.ok, rep.failed()


def test_check_space_pinpoints_corruption(genealogy5):
    g = genealogy5
    target = g.mask_of(["C"])
    sigma = dict(g.sigma)
    sigma[target] = g.sigma[g.mask_of(["C", "W"])]
    broken = TypedSpace(g.ctx, g.opens, sigma, g.generators)
    rep = check_space(broken)
    assert not rep.ok
    failed = rep.failed()
    assert failed
    witnesses = [w for r in failed for w in r.counterexamples]
    assert any(("C",) in w for w in witnesses)


def test_check_report_shape(street5):
    rep = check_space(street5)
    names = [r.name for r in rep.results]
    assert names == [
        "type-mapping",
        "strictly-typed",
        "incompatible-forcing",
        "self-irreducible",
        "anchored-decomposition",
        "neighborhood-base",
        "pure-family-base",
        "closure-core",
        "unsupported-region",
        "base-connectivity",
        "anchored-connectivity",
        "pure-family-connectivity",
    ]
    for r in rep.results:
        assert r.scope


def test_realized_chains_read_one_order_row_per_usable_level(monkeypatch, street5):
    """Chains come in the order of the per-pair `leq` scan, one row read per level.

    Measured on STREET2X3: the per-pair scan made 49,833 row lookups, one
    row read per level makes 63.
    """
    rt = space.realized_types(street5)
    usable = range(len(rt))  # a valid space realizes neither BOT nor TOP
    reference = [
        (i, j) for i in usable for j in usable if rt.leq(i, j)
    ] + [
        (i, j, k) for i in usable for j in usable if rt.leq(i, j)
        for k in usable if rt.leq(j, k)
    ]
    reads = []
    above = space.RealizedTypes.above
    monkeypatch.setattr(
        space.RealizedTypes, "above", lambda self, level: reads.append(level) or above(self, level)
    )
    got = list(oracle._realized_chains(street5))
    assert [c.levels for c in got] == [tuple(rt.terms[i] for i in ix) for ix in reference]
    assert 0 < len(reads) <= len(rt) == 31


@pytest.mark.parametrize("fixture", ["genealogy5", "street5", "street2x3"])
def test_check_space_builds_realized_types_once(request, monkeypatch, fixture):
    """The oracle, the chains and the bases all read the memo on ``space.index``."""
    init = space.RealizedTypes.__init__
    builds = []
    monkeypatch.setattr(space.RealizedTypes, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    assert check_space(dataclasses.replace(request.getfixturevalue(fixture))).ok
    assert len(builds) == 1
