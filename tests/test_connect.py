import pytest

from typedtopo import basis, chains, connect, lattice, oracle
from typedtopo.chains import TypeChain, parse_chain
from typedtopo.errors import PreconditionError
from typedtopo.lattice import Context, Poset, parse_type_expr
from typedtopo.space import GeneratorSpec, generate_topology, realized_types


def test_cross_street_set_is_separated(street2x3, c_right6):
    ok, witness = connect.is_chain_connected(
        street2x3, {"a2", "a3", "b2", "b3"}, c_right6
    )
    assert not ok
    pool = chains.chain_pool(street2x3, c_right6)
    left = street2x3.mask_of(witness.left)
    right = street2x3.mask_of(witness.right)
    target = street2x3.mask_of({"a2", "a3", "b2", "b3"})
    assert left in pool and right in pool
    assert left & right == 0
    assert target & ~(left | right) == 0
    assert target & left and target & right


def test_singletons_are_connected(street2x3, c_right6):
    for p in street2x3.points:
        ok, witness = connect.is_chain_connected(street2x3, {p}, c_right6)
        assert ok and witness is None


def test_first_level_irreducibles_are_connected(street5, c_right5, genealogy5, c_anc5):
    """Members of the anchored base at the chain's first level never separate."""
    for sp, ch in ((street5, c_right5), (genealogy5, c_anc5)):
        fam = basis.irreducibles_above(sp, ch.levels[0])
        for m in fam:
            ok, _ = connect.is_chain_connected(sp, sp.ids_of(m), ch)
            assert ok


def test_irreducibles_above_connected_across_realized_chains(street2x3):
    sp = street2x3
    rt = realized_types(sp)
    pairs = [
        (i, j)
        for i in range(len(rt))
        for j in range(len(rt))
        if rt.up[i] >> j & 1
        and not (rt.terms[i].is_bottom or rt.terms[i].is_top)
        and not (rt.terms[j].is_bottom or rt.terms[j].is_top)
    ]
    for i, j in pairs[::7]:  # sampled; the full sweep lives in oracle.check_space
        ch = TypeChain((rt.terms[i], rt.terms[j]))
        for m in basis.irreducibles_above(sp, ch.levels[0]):
            ok, _ = connect.is_chain_connected(sp, sp.ids_of(m), ch)
            assert ok


def test_pure_generator_members_connect_under_their_own_chain(street5, genealogy5):
    for sp, gen in ((street5, "right"), (genealogy5, "anc")):
        top = parse_type_expr(gen, sp.ctx)
        for m in chains.generator_family(sp, gen):
            t = sp.sigma[m]
            ch = TypeChain((t, t)) if lattice.term_eq(t, top) else TypeChain((t, top))
            ok, _ = connect.is_chain_connected(sp, sp.ids_of(m), ch)
            assert ok


def test_find_connection_within_one_ray(street5, c_right5):
    cert = connect.find_connection(street5, "r2", "r4", c_right5)
    assert cert is not None
    assert cert.member_ids == ("r2", "r3", "r4", "r5")
    assert cert.sequence == (("r2", "r3", "r4", "r5"),)


def test_find_connection_reads_each_pool_once(monkeypatch, street5, c_right5):
    """One read of the base pool and one of the pool, whose disjoint pairs test every node.

    On STREET5 ``r2`` to ``r5`` the search read the base pool once, and the
    pool once per base member and once more for the union, through five
    `is_chain_connected` calls.
    """
    calls = []
    pool, base_pool, connected = chains.chain_pool, chains.chain_base_pool, connect.is_chain_connected
    monkeypatch.setattr(chains, "chain_pool", lambda sp, ch: calls.append("pool") or pool(sp, ch))
    monkeypatch.setattr(chains, "chain_base_pool",
                        lambda sp, ch: calls.append("base") or base_pool(sp, ch))
    monkeypatch.setattr(connect, "is_chain_connected",
                        lambda *a: calls.append("connected") or connected(*a))
    cert = connect.find_connection(street5, "r2", "r5", c_right5)
    assert sorted(calls) == ["base", "pool"]
    assert cert.sequence == (("r2", "r3", "r4", "r5"),)


def test_find_connection_rejects_equal_points(street5, c_right5):
    with pytest.raises(PreconditionError):
        connect.find_connection(street5, "r2", "r2", c_right5)


def test_no_connection_across_streets(street2x3, c_right6):
    assert connect.find_connection(street2x3, "a2", "b2", c_right6) is None
    assert not oracle.exhaustive_connected(street2x3, c_right6, "a2", "b2")


def test_certificate_chained_union_is_connected():
    """Two overlapping relation balls connect their members in two steps."""
    poset = Poset({"classmate"})
    pts = ("x", "y", "z")
    ctx = Context(poset, pts)
    sp = generate_topology(ctx, [
        GeneratorSpec(
            "ball_x", frozenset({"x", "y"}), parse_type_expr("classmate & @x", ctx)
        ),
        GeneratorSpec(
            "ball_z", frozenset({"y", "z"}), parse_type_expr("classmate & @z", ctx)
        ),
    ])
    ch = parse_chain("classmate & @x & @y & @z ; classmate", sp.ctx)
    cert = connect.find_connection(sp, "x", "z", ch)
    assert cert is not None
    assert len(cert.sequence) == 2
    for a, b in zip(cert.sequence, cert.sequence[1:]):
        assert set(a) & set(b)
    ok, _ = connect.is_chain_connected(sp, cert.member_ids, ch)
    assert ok
    assert oracle.exhaustive_connected(sp, ch, "x", "z")


def test_relation_ball_connects_classmates_directly():
    """A single relation ball is a connection for the pair it covers."""
    poset = Poset({"classmate", "d"})
    pts = ("x", "y", "z")
    ctx = Context(poset, pts)
    sp = generate_topology(ctx, [
        GeneratorSpec(
            "ball_x", frozenset({"x", "y"}), parse_type_expr("classmate & @x", ctx)
        ),
        GeneratorSpec("other", frozenset({"z"}), parse_type_expr("d & @z", ctx)),
    ])
    ch = parse_chain("classmate & @x ; classmate", sp.ctx)
    cert = connect.find_connection(sp, "x", "y", ch)
    assert cert is not None
    assert cert.member_ids == ("x", "y")
    assert cert.sequence == (("x", "y"),)


def test_components_street2x3(street2x3, c_right6):
    """Two components, {a2, a3} and {b2, b3}; a1 and b1 connect to nothing."""
    for x, y in (("a2", "a3"), ("b2", "b3")):
        assert connect.find_connection(street2x3, x, y, c_right6) is not None
    for x, y in (("a3", "b3"), ("a1", "a2"), ("b1", "b2"), ("a1", "b1")):
        assert connect.find_connection(street2x3, x, y, c_right6) is None
        assert not oracle.exhaustive_connected(street2x3, c_right6, x, y)


def test_components_street5(street5, c_right5):
    """One component, r2..r5, joined by one base open; r1 connects to nothing."""
    cert = connect.find_connection(street5, "r2", "r5", c_right5)
    assert cert.member_ids == ("r2", "r3", "r4", "r5")
    for y in ("r2", "r5"):
        assert connect.find_connection(street5, "r1", y, c_right5) is None
        assert not oracle.exhaustive_connected(street5, c_right5, "r1", y)


def test_single_open_pool_gives_one_component():
    poset = Poset({"g"})
    pts = ("x", "y")
    ctx = Context(poset, pts)
    sp = generate_topology(ctx, [
        GeneratorSpec("a", frozenset({"x"}), parse_type_expr("g & @x", ctx)),
        GeneratorSpec("b", frozenset(pts), parse_type_expr("g", ctx)),
    ])
    g = parse_type_expr("g", sp.ctx)
    ch = TypeChain((g, g))
    assert chains.chain_pool(sp, ch) == frozenset({sp.full_mask})
    cert = connect.find_connection(sp, "x", "y", ch)
    assert cert.sequence == (("x", "y"),)
