import itertools
import random

import pytest

from conftest import random_generated_space
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
    assert connect.find_connection(street5, "r2", "r4", c_right5) == ("r2", "r3", "r4", "r5")


def test_find_connection_reads_the_pool_once_and_the_base_pool_never(
    monkeypatch, street5, c_right5
):
    """One read of the pool, whose disjoint pairs test every refinement round.

    On STREET5 ``r2`` to ``r5`` a search over base opens read the base pool
    once and the pool once; the refinement reads the pool alone.
    """
    calls = []
    pool, base_pool, connected = chains.chain_pool, chains.chain_base_pool, connect.is_chain_connected
    monkeypatch.setattr(chains, "chain_pool", lambda sp, ch: calls.append("pool") or pool(sp, ch))
    monkeypatch.setattr(chains, "chain_base_pool",
                        lambda sp, ch: calls.append("base") or base_pool(sp, ch))
    monkeypatch.setattr(connect, "is_chain_connected",
                        lambda *a: calls.append("connected") or connected(*a))
    assert connect.find_connection(street5, "r2", "r5", c_right5) == ("r2", "r3", "r4", "r5")
    assert calls == ["pool"]


def test_find_connection_rejects_equal_points(street5, c_right5):
    with pytest.raises(PreconditionError):
        connect.find_connection(street5, "r2", "r2", c_right5)


def test_refined_certificates_agree_with_the_exhaustive_search():
    """Every pair of every 2-level realized chain of the strict random 7-point spaces.

    Seeds 0 to 39. The cover chains of the twin in ``test_oracle.py`` never
    need a refinement round for a certificate; here some certificates are
    smaller than the union of the pool, so a round dropped points first.
    """
    refined = 0
    for sp in filter(None, (random_generated_space(random.Random(s), 7) for s in range(40))):
        rt = realized_types(sp)
        for i, j in itertools.product(range(len(rt)), repeat=2):
            if not rt.up[j] >> i & 1 or rt.terms[j].is_bottom:
                continue
            chain = TypeChain((rt.terms[j], rt.terms[i]))
            supported = set().union(*map(sp.ids_of, chains.chain_pool(sp, chain)))
            for x, y in itertools.combinations(sp.points, 2):
                cert = connect.find_connection(sp, x, y, chain)
                assert (cert is not None) == oracle.exhaustive_connected(sp, chain, x, y)
                refined += cert is not None and set(cert) != supported
    assert refined >= 10


def test_no_connection_across_streets(street2x3, c_right6):
    assert connect.find_connection(street2x3, "a2", "b2", c_right6) is None
    assert not oracle.exhaustive_connected(street2x3, c_right6, "a2", "b2")


def test_certificate_chained_union_is_connected():
    """Two overlapping relation balls, neither holding both ends, join ``x`` to ``z``."""
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
    assert cert == ("x", "y", "z")
    ok, _ = connect.is_chain_connected(sp, cert, ch)
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
    assert connect.find_connection(sp, "x", "y", ch) == ("x", "y")


def test_components_street2x3(street2x3, c_right6):
    """Two components, {a2, a3} and {b2, b3}; a1 and b1 connect to nothing."""
    for x, y in (("a2", "a3"), ("b2", "b3")):
        assert connect.find_connection(street2x3, x, y, c_right6) is not None
    for x, y in (("a3", "b3"), ("a1", "a2"), ("b1", "b2"), ("a1", "b1")):
        assert connect.find_connection(street2x3, x, y, c_right6) is None
        assert not oracle.exhaustive_connected(street2x3, c_right6, x, y)


def test_components_street5(street5, c_right5):
    """One component, r2..r5, joined by one base open; r1 connects to nothing."""
    assert connect.find_connection(street5, "r2", "r5", c_right5) == ("r2", "r3", "r4", "r5")
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
    assert connect.find_connection(sp, "x", "y", ch) == ("x", "y")
