import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from typedtopo import lattice
from typedtopo.errors import (
    BoundExceededError,
    ContextMismatchError,
    ExprSyntaxError,
    PreconditionError,
    TypedTopoError,
    UnknownSymbolError,
)
from typedtopo.lattice import (
    Clause,
    Context,
    Poset,
    clause_of,
    enumerate_valuations,
    evaluate,
    format_term,
    is_join_irreducible,
    join,
    leq,
    leq_by_valuations,
    meet,
    normalize,
    parse_type_expr,
    term_eq,
    term_from_json,
    term_to_json,
)


@pytest.fixture(scope="module")
def gctx():
    return Context(Poset({"anc", "desc"}), ("B", "S", "H", "C", "W"))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_clause(gctx):
    t = parse_type_expr("anc & @W", gctx)
    assert format_term(t) == "anc & @W"


def test_parse_contradiction_is_bottom(gctx):
    assert parse_type_expr("@W & ~@W", gctx).is_bottom


def test_parse_complement_join_is_top(gctx):
    assert parse_type_expr("@W | ~@W", gctx).is_top


def test_parse_reserved_words_and_parens(gctx):
    assert parse_type_expr("BOT", gctx).is_bottom
    assert parse_type_expr("TOP", gctx).is_top
    t = parse_type_expr("(anc | desc) & @W", gctx)
    assert term_eq(t, parse_type_expr("anc & @W | desc & @W", gctx))


PARSE_ERRORS = {  # text -> (class, message, position or None)
    "anc & ~W": (ExprSyntaxError, "expected '@' after '~'", 6),
    "anc & ~@": (ExprSyntaxError, "missing point id after '~@'", 6),
    "@ | anc": (ExprSyntaxError, "missing point id after '@'", 0),
    "anc # W": (ExprSyntaxError, "unexpected character '#'", 4),
    "3anc": (ExprSyntaxError, "unexpected character '3'", 0),
    "anc & ½": (ExprSyntaxError, "unexpected character '½'", 6),
    "anc desc": (ExprSyntaxError, "trailing input after expression", 4),
    "(anc | desc": (ExprSyntaxError, "expected ')'", 11),
    ")": (ExprSyntaxError, "expected a literal", 0),
    "anc & & @W": (ExprSyntaxError, "expected a literal", 6),
    # the whole text is tokenized first: a later syntax error wins over an unknown name
    "@Q & ~x": (ExprSyntaxError, "expected '@' after '~'", 5),
    "anc & ~@Q": (UnknownSymbolError, "unknown point 'Q'", None),
    "@Q": (UnknownSymbolError, "unknown point 'Q'", None),
    "uncle": (UnknownSymbolError, "unknown generator 'uncle'", None),
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_error_paths(text):
    ctx = Context(Poset({"anc", "desc"}, [("anc", "desc")]), ("W", "B", "C"))
    kind, message, position = PARSE_ERRORS[text]
    with pytest.raises(TypedTopoError) as raised:
        parse_type_expr(text, ctx)
    assert type(raised.value) is kind
    if position is None:
        assert str(raised.value) == message
    else:
        assert str(raised.value) == f"{message} (at position {position})"
        assert raised.value.position == position


def test_parse_matches_the_name_level_fold():
    """Random expression trees parse to the fold of `meet` and `join` over `normalize` literals.

    The trees mix generators, ``@x``, ``~@x``, ``BOT`` and ``TOP``; each is
    rendered with the parentheses its precedence needs, some more, and
    random whitespace between tokens.
    """
    ctx = Context(Poset({"anc", "desc", "kin"}, [("anc", "desc")]), ("W", "B", "C"))
    literals = {
        **{g: clause_of(gens=[g]) for g in sorted(ctx.poset.elements)},
        **{f"@{x}": clause_of(pos=[x]) for x in ctx.points},
        **{f"~@{x}": clause_of(neg=[x]) for x in ctx.points},
        "TOP": clause_of(),
    }
    spaces = ("", "", " ", "  ", "\t", "\n", "\xa0")
    rng = random.Random(24)

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([*literals, "BOT"])
        return (rng.choice("&|"), tree(depth - 1), tree(depth - 1))

    def value(node):
        if isinstance(node, str):
            return normalize(ctx, [literals[node]] if node in literals else [])
        op, left, right = node
        return (meet if op == "&" else join)(value(left), value(right))

    def render(node, parent=None):
        if isinstance(node, str):
            text = node
        else:
            op, left, right = node
            text = f"{render(left, op)}{rng.choice(spaces)}{op}{rng.choice(spaces)}"
            text += render(right, op)
            if (op, parent) == ("|", "&") or rng.random() < 0.3:
                return f"({rng.choice(spaces)}{text}{rng.choice(spaces)})"
        return f"({text})" if rng.random() < 0.1 else text

    for _ in range(400):
        node = tree(4)
        text = rng.choice(spaces) + render(node) + rng.choice(spaces)
        assert parse_type_expr(text, ctx) == value(node), text


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_absorption(gctx):
    t = parse_type_expr("(anc & @W) | (anc & @W & @C)", gctx)
    assert format_term(t) == "anc & @W"


def test_normalize_consensus(gctx):
    t = parse_type_expr("(anc & @W) | (anc & ~@W)", gctx)
    assert format_term(t) == "anc"
    assert leq_by_valuations(t, parse_type_expr("anc", gctx))
    assert leq_by_valuations(parse_type_expr("anc", gctx), t)


def test_normalize_contradictory_clause_is_bottom(gctx):
    assert normalize(gctx, [clause_of(pos=["W"], neg=["W"])]).is_bottom


def test_normalize_rejects_unknown_names(gctx):
    with pytest.raises(UnknownSymbolError, match="unknown generator 'uncle'"):
        normalize(gctx, [clause_of(gens=["anc"]), clause_of(gens=["uncle"])])
    with pytest.raises(UnknownSymbolError, match="unknown point 'Q'"):
        normalize(gctx, [clause_of(pos=["W"], neg=["Q"])])


def test_poset_closes_random_relations_by_reachability():
    """The closed order against a depth-first search from each element, cycles included."""
    rng = random.Random(7)
    for _ in range(300):
        names = [f"g{i}" for i in range(rng.randint(1, 6))]
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 8))]
        reach = {}
        for a in names:
            seen, todo = {a}, [a]
            while todo:
                b = todo.pop()
                for c, d in pairs:
                    if c == b and d not in seen:
                        seen.add(d)
                        todo.append(d)
            reach[a] = seen
        cycle = sorted((a, b) for a in names for b in reach[a] if a != b and a in reach[b])
        if cycle:
            a, b = cycle[0]
            with pytest.raises(PreconditionError, match=f"^order is not antisymmetric: "
                               f"'{a}' <= '{b}' <= '{a}'$"):
                Poset(names, pairs)
        else:
            assert Poset(names, pairs).pairs == {(a, b) for a in names for b in reach[a]}


def test_normalize_poset_meet_absorption():
    ctx = Context(Poset({"p", "q"}, [("p", "q")]), ())
    t = normalize(ctx, [clause_of(gens=["p", "q"])])
    assert format_term(t) == "p"
    u = normalize(ctx, [clause_of(gens=["p"]), clause_of(gens=["q"])])
    assert format_term(u) == "q"


# ---------------------------------------------------------------------------
# meet / join / leq
# ---------------------------------------------------------------------------


def test_meet_with_top_is_identity(gctx):
    t = parse_type_expr("anc", gctx)
    assert term_eq(meet(t, gctx.top()), t)


def test_join_of_complements_is_top(gctx):
    assert join(parse_type_expr("@W", gctx), parse_type_expr("~@W", gctx)).is_top


def test_meet_combines_clauses(gctx):
    got = meet(parse_type_expr("anc & @W", gctx), parse_type_expr("desc & @W", gctx))
    want = parse_type_expr("anc & desc & @W", gctx)
    assert term_eq(got, want)
    assert leq_by_valuations(got, want) and leq_by_valuations(want, got)


def test_leq_examples(gctx):
    assert leq(parse_type_expr("anc & @W", gctx), parse_type_expr("anc", gctx))
    assert not leq(parse_type_expr("anc", gctx), parse_type_expr("desc", gctx))
    for expr in ("anc", "desc & @W", "TOP"):
        assert leq(gctx.bottom(), parse_type_expr(expr, gctx))


def test_context_mismatch_rejected(gctx):
    other = Context(Poset({"anc", "desc"}), ("B",))
    from typedtopo.errors import ContextMismatchError

    with pytest.raises(ContextMismatchError):
        meet(parse_type_expr("anc", gctx), parse_type_expr("anc", other))


# ---------------------------------------------------------------------------
# evaluation and valuations
# ---------------------------------------------------------------------------


def test_evaluate_examples(gctx):
    v = lattice.Valuation.make(("anc", "desc"), ("W",), {"anc"}, set())
    assert evaluate(gctx.top(), v) == 1
    assert evaluate(parse_type_expr("anc & @W", gctx), v) == 0
    split = parse_type_expr("(anc & @W) | (anc & ~@W)", gctx)
    for pts in (set(), {"W"}):
        v2 = lattice.Valuation.make(("anc", "desc"), ("W",), {"anc"}, pts)
        assert evaluate(split, v2) == 1


def test_evaluate_literals_outside_the_subcontext_never_hold(gctx):
    v = lattice.Valuation.make(("anc",), ("W",), {"anc"}, {"W"})
    assert evaluate(parse_type_expr("anc & @W", gctx), v) == 1
    assert evaluate(parse_type_expr("anc & ~@C", gctx), v) == 0
    assert evaluate(parse_type_expr("desc", gctx), v) == 0


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_valuations(Context(Poset({"anc", "desc"}), ()))) == 4
    chain2 = Context(Poset({"p", "q"}, [("p", "q")]), ())
    assert sum(1 for _ in enumerate_valuations(chain2)) == 3
    assert sum(1 for _ in enumerate_valuations(Context(Poset(set()), ("x",)))) == 2


def test_enumeration_monotone_on_poset():
    ctx = Context(Poset({"p", "q"}, [("p", "q")]), ())
    for v in enumerate_valuations(ctx):
        assert not ("p" in v.gens_true and "q" not in v.gens_true)


def test_enumeration_bound_exceeded():
    ctx = Context(Poset(set()), tuple(f"x{i}" for i in range(25)))
    with pytest.raises(BoundExceededError):
        list(enumerate_valuations(ctx))


# ---------------------------------------------------------------------------
# join-irreducibility
# ---------------------------------------------------------------------------


def test_join_irreducible_examples():
    ctx = Context(Poset({"anc"}), ("x", "y"))
    assert not is_join_irreducible(ctx.bottom())
    assert not is_join_irreducible(parse_type_expr("@x", ctx))
    assert is_join_irreducible(parse_type_expr("anc & @x & ~@y", ctx))


def test_join_irreducible_bound():
    ctx = Context(Poset(set()), tuple(f"x{i}" for i in range(25)))
    with pytest.raises(BoundExceededError):
        is_join_irreducible(parse_type_expr("@x0", ctx))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_clause_literal_order():
    c = clause_of(gens=["desc", "anc"], pos=["y", "x"], neg=["x", "z"])
    assert c.literals() == (
        ("gen", "anc"), ("gen", "desc"), ("pos", "x"), ("neg", "x"), ("pos", "y"), ("neg", "z"),
    )
    assert c.sort_key() == (
        (0, "anc", 0), (0, "desc", 0), (1, "x", 1), (1, "x", 2), (1, "y", 1), (1, "z", 2),
    )


def test_term_json_round_trip(gctx):
    for expr in ("anc & @W | desc & ~@C", "BOT", "TOP", "anc"):
        t = parse_type_expr(expr, gctx)
        assert term_eq(term_from_json(gctx, term_to_json(t)), t)
    assert term_to_json(gctx.bottom()) == {"clauses": []}
    assert term_to_json(gctx.top()) == {"top": True}


def test_term_json_layout(gctx):
    t = parse_type_expr("desc & ~@C & @B | anc", gctx)
    assert term_to_json(t) == {
        "clauses": [[{"gen": "anc"}], [{"gen": "desc"}, {"pos": "B"}, {"neg": "C"}]]
    }


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


def _contexts() -> list[Context]:
    out = []
    for pairs in ([], [("g0", "g1")], [("g0", "g1"), ("g1", "g2")]):
        gens = sorted({a for p in pairs for a in p} | {"g0", "g1"})
        out.append(Context(Poset(gens, pairs), ("x", "y")))
    out.append(Context(Poset({"g0"}), ("x", "y", "z")))
    return out


_CTXS = _contexts()


@st.composite
def _terms(draw, ctx_index=None):
    idx = ctx_index if ctx_index is not None else draw(st.integers(0, len(_CTXS) - 1))
    ctx = _CTXS[idx]
    gens = sorted(ctx.poset.elements)
    clauses = []
    for _ in range(draw(st.integers(0, 3))):
        cg = draw(st.sets(st.sampled_from(gens), max_size=len(gens)))
        pos, neg = set(), set()
        for p in ctx.points:
            mark = draw(st.integers(0, 3))
            if mark == 1:
                pos.add(p)
            elif mark == 2:
                neg.add(p)
        clauses.append(clause_of(cg, pos, neg))
    return idx, normalize(ctx, clauses)


@given(_terms())
@settings(max_examples=120, deadline=None)
def test_property_leq_matches_valuations(pair):
    idx, a = pair
    rng = random.Random(hash(a.sort_key()) & 0xFFFF)
    ctx = _CTXS[idx]
    gens = sorted(ctx.poset.elements)
    clauses = []
    for _ in range(rng.randint(0, 3)):
        cg = {g for g in gens if rng.random() < 0.4}
        pos = {p for p in ctx.points if rng.random() < 0.3}
        neg = {p for p in ctx.points if p not in pos and rng.random() < 0.3}
        clauses.append(clause_of(cg, pos, neg))
    b = normalize(ctx, clauses)
    assert leq(a, b) == leq_by_valuations(a, b)
    assert leq(b, a) == leq_by_valuations(b, a)


@given(st.integers(0, len(_CTXS) - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_property_lattice_laws(idx, data):
    a = data.draw(_terms(ctx_index=idx))[1]
    b = data.draw(_terms(ctx_index=idx))[1]
    c = data.draw(_terms(ctx_index=idx))[1]
    assert term_eq(meet(a, b), meet(b, a))
    assert term_eq(join(a, b), join(b, a))
    assert term_eq(meet(a, meet(b, c)), meet(meet(a, b), c))
    assert term_eq(join(a, join(b, c)), join(join(a, b), c))
    assert term_eq(meet(a, join(a, b)), a)
    assert term_eq(join(a, meet(a, b)), a)
    assert term_eq(meet(a, join(b, c)), join(meet(a, b), meet(a, c)))
    assert term_eq(join(a, meet(b, c)), meet(join(a, b), join(a, c)))
    # the glb and lub characterizations the oracle's meet and join bounds rely on
    assert leq(c, meet(a, b)) == (leq(c, a) and leq(c, b))
    assert leq(join(a, b), c) == (leq(a, c) and leq(b, c))


@given(st.integers(0, len(_CTXS) - 1), st.data())
@settings(max_examples=300, deadline=None)
def test_property_join_all_matches_the_pairwise_fold(idx, data):
    """One normalization of all the clauses equals k-1 pairwise joins."""
    ctx = _CTXS[idx]
    terms = [data.draw(_terms(ctx_index=idx))[1] for _ in range(data.draw(st.integers(0, 4)))]
    assert lattice.join_all(ctx, terms) == functools.reduce(join, terms, ctx.bottom())


# ---------------------------------------------------------------------------
# the name-level canonicalizer: slow twin of the cube encoding
# ---------------------------------------------------------------------------


def _minimal(poset: Poset, names) -> frozenset:
    """Antichain of the <=-minimal members of ``names``."""
    ns = set(names)
    return frozenset(a for a in ns if not any(b != a and poset.leq(b, a) for b in ns))


def _clause_implies(c: Clause, d: Clause, poset: Poset) -> bool:
    """True when satisfaction of ``c`` forces satisfaction of ``d`` (c <= d)."""
    if not (d.pos <= c.pos and d.neg <= c.neg):
        return False
    return all(any(poset.leq(g, h) for g in c.gens) for h in d.gens)


def _absorb(poset: Poset, clauses: set) -> set:
    """Keep only clauses not implying another clause (the maximal antichain)."""
    return {
        c for c in clauses if not any(d != c and _clause_implies(c, d, poset) for d in clauses)
    }


def _consensus_closure(poset: Poset, clauses: set) -> set:
    work = _absorb(poset, clauses)
    while True:
        fresh = set()
        for c, d in itertools.combinations(tuple(work), 2):
            for x in (c.pos & d.neg) | (d.pos & c.neg):
                merged = Clause(
                    _minimal(poset, c.gens | d.gens), (c.pos | d.pos) - {x}, (c.neg | d.neg) - {x}
                )
                if merged.pos & merged.neg:
                    continue
                if not any(_clause_implies(merged, e, poset) for e in work):
                    fresh.add(merged)
        if not fresh:
            return work
        work = _absorb(poset, work | fresh)


def _reference_normalize(ctx: Context, clauses) -> frozenset:
    """The canonical clause set computed on names, clause by clause."""
    reduced = {
        Clause(_minimal(ctx.poset, c.gens), c.pos, c.neg) for c in clauses if not c.pos & c.neg
    }
    if not reduced:
        return frozenset()
    closed = _consensus_closure(ctx.poset, reduced)
    if clause_of() in closed:
        return frozenset({clause_of()})
    return frozenset(closed)


def _reference_leq(a, b) -> bool:
    poset = a.ctx.poset
    return all(any(_clause_implies(ca, cb, poset) for cb in b.clauses) for ca in a.clauses)


@st.composite
def _poset_and_clause_sets(draw):
    """A poset with comparabilities, and two raw clause lists over it.

    Each point of a clause is absent, positive, negative or both (a
    contradictory clause); one list in four also holds the empty clause, Top.
    """
    gens = [f"g{i}" for i in range(draw(st.integers(1, 4)))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)), max_size=4))
    poset = Poset(gens, [(a, b) for a, b in pairs if a < b])
    ctx = Context(poset, ("x", "y", "z")[: draw(st.integers(1, 3))])

    def clauses():
        out = []
        for _ in range(draw(st.integers(0, 4))):
            marks = [draw(st.integers(0, 3)) for _ in ctx.points]
            out.append(clause_of(
                draw(st.sets(st.sampled_from(gens))),
                [p for p, m in zip(ctx.points, marks) if m & 1],
                [p for p, m in zip(ctx.points, marks) if m & 2],
            ))
        if draw(st.integers(0, 3)) == 0:
            out.append(clause_of())
        return out

    return ctx, clauses(), clauses()


@given(_poset_and_clause_sets())
@settings(max_examples=300, deadline=None)
def test_property_cube_encoding_matches_the_name_level_reference(drawn):
    """Encoded `normalize`, `meet`, `join` and `leq` against names and valuations."""
    ctx, raw_a, raw_b = drawn
    a, b = normalize(ctx, raw_a), normalize(ctx, raw_b)
    ref_a, ref_b = _reference_normalize(ctx, raw_a), _reference_normalize(ctx, raw_b)
    assert a.clauses == ref_a and b.clauses == ref_b
    products = [
        clause_of(ca.gens | cb.gens, ca.pos | cb.pos, ca.neg | cb.neg)
        for ca in ref_a
        for cb in ref_b
    ]
    assert meet(a, b).clauses == _reference_normalize(ctx, products)
    assert join(a, b).clauses == _reference_normalize(ctx, ref_a | ref_b)
    for x, y in ((a, b), (b, a), (meet(a, b), a), (a, join(a, b))):
        assert leq(x, y) == _reference_leq(x, y) == leq_by_valuations(x, y)
    for t in (a, b):
        named = sorted(t.clauses, key=Clause.sort_key)
        assert t.sort_key() == tuple(c.sort_key() for c in named)
        if not t.is_top:
            assert term_to_json(t)["clauses"] == [
                [{kind: name} for kind, name in c.literals()] for c in named
            ]


def _clause_json(c: Clause, rng: random.Random) -> list:
    """A clause as `term_to_json` literals, shuffled, some written twice."""
    lits = [{"gen": g} for g in c.gens] + [{"pos": x} for x in c.pos]
    lits += [{"neg": x} for x in c.neg]
    lits += [dict(lit) for lit in lits if rng.random() < 0.2]
    rng.shuffle(lits)
    return lits


@given(_poset_and_clause_sets(), st.integers(0, 1 << 16))
@settings(max_examples=300, deadline=None)
def test_property_term_from_json_matches_normalize(drawn, seed):
    """Cubes read straight from JSON against `normalize` of name-level clauses.

    The drawn clauses are non-canonical on purpose: contradictory clauses and
    Top come from the strategy, and every clause may gain an absorbed
    extension or be split on a free point into a consensus pair.
    """
    ctx, raw, _ = drawn
    rng = random.Random(seed)
    gens = sorted(ctx.poset.elements)
    clauses = []
    for c in raw:
        clauses.append(c)
        if rng.random() < 0.5:
            more = {g for g in gens if rng.random() < 0.5}
            clauses.append(clause_of(c.gens | more, c.pos | {ctx.points[0]}, c.neg))
        free = [x for x in ctx.points if x not in c.pos | c.neg]
        if free and rng.random() < 0.5:
            x = rng.choice(free)
            if rng.random() < 0.5:
                clauses.remove(c)
            clauses.append(clause_of(c.gens, c.pos | {x}, c.neg))
            clauses.append(clause_of(c.gens, c.pos, c.neg | {x}))
    rng.shuffle(clauses)
    reference = normalize(ctx, clauses)
    doc = {"clauses": [_clause_json(c, rng) for c in clauses]}
    assert term_from_json(ctx, doc) == reference
    assert term_from_json(ctx, term_to_json(reference)) == reference
    assert term_from_json(ctx, {"top": True}) == ctx.top() == normalize(ctx, [clause_of()])
    assert term_from_json(ctx, {"clauses": []}) == ctx.bottom()
    for bad in ({"top": True, **doc}, {}, {"cubes": doc["clauses"]}):
        with pytest.raises(PreconditionError, match="bad term encoding"):
            term_from_json(ctx, bad)


def test_term_from_json_errors(gctx):
    anc = [{"gen": "anc"}]
    cases = [
        (["anc"], PreconditionError, "bad term encoding: ['anc']"),
        ({"clauses": [anc + [{"atom": "B"}]]}, PreconditionError,
         "bad literal encoding: {'atom': 'B'}"),
        ({"clauses": [anc + [{"gen": "zz"}]]}, UnknownSymbolError, "unknown generator 'zz'"),
        ({"clauses": [anc, [{"pos": "zz"}]]}, UnknownSymbolError, "unknown point 'zz'"),
        ({"clauses": [[{"neg": "zz"}]]}, UnknownSymbolError, "unknown point 'zz'"),
        # a malformed literal anywhere in the term wins over an unknown name
        ({"clauses": [[{"gen": "zz"}], anc + [{}]]}, PreconditionError, "bad literal encoding: {}"),
        ({"clauses": [[{"pos": "zz"}, {"nope": 1}]]}, PreconditionError,
         "bad literal encoding: {'nope': 1}"),
        # a literal object holds exactly one literal; none is dropped silently
        ({"clauses": [[{"gen": "anc", "pos": "B"}]]}, PreconditionError,
         "bad literal encoding: {'gen': 'anc', 'pos': 'B'}"),
        ({"clauses": [[{"neg": "B", "note": 1}]]}, PreconditionError,
         "bad literal encoding: {'neg': 'B', 'note': 1}"),
        # a term is exactly {"top": true} or {"clauses": [...]}; no key is misread
        ({}, PreconditionError, "bad term encoding: {}"),
        ({"top": False}, PreconditionError, "bad term encoding: {'top': False}"),
        ({"top": 1}, PreconditionError, "bad term encoding: {'top': 1}"),
        ({"cluases": [anc]}, PreconditionError,
         "bad term encoding: {'cluases': [[{'gen': 'anc'}]]}"),
        ({"cubes": [anc]}, PreconditionError, "bad term encoding: {'cubes': [[{'gen': 'anc'}]]}"),
        ({"top": 1, "clauses": [anc]}, PreconditionError,
         "bad term encoding: {'top': 1, 'clauses': [[{'gen': 'anc'}]]}"),
        ({"top": True, "clauses": []}, PreconditionError,
         "bad term encoding: {'top': True, 'clauses': []}"),
        ({"clauses": anc[0]}, PreconditionError, "bad term encoding: {'clauses': {'gen': 'anc'}}"),
    ]
    for doc, kind, message in cases:
        with pytest.raises(TypedTopoError) as raised:
            term_from_json(gctx, doc)
        assert type(raised.value) is kind
        assert str(raised.value) == message


@given(_terms(), st.data())
@settings(max_examples=200, deadline=None)
def test_property_name_accessors_match_the_decoded_clauses(pair, data):
    """`generators`, `point_ids` and `uses_only` against the decoded clauses."""
    idx, t = pair
    gens = sorted(_CTXS[idx].poset.elements)
    assert t.generators() == frozenset(g for c in t.clauses for g in c.gens)
    assert t.point_ids() == frozenset(x for c in t.clauses for x in c.pos | c.neg)
    allowed = data.draw(st.sets(st.sampled_from(gens)))
    assert t.uses_only(allowed) == all(c.gens <= allowed for c in t.clauses)
    assert t.uses_only(gens)


def test_join_all_rejects_a_foreign_term():
    a, b = _CTXS[0], _CTXS[3]
    with pytest.raises(ContextMismatchError):
        lattice.join_all(a, [a.top(), b.bottom()])


@given(_terms(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_property_canonical_under_rewrites(pair, rng):
    idx, t = pair
    ctx = _CTXS[idx]
    clauses = list(t.clauses)
    for _ in range(3):
        if not clauses:
            break
        mode = rng.randrange(3)
        c = rng.choice(clauses)
        if mode == 0:
            extra = {g for g in ctx.poset.elements if rng.random() < 0.4}
            clauses.append(clause_of(c.gens | extra, c.pos, c.neg))
        elif mode == 1:
            free = [p for p in ctx.points if p not in c.pos and p not in c.neg]
            if free:
                x = rng.choice(free)
                clauses.remove(c)
                clauses.append(clause_of(c.gens, c.pos | {x}, c.neg))
                clauses.append(clause_of(c.gens, c.pos, c.neg | {x}))
        else:
            clauses = clauses + [c]
    assert term_eq(normalize(ctx, clauses), t)


@given(_terms())
@settings(max_examples=60, deadline=None)
def test_property_irreducibles_are_join_prime(pair):
    idx, e = pair
    ctx = _CTXS[idx]
    if e.is_bottom or not is_join_irreducible(e):
        return
    rng = random.Random(hash(e.sort_key()) & 0xFFFF)
    for _ in range(5):
        qs = []
        for _ in range(2):
            cls = [
                clause_of(
                    {g for g in ctx.poset.elements if rng.random() < 0.4},
                    {p for p in ctx.points if rng.random() < 0.3},
                    set(),
                )
                for _ in range(rng.randint(0, 2))
            ]
            qs.append(normalize(ctx, cls))
        q, r = qs
        if leq(e, join(q, r)):
            assert leq(e, q) or leq(e, r)


def test_ultrafilter_correspondence():
    ctx = Context(Poset({"g0", "g1"}), ("x",))
    seeds = [
        parse_type_expr(e, ctx)
        for e in ("g0 & @x", "g1", "@x", "g0 | g1", "~@x & g0")
    ]
    sub = {t.sort_key(): t for t in seeds}
    sub[ctx.bottom().sort_key()] = ctx.bottom()
    sub[ctx.top().sort_key()] = ctx.top()
    changed = True
    while changed and len(sub) < 80:
        changed = False
        for a, b in itertools.combinations(list(sub.values()), 2):
            for t in (meet(a, b), join(a, b)):
                if t.sort_key() not in sub:
                    sub[t.sort_key()] = t
                    changed = True
    lattice_terms = list(sub.values())
    irreducibles = [
        t for t in lattice_terms if not t.is_bottom and is_join_irreducible(t)
    ]
    assert irreducibles, "sublattice should contain at least one irreducible"
    for e in irreducibles:
        filt = [q for q in lattice_terms if leq(e, q)]
        keys = {q.sort_key() for q in filt}
        assert ctx.bottom().sort_key() not in keys
        for p, q in itertools.combinations(filt, 2):
            m = meet(p, q)
            assert any(term_eq(m, r) for r in lattice_terms if r.sort_key() in keys) or leq(
                e, m
            )
        for q in lattice_terms:
            if q.sort_key() in keys:
                for r in lattice_terms:
                    if leq(q, r):
                        assert r.sort_key() in keys
        for q in lattice_terms:
            complements = [
                r
                for r in lattice_terms
                if meet(q, r).is_bottom and join(q, r).is_top
            ]
            for r in complements:
                assert (q.sort_key() in keys) != (r.sort_key() in keys)
