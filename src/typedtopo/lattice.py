"""Canonical terms and order for the bounded distributive type lattice.

The lattice is generated by a finite poset of named generators together with
two complemented literals per point (``@x`` and ``~@x``, glued by
``@x & ~@x = BOT`` and ``@x | ~@x = TOP``). A term is a join of clauses,
each clause a meet of literals.

Each clause is stored against its `Context` as a cube of three ints
``(up, pos, neg)``, the cube bit-vectors of ESPRESSO (Brayton et al., *Logic
Minimization Algorithms for VLSI Synthesis*, 1984):

* ``up`` is the up-closure of the clause's generators in the poset, one bit
  per generator in sorted name order;
* ``pos`` and ``neg`` hold the points of its ``@x`` and ``~@x`` literals, one
  bit per point in the order of ``Context.points``, the bit order the opens
  use.

A clause ``c`` then implies ``d`` iff each of ``d``'s masks is a subset of
``c``'s. Canonical form keeps, for every term, exactly its maximal implicant
clauses: contradictory cubes (``pos & neg``) vanish, the cube set is closed
under Quine's consensus ("A way to simplify truth functions", 1955) on the
single bit of ``c.pos & d.neg | d.pos & c.neg``, and thinned to an antichain
under implication. With that, structural equality coincides with semantic
equality over all admissible valuations (monotone on the generator poset,
complement-consistent on points), equality and hashing of terms run over
the ints, and the clause-witnessing order test below is exact.

`parse_type_expr` reads the expression grammar (``&`` binds tighter than
``|``, both fold left, ``BOT`` and ``TOP`` are reserved) off one regex
tokenizer that runs over the whole text first, so a syntax error anywhere
wins over an unknown name. Each literal is encoded straight into its single
cube, already canonical, and the folds are `meet` and `join`.

The name-level `Clause` is the input of `normalize` and the decoded view
``TypeTerm.clauses``, whose generator antichain is the set of minimal
elements of ``up``; `term_from_json` encodes names straight into cubes.
Rendering (`format_term`, `term_to_json`, `TypeTerm.sort_key`) and the name
accessors (`TypeTerm.generators`, `point_ids`, `uses_only`) read the literal
list and sort key of each cube, built from its bits once per context
(`_Code.render`). The valuation machinery (`evaluate`,
`enumerate_valuations`) reads the decoded view and stays an independent
decision procedure used to cross-check the encoded one in the test suite.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import (
    BoundExceededError,
    ContextMismatchError,
    ExprSyntaxError,
    PreconditionError,
    UnknownSymbolError,
)

DEFAULT_VALUATION_BOUND = 20

GEN = "gen"
POS = "pos"
NEG = "neg"
_POINT_RANK = {POS: 1, NEG: 2}  # ``@x`` sorts before ``~@x``
_TOP_CUBE = (0, 0, 0)  # the empty clause


class Poset:
    """Finite partial order on generator names.

    The stored relation is reflexive and transitively closed; antisymmetry is
    checked on construction.
    """

    __slots__ = ("elements", "_pairs", "_hash")

    def __init__(self, elements: Iterable[str], pairs: Iterable[tuple[str, str]] = ()):
        elems = frozenset(elements)
        rel = {(a, a) for a in elems}
        for a, b in pairs:
            if a not in elems or b not in elems:
                raise UnknownSymbolError(f"order pair ({a!r}, {b!r}) uses undeclared generator")
            rel.add((a, b))
        for k in sorted(elems):  # Warshall's transitive closure, one pass per element
            rel |= {(a, d) for a, b in rel if b == k for c, d in rel if c == k}
        for a, b in sorted(rel):
            if a != b and (b, a) in rel:
                raise PreconditionError(f"order is not antisymmetric: {a!r} <= {b!r} <= {a!r}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_pairs", frozenset(rel))
        object.__setattr__(self, "_hash", hash((elems, frozenset(rel))))

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self._pairs

    @property
    def pairs(self) -> frozenset:
        return self._pairs

    def restricted(self, names: Iterable[str]) -> "Poset":
        sub = frozenset(names) & self.elements
        return Poset(sub, [(a, b) for (a, b) in self._pairs if a in sub and b in sub])

    def upsets(self) -> Iterator[frozenset]:
        """All upward-closed subsets of the poset (monotone 0/1 assignments)."""
        elems = sorted(self.elements)
        for bits in itertools.product((0, 1), repeat=len(elems)):
            chosen = {e for e, b in zip(elems, bits) if b}
            if all(b in chosen for a in chosen for b in elems if self.leq(a, b)):
                yield frozenset(chosen)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._pairs == other._pairs
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        strict = sorted((a, b) for (a, b) in self._pairs if a != b)
        return f"Poset({sorted(self.elements)!r}, {strict!r})"


@dataclass(frozen=True)
class Context:
    """Ambient generator poset plus the ordered point universe."""

    poset: Poset
    points: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise PreconditionError("duplicate point ids in context")
        clash = self.poset.elements & set(self.points)
        if clash:
            raise PreconditionError(f"names used as both generator and point: {sorted(clash)}")

    @cached_property
    def point_set(self) -> frozenset:
        return frozenset(self.points)

    @cached_property
    def _code(self) -> "_Code":
        return _Code(self.poset, self.points)

    def bottom(self) -> "TypeTerm":
        return TypeTerm(self, frozenset())

    def top(self) -> "TypeTerm":
        return TypeTerm(self, frozenset({_TOP_CUBE}))


@dataclass(frozen=True)
class Clause:
    """Meet of literals: generator antichain plus signed point sets."""

    gens: frozenset
    pos: frozenset
    neg: frozenset

    def literals(self) -> tuple[tuple[str, str], ...]:
        """``(kind, name)`` pairs: generators by name, then points by id."""
        signed = [(POS, x) for x in self.pos] + [(NEG, x) for x in self.neg]
        signed.sort(key=lambda lit: (lit[1], _POINT_RANK[lit[0]]))
        return tuple((GEN, g) for g in sorted(self.gens)) + tuple(signed)

    def sort_key(self) -> tuple:
        return _literals_key(self.literals())


def clause_of(gens=(), pos=(), neg=()) -> Clause:
    return Clause(frozenset(gens), frozenset(pos), frozenset(neg))


def _literals_key(literals) -> tuple:
    """Sort key of a clause from its literals: generators first, then points."""
    return tuple(
        (0, name, 0) if kind == GEN else (1, name, _POINT_RANK[kind]) for kind, name in literals
    )


class _Code:
    """The cube encoding of one context: literal bits, and the way back to names."""

    __slots__ = ("gens", "up", "strict_down", "point_bit", "by_name", "rendered")

    def __init__(self, poset: Poset, points: tuple[str, ...]):
        gens = tuple(sorted(poset.elements))
        self.gens = gens
        self.up = {
            g: sum(1 << j for j, h in enumerate(gens) if poset.leq(g, h)) for g in gens
        }
        self.strict_down = tuple(
            sum(1 << j for j, h in enumerate(gens) if h != g and poset.leq(h, g)) for g in gens
        )
        self.point_bit = {p: 1 << i for i, p in enumerate(points)}
        self.by_name = tuple(sorted(self.point_bit.items()))  # (point, bit) in name order
        self.rendered: dict = {}  # cube -> (sort key, literals)

    def encode(self, gens, pos, neg) -> tuple[int, int, int]:
        """The cube of the clause with these generator, ``@x`` and ``~@x`` names."""
        return (
            _mask(self.up, gens, "generator"),
            _mask(self.point_bit, pos, "point"),
            _mask(self.point_bit, neg, "point"),
        )

    def render(self, cube: tuple[int, int, int]) -> tuple[tuple, tuple]:
        """``(sort key, literals)`` of the decoded clause, built once per cube.

        The literals are those of `Clause.literals`, and the key that of
        `Clause.sort_key`, read straight off the bits: the generators are
        the minimal members of ``up``.
        """
        got = self.rendered.get(cube)
        if got is None:
            up, pos, neg = cube
            lits = [
                (GEN, g) for i, g in enumerate(self.gens)
                if up >> i & 1 and not self.strict_down[i] & up
            ]
            for p, b in self.by_name:
                if pos & b:
                    lits.append((POS, p))
                elif neg & b:
                    lits.append((NEG, p))
            got = self.rendered[cube] = (_literals_key(lits), tuple(lits))
        return got

    def decode(self, cube: tuple[int, int, int]) -> Clause:
        lits = self.render(cube)[1]
        return Clause(*(frozenset(n for k, n in lits if k == kind) for kind in (GEN, POS, NEG)))


def _mask(bits: dict, names, what: str) -> int:
    mask = 0
    for name in names:
        try:
            mask |= bits[name]
        except (KeyError, TypeError):  # TypeError: a name of an unhashable type
            raise UnknownSymbolError(f"unknown {what} {name!r}") from None
    return mask


def _absorb(cubes: Iterable[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Keep only cubes not implying another cube (the maximal antichain).

    ``c`` implies a different ``d`` only when ``d``'s masks are subsets of
    ``c``'s, one of them proper, so ``d`` is numerically no larger in any
    component and smaller in one: ``d < c`` as tuples. Taken in tuple order,
    a cube needs comparing only against the cubes kept before it.
    """
    kept: list[tuple[int, int, int]] = []
    for cube in sorted(cubes):
        u, p, n = cube
        for du, dp, dn in kept:
            if not (du & ~u or dp & ~p or dn & ~n):
                break
        else:
            kept.append(cube)
    return kept


def _consensus_closure(cubes: set) -> list[tuple[int, int, int]]:
    """The maximal implicants of a set of non-contradictory cubes.

    Two cubes have a non-contradictory consensus only when they clash on
    exactly one point, ``x = c.pos & d.neg | d.pos & c.neg``; it is
    ``(c.up | d.up, (c.pos | d.pos) - x, (c.neg | d.neg) - x)``.
    """
    work = _absorb(cubes)
    while True:
        fresh = set()
        for i, (cu, cp, cn) in enumerate(work):
            for du, dp, dn in work[i + 1:]:
                x = cp & dn | dp & cn
                if not x or x & (x - 1):
                    continue
                mu, mp, mn = cu | du, (cp | dp) & ~x, (cn | dn) & ~x
                for eu, ep, en in work:
                    if not (eu & ~mu or ep & ~mp or en & ~mn):
                        break
                else:
                    fresh.add((mu, mp, mn))
        if not fresh:
            return work
        fresh.update(work)
        work = _absorb(fresh)


def _canonical(ctx: Context, cubes: Iterable[tuple[int, int, int]]) -> "TypeTerm":
    """The canonical term of a raw cube collection over ``ctx``."""
    live = {c for c in cubes if not c[1] & c[2]}
    if len(live) < 2:  # no cube, or one: already canonical
        return TypeTerm(ctx, frozenset(live))
    return TypeTerm(ctx, frozenset(_consensus_closure(live)))


@dataclass(frozen=True)
class TypeTerm:
    """A lattice element in canonical join-of-meets form.

    ``cubes`` holds the canonical ``(up, pos, neg)`` cube of every clause
    (see the module docstring); empty means Bottom, and Top is exactly the
    empty cube. ``clauses`` is the same set decoded to name-level `Clause`
    objects; only the semantic reference paths, `evaluate` and
    `is_join_irreducible`, decode it. `generators`, `point_ids` and
    `uses_only` read the rendered literals of the cubes instead, once per
    term. Construct terms through `normalize`, `meet`, `join`, the parser
    or `term_from_json`; the constructor itself trusts its input.
    """

    ctx: Context
    cubes: frozenset

    @property
    def is_bottom(self) -> bool:
        return not self.cubes

    @property
    def is_top(self) -> bool:
        return _TOP_CUBE in self.cubes

    @cached_property
    def clauses(self) -> frozenset:
        decode = self.ctx._code.decode
        return frozenset(decode(c) for c in self.cubes)

    def _rendered(self) -> list[tuple[tuple, tuple]]:
        """``(sort key, literals)`` per clause, in sort-key order."""
        render = self.ctx._code.render
        return sorted(render(c) for c in self.cubes)

    def sort_key(self) -> tuple:
        return tuple(key for key, _ in self._rendered())

    @cached_property
    def _names(self) -> tuple[frozenset, frozenset]:
        """The generator names and the point ids of the literals."""
        render = self.ctx._code.render
        gens: set = set()
        points: set = set()
        for c in self.cubes:
            for kind, name in render(c)[1]:
                (gens if kind == GEN else points).add(name)
        return frozenset(gens), frozenset(points)

    def generators(self) -> frozenset:
        return self._names[0]

    def point_ids(self) -> frozenset:
        return self._names[1]

    def uses_only(self, gens: Iterable[str]) -> bool:
        """True when every clause draws its generators from ``gens``."""
        return self.generators().issubset(gens)

    def __hash__(self):
        # equal terms have equal cubes, and a frozenset caches its hash
        return hash(self.cubes)

    def __repr__(self):
        return f"TypeTerm({format_term(self)!r})"


def _require_same_context(a: TypeTerm, b: TypeTerm) -> None:
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatchError("terms come from different contexts")


def normalize(ctx: Context, clauses: Iterable[Clause]) -> TypeTerm:
    """Canonicalize a raw clause collection into a `TypeTerm`.

    Unknown generator or point names raise `UnknownSymbolError`.
    Contradictory clauses vanish, the clause set is consensus-closed and
    thinned to clause-order maximal members. Semantically equal inputs come
    out structurally identical.
    """
    encode = ctx._code.encode
    return _canonical(ctx, [encode(c.gens, c.pos, c.neg) for c in clauses])


def meet(a: TypeTerm, b: TypeTerm) -> TypeTerm:
    _require_same_context(a, b)
    return _canonical(a.ctx, {
        (au | bu, ap | bp, an | bn) for au, ap, an in a.cubes for bu, bp, bn in b.cubes
    })


def join(a: TypeTerm, b: TypeTerm) -> TypeTerm:
    _require_same_context(a, b)
    return _canonical(a.ctx, a.cubes | b.cubes)


def join_all(ctx: Context, terms: Iterable[TypeTerm]) -> TypeTerm:
    """The join of ``terms``, canonicalized once from the union of their cubes."""
    cubes: set = set()
    for t in terms:
        if t.ctx is not ctx and t.ctx != ctx:
            raise ContextMismatchError("terms come from different contexts")
        cubes |= t.cubes
    return _canonical(ctx, cubes)


def leq(a: TypeTerm, b: TypeTerm) -> bool:
    """Quotient order: every clause of ``a`` implies some clause of ``b``.

    On canonical forms this clause-witnessing test agrees with the valuation
    semantics (each clause of ``a`` is an implicant of ``a`` hence of ``b``,
    and canonical ``b`` lists all maximal implicants); the agreement is
    exercised wholesale by the acceptance suite.
    """
    _require_same_context(a, b)
    theirs = b.cubes
    for u, p, n in a.cubes:
        for bu, bp, bn in theirs:
            if not (bu & ~u or bp & ~p or bn & ~n):
                break
        else:
            return False
    return True


def term_eq(a: TypeTerm, b: TypeTerm) -> bool:
    _require_same_context(a, b)
    return a.cubes == b.cubes


@dataclass(frozen=True)
class Valuation:
    """Admissible 0/1 assignment on a sub-context.

    ``gens_true`` must be an up-set of the restricted poset; a negated point
    literal evaluates to the complement of its point bit, which encodes the
    two gluing identities of the lattice.
    """

    gens: tuple[str, ...]
    points: tuple[str, ...]
    gens_true: frozenset
    points_true: frozenset

    @staticmethod
    def make(gens, points, gens_true, points_true) -> "Valuation":
        return Valuation(tuple(gens), tuple(points), frozenset(gens_true), frozenset(points_true))


def evaluate(t: TypeTerm, v: Valuation) -> int:
    """Join-of-meets evaluation of ``t`` under ``v`` (0 or 1).

    ``~@x`` holds only for a point ``x`` of the valuation's sub-context that
    is not true, so a literal outside the sub-context never holds.
    """
    points_false = frozenset(v.points) - v.points_true
    for c in t.clauses:
        if c.gens <= v.gens_true and c.pos <= v.points_true and c.neg <= points_false:
            return 1
    return 0


def enumerate_valuations(
    ctx: Context,
    gens: Optional[Iterable[str]] = None,
    points: Optional[Iterable[str]] = None,
) -> Iterator[Valuation]:
    """Yield every admissible valuation on the chosen sub-context.

    Generator parts range over up-sets of the restricted poset, point parts
    are free. Raises `BoundExceededError` when the sub-context has more
    literals than `DEFAULT_VALUATION_BOUND`; narrow the query instead of
    raising the bound.
    """
    gen_list = sorted(ctx.poset.elements if gens is None else frozenset(gens))
    point_list = sorted(ctx.point_set if points is None else frozenset(points))
    for g in gen_list:
        if g not in ctx.poset.elements:
            raise UnknownSymbolError(f"unknown generator {g!r}")
    for x in point_list:
        if x not in ctx.point_set:
            raise UnknownSymbolError(f"unknown point {x!r}")
    if len(gen_list) + len(point_list) > DEFAULT_VALUATION_BOUND:
        raise BoundExceededError(
            f"{len(gen_list)} generators + {len(point_list)} points exceed the valuation "
            f"bound of {DEFAULT_VALUATION_BOUND}; restrict the query to fewer literals"
        )
    sub = ctx.poset.restricted(gen_list)
    for upset in sub.upsets():
        for k in range(len(point_list) + 1):
            for chosen in itertools.combinations(point_list, k):
                yield Valuation.make(gen_list, point_list, upset, frozenset(chosen))


def relevant_valuations(*terms: TypeTerm) -> Iterator[Valuation]:
    """Valuations on the literals occurring in any of ``terms``."""
    ctx = terms[0].ctx
    gens: set[str] = set()
    points: set[str] = set()
    for t in terms:
        _require_same_context(terms[0], t)
        gens |= t.generators()
        points |= t.point_ids()
    return enumerate_valuations(ctx, gens, points)


def leq_by_valuations(a: TypeTerm, b: TypeTerm) -> bool:
    """Order decided by exhaustive evaluation; the semantic reference."""
    return all(evaluate(a, v) <= evaluate(b, v) for v in relevant_valuations(a, b))


def is_join_irreducible(t: TypeTerm) -> bool:
    """True when the satisfying valuations of ``t`` have one minimal element.

    Valuations compare pointwise over all literal coordinates, so two are
    comparable only with identical point parts. The enumeration runs over the
    occurring generators and the *whole* ambient point set; the equivalent
    structural reading (a single clause mentioning every point) is computed
    as a fast path and the two must agree.
    """
    if t.is_bottom:
        return False
    ctx = t.ctx
    gens = sorted(t.generators())
    points = sorted(ctx.point_set)
    if len(gens) + len(points) > DEFAULT_VALUATION_BOUND:
        raise BoundExceededError(
            f"join-irreducibility check needs {len(gens) + len(points)} literals, "
            f"over the bound of {DEFAULT_VALUATION_BOUND}"
        )
    structural = False
    if len(t.clauses) == 1:
        (c,) = t.clauses
        structural = (c.pos | c.neg) == ctx.point_set
    by_points: dict[frozenset, list[frozenset]] = {}
    for v in enumerate_valuations(ctx, gens, points):
        if evaluate(t, v):
            by_points.setdefault(v.points_true, []).append(v.gens_true)
    minima = 0
    for gsets in by_points.values():
        minima += sum(
            1 for g in gsets if not any(h != g and h <= g for h in gsets)
        )
    semantic = minima == 1
    if semantic != structural:  # pragma: no cover - would witness a canonicity bug
        raise AssertionError(f"irreducibility fast path disagrees on {t!r}")
    return semantic


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


_TOKEN = re.compile(r"\s*((~@|@|~)(\w*)|\w+|[&|()]|\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, name, position)`` per token, then ``("end", "", len(text))``.

    A literal's kind is `GEN`, `POS` or `NEG`; an operator or a parenthesis
    is its own kind.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        tok, sign, name = m.groups()
        at = m.start(1)
        if sign == "~":
            raise ExprSyntaxError("expected '@' after '~'", at)
        if sign and not name:
            raise ExprSyntaxError(f"missing point id after {sign!r}", at)
        if sign:
            tokens.append((POS if sign == "@" else NEG, name, at))
        elif tok in "&|()":
            tokens.append((tok, tok, at))
        elif tok[0].isalpha() or tok[0] == "_":
            tokens.append((GEN, tok, at))
        else:
            raise ExprSyntaxError(f"unexpected character {tok[0]!r}", at)
    tokens.append(("end", "", len(text)))
    return tokens


def parse_type_expr(text: str, ctx: Context) -> TypeTerm:
    """Parse ``gen & @x | ~@y``-style expressions into a canonical term."""
    tokens = _tokenize(text)[::-1]  # the next token is the last
    take = tokens.pop
    encode = ctx._code.encode

    def fold(op, sep: str, operand) -> TypeTerm:
        t = operand()
        while tokens[-1][0] == sep:
            take()
            t = op(t, operand())
        return t

    def term() -> TypeTerm:
        return fold(join, "|", lambda: fold(meet, "&", literal))

    def literal() -> TypeTerm:
        kind, name, at = take()
        if kind == "(":
            t = term()
            kind, _, at = take()
            if kind != ")":
                raise ExprSyntaxError("expected ')'", at)
            return t
        if kind == GEN and name in ("BOT", "TOP"):
            return ctx.bottom() if name == "BOT" else ctx.top()
        if kind in (GEN, POS, NEG):  # one literal cube is never contradictory
            cube = encode(*([name] if k == kind else () for k in (GEN, POS, NEG)))
            return TypeTerm(ctx, frozenset({cube}))
        raise ExprSyntaxError("expected a literal", at)

    t = term()
    kind, _, at = tokens[-1]
    if kind != "end":
        raise ExprSyntaxError("trailing input after expression", at)
    return t


_PREFIX = {GEN: "", POS: "@", NEG: "~@"}


def format_term(t: TypeTerm) -> str:
    """Render a canonical term back into the expression grammar."""
    if t.is_bottom:
        return "BOT"
    if t.is_top:
        return "TOP"
    return " | ".join(
        " & ".join(_PREFIX[kind] + name for kind, name in lits) for _, lits in t._rendered()
    )


def term_to_json(t: TypeTerm):
    if t.is_top:
        return {"top": True}
    return {"clauses": [[{kind: name} for kind, name in lits] for _, lits in t._rendered()]}


def term_from_json(ctx: Context, obj) -> TypeTerm:
    """The canonical term of a `term_to_json` document, read into cubes directly.

    Documents may be hand-written, so the cubes are canonicalized. A
    document other than ``{"top": true}`` or ``{"clauses": [...]}``,
    clauses that are not a list of lists, or a malformed literal anywhere
    (one that is not an object with exactly one ``gen``, ``pos`` or ``neg``
    key) raise `PreconditionError` before an unknown name, or a name that
    is not a string, raises `UnknownSymbolError`.
    """
    if not isinstance(obj, dict) or len(obj) != 1:
        raise PreconditionError(f"bad term encoding: {obj!r}")
    if obj.get("top") is True:
        return ctx.top()
    clauses = []
    listed = obj.get("clauses")
    if not isinstance(listed, list):
        raise PreconditionError(f"bad term encoding: {obj!r}")
    for lits in listed:
        if not isinstance(lits, list):
            raise PreconditionError(f"bad clause encoding: {lits!r}")
        gens, pos, neg = [], [], []
        for entry in lits:
            if not isinstance(entry, dict) or len(entry) != 1:
                raise PreconditionError(f"bad literal encoding: {entry!r}")
            if GEN in entry:
                gens.append(entry[GEN])
            elif POS in entry:
                pos.append(entry[POS])
            elif NEG in entry:
                neg.append(entry[NEG])
            else:
                raise PreconditionError(f"bad literal encoding: {entry!r}")
        clauses.append((gens, pos, neg))
    encode = ctx._code.encode
    return _canonical(ctx, [encode(*names) for names in clauses])
