"""Brute-force reference searches and the whole-space property checker.

These functions are the trusted side of every dual-route check in the test
suite. They re-derive answers by exhaustive enumeration from the family
definitions and deliberately share none of the counting or graph-search
logic of the operations they judge:

* `exhaustive_min_dense` enumerates candidate subsets by increasing size
  with a self-contained density predicate (independent of the maximal-class
  formula in `closure.min_chain_dense`);
* `exhaustive_connected` enumerates all supported subsets through two
  points (independent of the overlap-graph search in `connect`);
* `check_space` replays the structural theorems of the domain over a whole
  space, listing each check with its quantifier ranges and counterexamples.
  Its chain theorems are decided in one pass per realized chain over the
  int mask rows of the chain's pool and base. It walks the chains as
  tuples of realized-type indexes read off the order rows, and reads each
  one's pool and base from `chains` by those indexes, so it judges them,
  but decides every theorem by its own mask algebra.

Budgets make the exponential cost explicit: exceeding one raises
`OracleSkip`, never a silent pass. The theorem replay counts its chains
before it walks them, against `MAX_CHAINS`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import basis, chains as chains_mod, connect as connect_mod, lattice
from . import space as space_mod
from .chains import TypeChain
from .errors import OracleSkip
from .space import TypedSpace, realized_types

DEFAULT_DENSE_POINTS = 12
DEFAULT_CONNECT_POINTS = 10
MAX_SUBSETS = 1 << 20
# realized chains one theorem replay may walk: an 8-point street has 65,280,
# replayed in 3.4 s on a 2-core VM, and a 9-point street 261,632
MAX_CHAINS = 100_000


@dataclass(frozen=True)
class SearchBudget:
    """Hard limits for the exhaustive searches."""

    max_points: int = DEFAULT_DENSE_POINTS

    def __post_init__(self):
        if self.max_points <= 0:
            raise OracleSkip("budgets must be positive")


def exhaustive_min_dense(
    space: TypedSpace, chain: TypeChain, budget: Optional[SearchBudget] = None
) -> tuple[int, tuple[tuple[str, ...], ...]]:
    """Minimum dense size by subset enumeration, with every optimal witness.

    Density is decided directly from the base families: unsupported points
    must be in the candidate, supported points need each family member hit.
    """
    budget = budget or SearchBudget()
    n = len(space.points)
    if n > budget.max_points:
        raise OracleSkip(f"{n} points exceed the dense-search budget of {budget.max_points}")
    pool = chains_mod.chain_base_pool(space, chain)
    fams = []
    forced = 0
    for i in range(n):
        fam = [m for m in pool if m >> i & 1]
        fams.append(fam)
        if not fam:
            forced |= 1 << i
    if (1 << n) > MAX_SUBSETS:
        raise OracleSkip("subset budget exceeded")

    def dense(mask: int) -> bool:
        if (forced & ~mask) != 0:
            return False
        for i in range(n):
            if fams[i] and any(not (m & mask) for m in fams[i]):
                return False
        return True

    for size in range(n + 1):
        witnesses = []
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if dense(mask):
                witnesses.append(space.ids_of(mask))
        if witnesses:
            return size, tuple(sorted(witnesses))
    raise AssertionError("the full point set is always dense")  # pragma: no cover


def exhaustive_connected(
    space: TypedSpace,
    chain: TypeChain,
    x: str,
    y: str,
    budget: Optional[SearchBudget] = None,
) -> bool:
    """Whether any supported subset through both points is chain-connected.

    The search ranges over subsets of the union of the chain's open pool:
    points outside it lie in no pool member, so a set containing one is
    never covered by two pool opens and the separation test degenerates;
    restricting to supported subsets keeps the notion meaningful.
    """
    budget = budget or SearchBudget(max_points=DEFAULT_CONNECT_POINTS)
    n = len(space.points)
    if n > budget.max_points:
        raise OracleSkip(
            f"{n} points exceed the connectivity budget of {budget.max_points}"
        )
    xbit, ybit = space.point_bit(x), space.point_bit(y)
    supported = 0
    for m in chains_mod.chain_pool(space, chain):
        supported |= m
    if (xbit | ybit) & ~supported:
        return False
    free = supported & ~(xbit | ybit)
    free_bits = [1 << i for i in range(n) if free >> i & 1]
    if (1 << len(free_bits)) > MAX_SUBSETS:
        raise OracleSkip("subset budget exceeded")
    for r in range(len(free_bits) + 1):
        for combo in itertools.combinations(free_bits, r):
            mask = xbit | ybit
            for b in combo:
                mask |= b
            ok, _ = connect_mod.is_chain_connected(space, space.ids_of(mask), chain)
            if ok:
                return True
    return False


# ---------------------------------------------------------------------------
# whole-space theorem replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    passed: bool
    counterexamples: tuple = ()


@dataclass(frozen=True)
class CheckReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)


def _chain_count(rt, budget: int) -> int:
    """The realized 2- and 3-level chains, counted from the order rows.

    With ``A_j`` the realized types at or above ``j`` and ``B_j`` those at
    or below it, there are ``sum |A_j|`` two-level chains and
    ``sum |B_j| * |A_j|`` three-level ones, ``j`` being the middle level.
    The rows are read by index from ``rt.up`` and ``rt.down``, and the count
    stops once the total passes ``budget``.
    """
    total = 0
    for above, below in zip(rt.up, rt.down):
        total += above.bit_count() * (1 + below.bit_count())
        if total > budget:
            break
    return total


def _chain_levels(rt) -> list[tuple[int, ...]]:
    """Ascending realized-type index tuples of length 2, then 3.

    Each level's order row is read once by index; bit ``j`` of ``rt.up[i]``
    says ``terms[i] <= terms[j]``. A valid space realizes neither Bottom nor
    Top, so every realized type is a chain level.
    """
    above = [space_mod.bit_indexes(row) for row in rt.up]
    return [(i, j) for i, js in enumerate(above) for j in js] + [
        (i, j, k) for i, js in enumerate(above) for j in js for k in above[j]
    ]


def _covered(members, u: int) -> int:
    """The union of the ``members`` that lie inside ``u``."""
    covered = 0
    for m in members:
        if (m & u) == m:
            covered |= m
    return covered


def _bounds(space: TypedSpace) -> tuple[list, set]:
    """The meet- and join-bound failures of all open pairs, and their Bottom meets.

    A type is at or below ``a ^ b`` iff it is at or below both, and at or
    above ``a v b`` iff it is at or above both, so each bound is two order
    facts about nested opens, decided once per pair in a memo keyed
    ``(inner, outer)``. Where ``sigma(u & v)`` is not Bottom and its bound
    holds, it is a lower bound of the meet other than Bottom; only the other
    pairs call `lattice.meet`. Returns the failures in pair order and the
    pairs ``u <= v`` whose types meet at Bottom.
    """
    sig, ids, memo = space.sigma, space.ids_of, {}

    def le(inner: int, outer: int) -> bool:
        if (inner, outer) not in memo:
            memo[inner, outer] = lattice.leq(sig[inner], sig[outer])
        return memo[inner, outer]

    failures, bottoms = [], set()
    opens = sorted(m for m in space.opens if m in sig)
    for i, u in enumerate(opens):
        for v in opens[i:]:
            w, j = u & v, u | v
            if w in sig:
                ok = le(w, u) and le(w, v)
                if (not ok or sig[w].is_bottom) and lattice.meet(sig[u], sig[v]).is_bottom:
                    bottoms.add((u, v))
                if not ok:
                    failures.append(("meet-bound", ids(u), ids(v)))
            if j in sig and not (le(u, j) and le(v, j)):
                failures.append(("join-bound", ids(u), ids(v)))
    return failures, bottoms


def check_space(space: TypedSpace) -> CheckReport:
    """Replay the structural properties of a typed space and its chains.

    Covers: topology closure, the three type-mapping conditions, the meet
    and join bounds (implied by the rest, so validation leaves them out and
    `_bounds` re-derives them from nested-pair order facts), incompatibility of
    forcing, self-irreducibility of every open at its own type, the
    anchored decomposition identity for every realized anchor, the base
    property and the pure-family membership claim for realized chains, the
    closure core identity, the unsupported-region identities, and the three
    connectivity statements.

    When validation passes and the space is strictly typed, the realized
    chains are counted from the order rows first, and more than `MAX_CHAINS`
    of them raise `OracleSkip` before any pair loop runs. The chains are
    walked as ascending tuples of realized-type indexes, and a chain's text
    is formatted only for a counterexample. The chain theorems are decided
    in one pass per chain over the int masks of its pool and base, read
    once each by `chains.realized_chain_pools`. A pool member has a
    base member inside it at each of its points iff the base members inside
    it cover it; only a chain where one does not is walked point by point
    for the counterexamples. One pass per point over the base gives its
    core and the supported points, and the region identities compare masks.
    The incompatible-forcing check reads the Bottom meets `_bounds` found,
    one representative open per type. Once the bounds pass, a Bottom meet
    means a Bottom intersection type, which validation allows only on the
    empty set: so that check cannot fail after them.
    """
    results = []
    sig = space.sigma
    ids = space.ids_of

    report = space_mod.validate_type_mapping(space)
    strictness = space_mod.strictness(space)
    if report.ok and strictness.strict:
        rt = realized_types(space)
        count = _chain_count(rt, MAX_CHAINS)
        if count > MAX_CHAINS:
            raise OracleSkip(
                f"at least {count} realized chains exceed the theorem-replay budget "
                f"of {MAX_CHAINS}"
            )
    bounds, bottoms = _bounds(space)
    bad = [(f.code,) + tuple(f.witness) for f in report.failures] + bounds
    type_ok = not bad
    results.append(
        CheckResult(
            "type-mapping",
            f"all {len(space.opens)}^2 open pairs",
            type_ok,
            tuple(bad[:5]),
        )
    )
    results.append(
        CheckResult(
            "strictly-typed",
            "all nested nonempty open pairs",
            strictness.strict,
            (strictness.witness,) if strictness.witness else (),
        )
    )
    if not (type_ok and strictness.strict):
        return CheckReport(tuple(results))

    nonempty = space.nonempty_opens()

    # incompatible forcing: disjoint-typed realized pairs never share a point;
    # the opens are closed under intersection and typed, so `_bounds` saw
    # every two types' first opens
    bad = []
    first = [ms[0] for ms in rt.opens_by_type]
    for i in range(len(rt)):
        for j in range(i + 1, len(rt)):
            if (min(first[i], first[j]), max(first[i], first[j])) not in bottoms:
                continue
            for u in rt.opens_by_type[i]:
                for v in rt.opens_by_type[j]:
                    if u & v:
                        bad.append((ids(u), ids(v)))
    results.append(
        CheckResult(
            "incompatible-forcing",
            f"{len(rt)} realized types, disjoint-meet pairs",
            not bad,
            tuple(bad[:5]),
        )
    )

    # every open is join-irreducible at its own type
    bad = []
    for m in nonempty:
        if not basis.is_join_irreducible(space, m, sig[m]):
            bad.append((ids(m),))
    results.append(
        CheckResult(
            "self-irreducible",
            f"all {len(nonempty)} nonempty opens",
            not bad,
            tuple(bad[:5]),
        )
    )

    # anchored decomposition: irreducible members inside any anchored open cover it
    bad = []
    for i, p in enumerate(rt.terms):
        fam = sorted(basis.opens_above(space, p))
        base = basis.irreducibles_above(space, p)
        for u in fam:
            if _covered(base, u) != u:
                bad.append((lattice.format_term(p), ids(u)))
    results.append(
        CheckResult(
            "anchored-decomposition",
            f"all {len(rt)} realized anchors x their families",
            not bad,
            tuple(bad[:5]),
        )
    )

    # the chain theorems, one pass per chain: base property, closure core,
    # unsupported region, and connectivity of irreducible base members and
    # anchored family members
    chain_list = _chain_levels(rt)
    terms, generators = rt.terms, rt.generators
    points = space.points
    full = space.full_mask

    def text(levels: tuple[int, ...]) -> str:
        return " ; ".join(lattice.format_term(terms[i]) for i in levels)

    bad_nbhd, bad_core, bad_region, bad_base, bad_anchor = [], [], [], [], []
    for levels in chain_list:
        pool, base = chains_mod.realized_chain_pools(space, levels)
        # every sandwiched neighborhood contains a base member at each point
        if any(_covered(base, u) != u for u in pool):
            for i, x in enumerate(points):
                bit = 1 << i
                for u in pool:
                    if u & bit and not any((v & u) == v and (v & bit) for v in base):
                        bad_nbhd.append((text(levels), x, ids(u)))
        # every nonempty base family has a least member, its core
        supported = 0
        for i, x in enumerate(points):
            bit = 1 << i
            core = -1
            for m in base:
                if m & bit:
                    core &= m
            if core != -1:
                supported |= bit
                if core not in base:
                    bad_core.append((text(levels), x))
        # the uncovered remainder is the unsupported region, which is closed
        empty = full & ~supported
        covered = free = 0
        for m in base:
            if m & supported:
                covered |= m
            if not m & empty:
                free |= m
        remainder = full & ~covered
        if remainder != empty:
            bad_region.append((text(levels), "remainder", ids(remainder ^ empty)))
        else:
            cut_off = supported & ~free
            bad_region += [(text(levels), "not-closed", x)
                           for i, x in enumerate(points) if cut_off >> i & 1]
        # no first-level irreducible is split by two disjoint pool members
        disjoint = [(u, v) for u, v in itertools.combinations(sorted(pool), 2) if not u & v]
        if not disjoint:
            continue
        support = 0
        for i in levels:
            support |= generators[i]
        row = rt.visible(support) & rt.up[levels[0]]
        for m in sorted(basis.irreducibles(space, row)):
            for u, v in disjoint:
                if (m & ~(u | v)) == 0 and (m & u) and (m & v):
                    w = (ids(u), ids(v))
                    bad_anchor.append((text(levels), ids(m), w))
                    if m in base:
                        bad_base.append((text(levels), ids(m), w))
                    break
    results.append(
        CheckResult(
            "neighborhood-base",
            f"{len(chain_list)} realized chains x {len(points)} points",
            not bad_nbhd,
            tuple(bad_nbhd[:5]),
        )
    )

    # the pure families: per generator, the nonempty opens typed purely in
    # it and at or below it, each with the chain from its type up to the
    # generator; every member is a base member of its chain
    families = []
    for gen in sorted(space.poset.elements):
        top = lattice.normalize(space.ctx, [lattice.clause_of(gens=[gen])])
        family = []
        for m in nonempty:
            t = sig[m]
            if t.uses_only({gen}) and lattice.leq(t, top):
                family.append((m, TypeChain((t, t) if lattice.term_eq(t, top) else (t, top))))
        families.append((gen, family))
    bad = []
    for gen, family in families:
        unbased = [m for m, chain in family if m not in chains_mod.chain_base_pool(space, chain)]
        bad += [(gen, x, ids(m)) for i, x in enumerate(points) for m in unbased if m >> i & 1]
    results.append(
        CheckResult(
            "pure-family-base",
            "all generators x points x family members",
            not bad,
            tuple(bad[:5]),
        )
    )
    n = len(chain_list)
    for name, scope, bad in (
        ("closure-core", f"{n} realized chains x supported points", bad_core),
        ("unsupported-region", f"{n} realized chains", bad_region),
        ("base-connectivity",
         f"{n} realized chains x first-level-irreducible base members", bad_base),
        ("anchored-connectivity", f"{n} realized chains x first-level irreducibles",
         bad_anchor),
    ):
        results.append(CheckResult(name, scope, not bad, tuple(bad[:5])))
    bad_pure = []
    for gen, family in families:
        for m, chain in family:
            ok, w = connect_mod.is_chain_connected(space, ids(m), chain)
            if not ok:
                bad_pure.append((gen, ids(m), (w.left, w.right)))
    results.append(
        CheckResult(
            "pure-family-connectivity",
            "all generators x pure family members",
            not bad_pure,
            tuple(bad_pure[:5]),
        )
    )

    return CheckReport(tuple(results))
