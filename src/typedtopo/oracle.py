"""Brute-force reference searches and the whole-space property checker.

These functions are the trusted side of every dual-route check in the test
suite. They re-derive answers by exhaustive enumeration from the family
definitions and deliberately share none of the counting or graph-search
logic of the operations they judge:

* `exhaustive_min_dense` enumerates candidate subsets by increasing size
  with a self-contained density predicate, the definition and not the
  maximal-class formula in `closure.min_chain_dense`: a dense set holds
  every unsupported point, so only supersets of those forced points are
  tried, one per combination of the free points, and a candidate is dense
  iff it meets every base member;
* `exhaustive_connected` enumerates all supported subsets through two
  points, each decided by the disjoint pairs of the chain's pool (sharing
  nothing with `connect`);
* `check_space` replays the structural theorems of the domain over a whole
  space, listing each check with its quantifier ranges and counterexamples:
  the type mapping with its meet and join bounds, strictness,
  self-irreducibility, the anchored decomposition, and the base, closure
  core and connectivity theorems of the realized chains and the pure
  families. Each is a small function, and every one can fail. It reads
  realized types by index (`RealizedTypes.up`, ``open_masks``), never the
  cube table, and the realized chains' pools and bases as int rows over
  the opens from one `chains` call. It decides each chain theorem on those
  rows by tables read off the open masks alone, and expands a row into
  masks only for a counterexample or a pool with disjoint members.

Budgets make the exponential cost explicit: exceeding one raises
`OracleSkip`, never a silent pass. The theorem replay counts its chains
before it walks them, against `MAX_CHAINS`.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Optional

from . import basis, chains as chains_mod, connect as connect_mod, lattice
from . import space as space_mod
from .chains import TypeChain
from .errors import OracleSkip, PreconditionError
from .space import TypedSpace, realized_types

DEFAULT_DENSE_POINTS = 12
DEFAULT_CONNECT_POINTS = 10
MAX_SUBSETS = 1 << 20
# realized chains one theorem replay may walk: on a 2-core VM an 8-person lineage's 65,280
# take 0.46 s and a 9-person lineage's 261,632 2.5 s, so 180,000 take about 1.7 s
MAX_CHAINS = 180_000


def point_budget(max_points: Optional[int], default: int) -> int:
    """``max_points``, or ``default`` without one; a non-positive budget raises `OracleSkip`."""
    if max_points is None:
        return default
    if max_points <= 0:
        raise OracleSkip("budgets must be positive")
    return max_points


def exhaustive_min_dense(
    space: TypedSpace, chain: TypeChain, max_points: Optional[int] = None
) -> tuple[int, tuple[tuple[str, ...], ...]]:
    """Minimum dense size by subset enumeration, with every optimal witness.

    Density is decided directly from the base family: a point in no base
    member is forced into every dense set, and a supported point needs each
    member through it hit, which for all of them at once says that the
    candidate meets every member, each a nonempty open. So only the forced
    points joined with each combination of the free (supported) points are
    tried, by increasing size.
    """
    budget = point_budget(max_points, DEFAULT_DENSE_POINTS)
    n = len(space.points)
    if n > budget:
        raise OracleSkip(f"{n} points exceed the dense-search budget of {budget}")
    members = chains_mod.chain_base_pool(space, chain)
    supported = functools.reduce(operator.or_, members, 0)
    forced = space.full_mask & ~supported
    if (1 << n) > MAX_SUBSETS:
        raise OracleSkip("subset budget exceeded")
    free = [1 << i for i in range(n) if supported >> i & 1]
    for size in range(len(free) + 1):
        witnesses = []
        for combo in itertools.combinations(free, size):
            mask = forced | sum(combo)
            if all(m & mask for m in members):
                witnesses.append(space.ids_of(mask))
        if witnesses:
            return forced.bit_count() + size, tuple(sorted(witnesses))
    raise AssertionError("the full point set is always dense")  # pragma: no cover


def exhaustive_connected(
    space: TypedSpace,
    chain: TypeChain,
    x: str,
    y: str,
    max_points: Optional[int] = None,
) -> bool:
    """Whether any supported subset through both points is chain-connected.

    The search ranges over subsets of the union of the chain's open pool:
    points outside it lie in no pool member, so a set containing one is
    never covered by two pool opens and the separation test degenerates;
    restricting to supported subsets keeps the notion meaningful, and an
    unsupported end point answers False, though ``connect --set`` calls a
    set holding it connected. A subset is separated iff two disjoint pool
    members cover it and both meet it. It is the slow twin of
    `connect.find_connection`, with the same domain and the same
    convention, and needs two distinct points.
    """
    if x == y:
        raise PreconditionError("a connection needs two distinct points")
    budget = point_budget(max_points, DEFAULT_CONNECT_POINTS)
    n = len(space.points)
    if n > budget:
        raise OracleSkip(f"{n} points exceed the connectivity budget of {budget}")
    xbit, ybit = space.point_bit(x), space.point_bit(y)
    pool = chains_mod.chain_pool(space, chain)
    supported = functools.reduce(operator.or_, pool, 0)
    if (xbit | ybit) & ~supported:
        return False
    free = supported & ~(xbit | ybit)
    free_bits = [1 << i for i in range(n) if free >> i & 1]
    if (1 << len(free_bits)) > MAX_SUBSETS:
        raise OracleSkip("subset budget exceeded")
    pairs = [(u, v) for u, v in itertools.combinations(pool, 2) if not u & v]
    for r in range(len(free_bits) + 1):
        for combo in itertools.combinations(free_bits, r):
            mask = xbit | ybit | sum(combo)
            if not any(mask & ~(u | v) == 0 and mask & u and mask & v for u, v in pairs):
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


def _chain_count(rt, budget: int) -> int:
    """The realized 2- and 3-level chains, counted from the order rows.

    With ``A_i`` the realized types at or above ``i``, there are ``|A_i|``
    two-level chains starting at ``i`` and ``sum |A_j|`` over ``j`` in
    ``A_i`` three-level ones. The rows are read by index from ``rt.up``
    alone, and the count stops once the total passes ``budget``.
    """
    sizes = [row.bit_count() for row in rt.up]
    total = 0
    for row, size in zip(rt.up, sizes):
        total += size + sum(map(sizes.__getitem__, space_mod.bit_indexes(row)))
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


def _bounds(space: TypedSpace) -> list:
    """The meet- and join-bound failures of the typed open pairs, in pair order.

    The pairs are ``u <= v`` in mask order, the diagonal included: n(n+1)/2
    of them for n typed opens. A type is at or below ``a ^ b`` iff it is at
    or below both, and at or above ``a v b`` iff it is at or above both, so
    each bound is two order facts about nested opens, decided once per pair
    in a memo keyed ``(inner, outer)``: no pair is met or joined.
    """
    sig, ids, memo = space.sigma, space.ids_of, {}

    def le(inner: int, outer: int) -> bool:
        if (inner, outer) not in memo:
            memo[inner, outer] = lattice.leq(sig[inner], sig[outer])
        return memo[inner, outer]

    failures = []
    opens = sorted(m for m in space.opens if m in sig)
    for i, u in enumerate(opens):
        for v in opens[i:]:
            w, j = u & v, u | v
            if w in sig and not (le(w, u) and le(w, v)):
                failures.append(("meet-bound", ids(u), ids(v)))
            if j in sig and not (le(u, j) and le(v, j)):
                failures.append(("join-bound", ids(u), ids(v)))
    return failures


def _result(name: str, scope: str, bad: list) -> CheckResult:
    """A check that passed iff ``bad`` is empty, with its first five counterexamples."""
    return CheckResult(name, scope, not bad, tuple(bad[:5]))


def _type_mapping(space: TypedSpace, report: space_mod.ValidationReport) -> CheckResult:
    """Validation's failures, then the meet and join bounds of `_bounds`."""
    bad = [(f.code,) + tuple(f.witness) for f in report.failures] + _bounds(space)
    n = sum(m in space.sigma for m in space.opens)
    return _result("type-mapping", f"{n * (n + 1) // 2} open pairs U <= V", bad)


def _self_irreducible(space: TypedSpace, rt) -> CheckResult:
    """Every nonempty open of type ``j`` is join-irreducible in the row ``rt.up[j]``."""
    starts = itertools.accumulate(map(len, rt.opens_by_type), initial=0)  # each type's first bit
    bad = sorted(m for opens, row, k in zip(rt.opens_by_type, rt.up, starts)
                 for i, m in enumerate(opens) if not basis.irreducibles(space, row) >> k + i & 1)
    n = len(rt.open_masks)
    return _result("self-irreducible", f"all {n} nonempty opens", [(space.ids_of(m),) for m in bad])


def _anchored_decomposition(space: TypedSpace, rt) -> CheckResult:
    """The irreducible members inside any anchored open cover it, by anchor row."""
    bad = []
    for p, row in zip(rt.terms, rt.up):
        base = [rt.open_masks[k] for k in space_mod.bit_indexes(basis.irreducibles(space, row))]
        bad += [(lattice.format_term(p), space.ids_of(u))
                for u in sorted(m for j in space_mod.bit_indexes(row) for m in rt.opens_by_type[j])
                if functools.reduce(operator.or_, (m for m in base if m & u == m), 0) != u]
    return _result("anchored-decomposition",
                   f"all {len(rt)} realized anchors x their families", bad)


def _chain_witnesses(space: TypedSpace, rt, bad: list) -> list:
    """The first five raw chain counterexamples, formatted for a result.

    A raw one is a chain's level indexes followed by points and open masks,
    two disjoint masks as a pair; the levels become the chain's text and
    each mask its sorted ids. The rest are never formatted.
    """
    def shown(part):
        if isinstance(part, tuple):
            return tuple(map(shown, part))
        return space.ids_of(part) if isinstance(part, int) else part

    return [
        (" ; ".join(lattice.format_term(rt.terms[i]) for i in levels), *map(shown, rest))
        for levels, *rest in bad[:5]
    ]


def _row_tables(masks, n: int) -> tuple[list, list, list]:
    """The open rows through each of ``n`` points, not containing each open, disjoint from it."""
    through = [sum(1 << k for k, m in enumerate(masks) if m >> i & 1) for i in range(n)]
    every = (1 << len(masks)) - 1
    hits = [[through[i] for i in space_mod.bit_indexes(m)] for m in masks]  # through its points
    return (through, [every & ~functools.reduce(operator.and_, h, every) for h in hits],
            [every & ~functools.reduce(operator.or_, h, 0) for h in hits])


def _expand(masks, row: int) -> frozenset:
    """The masks of the open row ``row``, in the order `chains` reads them."""
    return frozenset(masks[k] for k in space_mod.bit_indexes(row))


def _least(masks, index: dict, at: int) -> int:
    """The index of the least member of the open row ``at``, the AND of its masks, or -1."""
    core, rest = -1, at
    while rest:
        low = rest & -rest
        core &= masks[low.bit_length() - 1]
        rest ^= low
    k = index.get(core, -1)
    return k if k >= 0 and at >> k & 1 else -1


def _disjoint_pairs(masks, through: list, disjoint: list, pool: int) -> list:
    """The disjoint member pairs of a pool row, ascending, once a `disjoint` row shows one."""
    for row in through:
        if pool & row == pool:  # a point in every member
            return []
    if not any(pool & disjoint[k] for k in space_mod.bit_indexes(pool)):
        return []
    return [(u, v) for u, v in itertools.combinations(sorted(_expand(masks, pool)), 2) if not u & v]


def _chain_results(space: TypedSpace, rt) -> list[CheckResult]:
    """The neighborhood-base, closure-core, base- and anchored-connectivity results.

    One pass over the open rows of one `chains.realized_chain_pools` call:
    the base members through a point have a least member iff the AND ``c``
    of their masks is one, and then an open holds one iff it contains
    ``c``. Only a chain that fails at a point is walked member by member.
    """
    chain_list, masks = _chain_levels(rt), rt.open_masks
    index = {m: k for k, m in enumerate(masks)}  # mask -> its bit, for `_least`
    through, outside, disjoint = _row_tables(masks, len(space.points))
    points = list(zip(through, space.points))
    bad_nbhd, bad_core, bad_base, bad_anchor = [], [], [], []
    disjoint_pairs, least = {}, {}  # pool row -> `_disjoint_pairs`, base row at a point -> `_least`
    fetched = chains_mod.realized_chain_pools(space, chain_list)
    for levels, (pool, base) in zip(chain_list, fetched):
        walk = False
        for row, x in points:
            at = base & row
            if at:
                k = least.get(at)
                if k is None:
                    k = least[at] = _least(masks, index, at)
                if k < 0:  # every nonempty base family has a least member
                    bad_core.append((levels, x))
                walk = walk or k < 0 or pool & row & outside[k]
            elif pool & row:
                walk = True
        # every sandwiched neighborhood contains a base member at each point
        if walk:
            pool_set, base_set = _expand(masks, pool), _expand(masks, base)
            bad_nbhd += [(levels, x, w) for i, x in enumerate(space.points) for w in pool_set
                         if w >> i & 1 and not any(v & w == v and v >> i & 1 for v in base_set)]
        # no first-level irreducible is split by two disjoint pool members
        pairs = disjoint_pairs.get(pool)
        if pairs is None:
            pairs = disjoint_pairs[pool] = _disjoint_pairs(masks, through, disjoint, pool)
        if not pairs:
            continue
        support = functools.reduce(operator.or_, map(rt.generators.__getitem__, levels))
        irreducible = basis.irreducibles(space, rt.visible(support) & rt.up[levels[0]])
        for m, k in sorted((masks[k], k) for k in space_mod.bit_indexes(irreducible)):
            for u, v in pairs:
                if (m & ~(u | v)) == 0 and (m & u) and (m & v):
                    bad_anchor.append((levels, m, (u, v)))
                    if base >> k & 1:
                        bad_base.append((levels, m, (u, v)))
                    break
    n = len(chain_list)
    return [
        _result(name, f"{n} realized chains x {scope}", _chain_witnesses(space, rt, bad))
        for name, scope, bad in (
            ("neighborhood-base", f"{len(points)} points", bad_nbhd),
            ("closure-core", "supported points", bad_core),
            ("base-connectivity", "first-level-irreducible base members", bad_base),
            ("anchored-connectivity", "first-level irreducibles", bad_anchor),
        )
    ]


def _pure_family_results(space: TypedSpace) -> list[CheckResult]:
    """The pure-family base and connectivity results.

    Per generator, the family is the nonempty opens typed purely in it and
    at or below it, each with the chain from its type up to the generator.
    Every member is a base member of its chain, and chain-connected.
    """
    sig, ids, points = space.sigma, space.ids_of, space.points
    nonempty = space.nonempty_opens()
    bad_base, bad_conn = [], []
    for gen in sorted(space.poset.elements):
        top = lattice.normalize(space.ctx, [lattice.clause_of(gens=[gen])])
        family = []
        for m in nonempty:
            t = sig[m]
            if t.uses_only({gen}) and lattice.leq(t, top):
                family.append((m, TypeChain((t, t) if lattice.term_eq(t, top) else (t, top))))
        unbased = [m for m, chain in family if m not in chains_mod.chain_base_pool(space, chain)]
        bad_base += [(gen, x, ids(m)) for i, x in enumerate(points) for m in unbased if m >> i & 1]
        for m, chain in family:
            ok, w = connect_mod.is_chain_connected(space, ids(m), chain)
            if not ok:
                bad_conn.append((gen, ids(m), (w.left, w.right)))
    return [
        _result("pure-family-base", "all generators x points x family members", bad_base),
        _result("pure-family-connectivity", "all generators x pure family members", bad_conn),
    ]


def check_space(space: TypedSpace) -> CheckReport:
    """Replay the structural properties of a typed space and its chains.

    The ten results, in order:

    * ``type-mapping``: validation's topology and type-mapping conditions,
      the report `space.validate_type_mapping` recorded if it ran, and the
      meet and join bounds, which they imply, so validation leaves them out
      and `_bounds` re-derives them;
    * ``strictly-typed``: proper inclusion strictly raises the type;
    * ``self-irreducible``: every open is irreducible at its own type;
    * ``anchored-decomposition``: every realized anchor's family is covered
      by its irreducible members;
    * ``neighborhood-base``, ``pure-family-base``, ``closure-core``,
      ``base-connectivity``, ``anchored-connectivity`` and
      ``pure-family-connectivity``: the base property, the closure core
      identity and the connectivity statements over the realized chains
      (`_chain_results`) and the pure families (`_pure_family_results`).

    Only the first two run unless both pass. When validation passes and the
    space is strictly typed, the realized chains are counted from the order
    rows first, and more than `MAX_CHAINS` of them raise `OracleSkip` before
    any pair loop runs. The chains are walked as ascending tuples of
    realized-type indexes, their pools and bases read as open rows from one
    `chains.realized_chain_pools` call, and a chain's text is formatted only
    for the first five counterexamples of a result, the ones it keeps.
    """
    report = space_mod.validate_type_mapping(space)
    strictness = space_mod.is_strictly_typed(space)
    if report.ok and strictness.strict:
        rt = realized_types(space)
        count = _chain_count(rt, MAX_CHAINS)
        if count > MAX_CHAINS:
            raise OracleSkip(
                f"at least {count} realized chains exceed the theorem-replay budget "
                f"of {MAX_CHAINS}"
            )
    results = [
        _type_mapping(space, report),
        CheckResult("strictly-typed", "all nested nonempty open pairs", strictness.strict,
                    (strictness.witness,) if strictness.witness else ()),
    ]
    if results[0].passed and strictness.strict:
        results += [_self_irreducible(space, rt), _anchored_decomposition(space, rt)]
        nbhd, *chain_rest = _chain_results(space, rt)
        pure_base, pure_conn = _pure_family_results(space)
        results += [nbhd, pure_base, *chain_rest, pure_conn]
    return CheckReport(tuple(results))
