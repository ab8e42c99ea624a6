"""Chains of types: sandwiched neighborhoods, their bases, and chain covers.

A chain ``p_0 <= ... <= p_{k-1}`` restricts the neighborhoods of a point to
opens whose type is sandwiched between two consecutive levels. Every chain
query is confined to the sub-universe of opens whose types live in the
sublattice generated by the chain's own generators; an open whose type
mentions a foreign generator is invisible to the chain even when its type
happens to sit below the top level. That confinement is what makes a
right-neighbor chain see only the right rays of a street and not every
interval that sits under ``right`` in the order.

The base of a sandwiched family keeps the members that are join-irreducible
above at least one lower level, with candidate covers drawn from the same
confined universe. Covering the realized types with few chains (a minimum
chain partition via bipartite matching) recovers the full neighborhood
system of every point.

The pools are mask algebra over int bitset rows. A chain's key is
``(pool row, lower rows)`` over the realized types (`space.RealizedTypes`,
read off a table of their cubes with no `lattice.leq`): the pool row is
``visible(support) & OR(up[lo] & down[hi])`` over the consecutive levels,
``support`` the bitset of their generators, and a lower row
``visible(support) & up[lo]``, whose members irreducible in it
(`basis.irreducibles`) may join the base. `_key` reads it for a
`TypeChain` (`chain_pool`, `chain_base_pool`) through `RealizedTypes.rows`;
`realized_chain_pools` reads it for a tuple of realized-type indexes,
building no chain and hashing no term, and extends a 2-level chain's key
to the 3-level chains it prefixes. One routine, `_pools_and_bases`, reads
every pool and base in the one form a family of opens takes below the
public API, an open row (`RealizedTypes.opens_row`, on a space with one
open per type the type row itself). Only a base asks `basis.irreducibles`,
about its pool's members alone, so a query that reads only the pool decides no
irreducibility; a query that returns masks expands its row through
`RealizedTypes.members`. A single generator's family
(`generator_family`) is the union of its chains' pools, read from the
same rows.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import lattice, space as space_mod
from .errors import PreconditionError
from .lattice import Context, TypeTerm
from .space import TypedSpace, realized_types
from .basis import irreducibles


@dataclass(frozen=True)
class TypeChain:
    """An ascending chain of at least two lattice levels, none extreme."""

    levels: tuple[TypeTerm, ...]

    def __post_init__(self):
        if len(self.levels) < 2:
            raise PreconditionError("a chain needs at least two levels")
        for t in self.levels:
            if t.is_bottom or t.is_top:
                raise PreconditionError("chain levels must avoid BOT and TOP")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if not lattice.leq(lo, hi):
                raise PreconditionError(
                    f"chain levels out of order: {lattice.format_term(lo)!r} "
                    f"!<= {lattice.format_term(hi)!r}"
                )

    @property
    def k(self) -> int:
        return len(self.levels)

    def text(self) -> str:
        return " ; ".join(lattice.format_term(t) for t in self.levels)


def parse_chain(text: str, ctx: Context) -> TypeChain:
    """Parse a semicolon-separated list of type expressions into a chain."""
    parts = [p.strip() for p in text.split(";")]
    if any(not p for p in parts):
        raise PreconditionError("empty chain level")
    return TypeChain(tuple(lattice.parse_type_expr(p, ctx) for p in parts))


def _pools_and_bases(space: TypedSpace, keys):
    """Yield the pool and base open rows of each key ``(pool row, lower rows)``.

    Every chain pool and base is read here: the pool as the open row of
    its type row (`RealizedTypes.opens_row`), and the base as the members
    of the pool that `irreducibles` keeps in some lower row, asked about
    the pool's members alone. A key with no lower rows reads its pool
    alone, deciding nothing.
    """
    rt = realized_types(space)
    for row, lows in keys:
        pool = rt.opens_row(row)
        base = 0
        for low in lows:
            base |= irreducibles(space, low, pool)
        yield pool, base if lows else None


def _key(space: TypedSpace, chain: TypeChain) -> tuple[int, set]:
    """The `_pools_and_bases` key ``(pool row, lower rows)`` of ``chain``.

    With each level's ``(above, below)`` read off `RealizedTypes.rows`, the
    pool row ORs the first level's own row and the consecutive sandwiches
    ``above[i] & below[i + 1]``, visible to the levels' generators.
    """
    space_mod.require_strict(space)
    rt = realized_types(space)
    up, down = zip(*map(rt.rows, chain.levels))
    row = up[0] & down[0]
    for lo, hi in zip(up, down[1:]):
        row |= lo & hi
    vis = rt.visible(rt.generator_bits(frozenset().union(*(t.generators() for t in chain.levels))))
    return row & vis, {vis & lo for lo in up[:-1]}


def realized_chain_pools(space: TypedSpace, chain_list):
    """The ``(pool, base)`` open rows of each chain in ``chain_list``, in order.

    A chain is a tuple of two or three ascending indexes into
    ``realized_types(space).terms``, whose order the caller vouches for;
    strictness is checked at the call. Each key is read by index off
    `RealizedTypes.up`, ``down`` and ``generators``, so no `TypeChain` is
    built and no term hashed. The key of ``(i, j, k)``, the one `_key`
    reads, extends that of its prefix ``(i, j)``, folded once on first use
    in whatever order the chains come: ``up[j] & down[k]`` joins the row
    and ``generators[k]`` the support.
    """
    space_mod.require_strict(space)
    rt = realized_types(space)
    up, down, generators, visible = rt.up, rt.down, rt.generators, rt.visible
    prefixes = {}  # (i, j) -> the row and support of the chain (i, j)

    def keys():
        for levels in chain_list:
            i, j = levels[0], levels[1]
            got = prefixes.get((i, j))
            if got is None:
                got = prefixes[i, j] = up[i] & down[j], generators[i] | generators[j]
            row, support = got
            if len(levels) == 2:
                vis = visible(support)
                yield row & vis, {vis & up[i]}
            else:
                _, _, k = levels
                vis = visible(support | generators[k])
                yield (row | up[j] & down[k]) & vis, {vis & up[i], vis & up[j]}

    return _pools_and_bases(space, keys())


def chain_neighborhoods(space: TypedSpace, x: str, chain: TypeChain) -> frozenset:
    """Visible opens through ``x`` sandwiched by some consecutive level pair."""
    bit = space.point_bit(x)
    return frozenset(m for m in chain_pool(space, chain) if m & bit)


def chain_pool(space: TypedSpace, chain: TypeChain) -> frozenset:
    """All sandwiched visible opens: the union of every point's neighborhoods.

    Read as an open row and expanded by `RealizedTypes.members`; no
    irreducibility is decided.
    """
    row, _ = _key(space, chain)
    return realized_types(space).members(next(_pools_and_bases(space, [(row, ())]))[0])


def chain_base_pool(space: TypedSpace, chain: TypeChain) -> frozenset:
    """Sandwiched visible opens irreducible above some lower chain level.

    The irreducibility level ranges over every lower level whose value lies
    below the member's type; it is not tied to the sandwiching index. Read
    from the pool and the memoized irreducibles of the lower rows.
    """
    _, base = next(_pools_and_bases(space, [_key(space, chain)]))
    return realized_types(space).members(base)


def chain_base(space: TypedSpace, x: str, chain: TypeChain) -> frozenset:
    """The members of `chain_base_pool` that contain ``x``."""
    pool = chain_base_pool(space, chain)
    bit = space.point_bit(x)
    return frozenset(m for m in pool if m & bit)


def generator_family(space: TypedSpace, gen: str) -> frozenset:
    """The nonempty opens typed purely in ``gen`` and at or below it.

    This family equals the union of the sandwiched pools over every chain
    inside the generator's sublattice topping out at the generator: all the
    opens of the types of ``visible({gen})`` below ``gen``, each the first
    level of a chain. It is read as that union, by term through
    `RealizedTypes.rows`, with no order row by type and no `lattice.leq`.
    """
    space_mod.require_strict(space)
    if gen not in space.poset.elements:
        raise PreconditionError(f"unknown generator {gen!r}")
    top = lattice.normalize(space.ctx, [lattice.clause_of(gens=[gen])])
    rt = realized_types(space)
    return rt.members(rt.opens_row(rt.visible(rt.generator_bits({gen})) & rt.rows(top)[1]))


# ---------------------------------------------------------------------------
# chain covers of the realized types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainCover:
    """Chains over the realized types covering every one of them."""

    chains: tuple[TypeChain, ...]


def chain_cover(space: TypedSpace) -> ChainCover:
    """Minimum chain partition of the realized-type order.

    Uses the split-node bipartite reduction: a maximum matching on strict
    order edges glues types into chains, and the chain count equals the
    width of the realized order. Each type in turn searches depth first for
    an augmenting path on an explicit stack of ``[type, successor tried]``
    frames, trying next the lowest successor not yet seen, so no path is
    too long for it. ``seen`` is cleared only once a path is found: a
    failed search leaves the matching as it was, so the types it exhausted
    stay dead. Matched edges rise strictly, so the paths ``match_left``
    follows from each unmatched type cover every type once. Single-type
    chains are padded by repeating the level, which the sandwich test
    treats as selecting exactly that type.
    """
    space_mod.require_strict(space)
    rt = realized_types(space)
    n = len(rt)
    succ = [row & ~(1 << i) for i, row in enumerate(rt.up)]
    match_left, match_right = [-1] * n, [-1] * n
    seen = 0
    for root in range(n):
        stack = [[root, -1]]
        while stack:
            frame = stack[-1]
            avail = succ[frame[0]] & ~seen
            if not avail:
                stack.pop()
                continue
            low = avail & -avail
            seen |= low
            frame[1] = j = low.bit_length() - 1
            if match_right[j] >= 0:
                stack.append([match_right[j], -1])
                continue
            for i, j in stack:
                match_right[j], match_left[i] = i, j
            seen = 0
            break
    chains = []
    for s in [i for i in range(n) if match_right[i] < 0]:
        seq = [s]
        while match_left[seq[-1]] >= 0:
            seq.append(match_left[seq[-1]])
        if len(seq) == 1:
            seq *= 2
        chains.append(TypeChain(tuple(rt.terms[i] for i in seq)))
    return ChainCover(tuple(chains))
