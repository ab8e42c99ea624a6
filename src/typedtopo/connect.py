"""Chain-restricted connectedness and connection certificates.

A set is chain-connected when no two disjoint members of the chain's open
pool cover it while both touching it; both searches list those pairs once
(`_disjoint_pairs`) and test a set with `_separator`. Certificates joining
two points are unions of overlapping unseparated base opens, unseparated
too: under a covering disjoint pair each member lies in one side, and
overlapping members in the same one.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import chains as chains_mod
from .chains import TypeChain
from .errors import PreconditionError
from .space import TypedSpace


@dataclass(frozen=True, eq=False)
class SeparationWitness:
    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class ConnectionCertificate:
    """A verified connection: overlapping connected base opens joining x to y."""

    member_ids: tuple[str, ...]
    sequence: tuple[tuple[str, ...], ...]


def _disjoint_pairs(pool) -> list[tuple[int, int]]:
    """The unordered disjoint pairs of ``pool``, in order of its sorted members."""
    return [(u, v) for u, v in itertools.combinations(sorted(pool), 2) if not u & v]


def _separator(mask: int, pairs) -> Optional[tuple[int, int]]:
    """The first pair of ``pairs`` that covers ``mask`` and meets it on both sides."""
    for u, v in pairs:
        if (mask & ~(u | v)) == 0 and (mask & u) and (mask & v):
            return u, v
    return None


def is_chain_connected(
    space: TypedSpace, points, chain: TypeChain
) -> tuple[bool, Optional[SeparationWitness]]:
    """Exhaustive separator search over unordered pool pairs.

    Returns ``(True, None)`` or ``(False, witness)``; the witness pair is
    disjoint, covers the set, and splits it nontrivially.
    """
    mask = space.mask_of(frozenset(points))
    pair = _separator(mask, _disjoint_pairs(chains_mod.chain_pool(space, chain)))
    if pair is None:
        return True, None
    return False, SeparationWitness(*map(space.ids_of, pair))


def find_connection(
    space: TypedSpace, x: str, y: str, chain: TypeChain
) -> Optional[ConnectionCertificate]:
    """Search the overlap graph of connected base opens for a path x..y.

    Sound but complete only relative to unions of base opens; pair it with
    `oracle.exhaustive_connected` for a definitive negative on small spaces.
    """
    if x == y:
        raise PreconditionError("a connection needs two distinct points")
    xbit, ybit = space.point_bit(x), space.point_bit(y)
    base = sorted(chains_mod.chain_base_pool(space, chain))
    pairs = _disjoint_pairs(chains_mod.chain_pool(space, chain))
    nodes = [m for m in base if _separator(m, pairs) is None]
    starts = [m for m in nodes if m & xbit]
    prev: dict[int, Optional[int]] = {m: None for m in starts}
    frontier = list(starts)
    goal = None
    while frontier and goal is None:
        nxt = []
        for m in frontier:
            if m & ybit:
                goal = m
                break
            for other in nodes:
                if other not in prev and (other & m):
                    prev[other] = m
                    nxt.append(other)
        frontier = nxt
    if goal is None:
        return None
    path = []
    cur: Optional[int] = goal
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    path.reverse()
    union = 0
    for m in path:
        union |= m
    return ConnectionCertificate(space.ids_of(union), tuple(space.ids_of(m) for m in path))
