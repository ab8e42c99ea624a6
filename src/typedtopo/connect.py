"""Chain-restricted connectedness and connection certificates.

A set is chain-connected when no two disjoint members of the chain's open
pool cover it while both touching it; both queries list those pairs once
(`_disjoint_pairs`) and test a set with `_separator`. A set holding a point
outside every pool member is never covered, so it is connected; a
connection between two points therefore ranges over supported sets only,
and its certificate is the largest connected one through both, found by
partition refinement (R. Paige and R. E. Tarjan, "Three partition
refinement algorithms", SIAM J. Comput. 16(6), 1987).
"""
from __future__ import annotations

import functools
import itertools
import operator
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
) -> Optional[tuple[str, ...]]:
    """The largest chain-connected supported set through ``x`` and ``y``, or None.

    Refines ``S``, the union of the pool: while a disjoint pair separates
    ``S``, the side holding both points replaces it, and a pair with the
    points on different sides answers None. A connected set through both
    points inside ``S`` lies in one side of any pair covering ``S``, the
    side holding both, so it stays inside ``S``; each round drops a point,
    so there are at most n rounds.
    """
    if x == y:
        raise PreconditionError("a connection needs two distinct points")
    ends = space.point_bit(x) | space.point_bit(y)
    pool = chains_mod.chain_pool(space, chain)
    pairs = _disjoint_pairs(pool)
    s = functools.reduce(operator.or_, pool, 0)
    while not ends & ~s:
        pair = _separator(s, pairs)
        if pair is None:
            return space.ids_of(s)
        s &= next((side for side in pair if not ends & ~side), 0)
    return None
