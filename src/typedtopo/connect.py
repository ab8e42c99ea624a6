"""Chain-restricted connectedness and connection certificates.

A set is chain-connected when no two disjoint members of the chain's open
pool cover it while both touching it. Certificates connecting two points
are unions of overlapping base opens, each individually verified connected;
a chain of overlapping connected sets is connected, so the emitted union is
re-verified and any failure would be a genuine internal contradiction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import chains as chains_mod
from .chains import TypeChain
from .errors import InvariantViolationError, PreconditionError
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


def is_chain_connected(
    space: TypedSpace, points, chain: TypeChain
) -> tuple[bool, Optional[SeparationWitness]]:
    """Exhaustive separator search over unordered pool pairs.

    Returns ``(True, None)`` or ``(False, witness)``; the witness pair is
    disjoint, covers the set, and splits it nontrivially.
    """
    mask = space.mask_of(frozenset(points))
    pool = sorted(chains_mod.chain_pool(space, chain))
    for u, v in itertools.combinations(pool, 2):
        if u & v:
            continue
        if (mask & ~(u | v)) == 0 and (mask & u) and (mask & v):
            return False, SeparationWitness(space.ids_of(u), space.ids_of(v))
    return True, None


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
    nodes = [
        m for m in sorted(chains_mod.chain_base_pool(space, chain))
        if is_chain_connected(space, space.ids_of(m), chain)[0]
    ]
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
    for a, b in zip(path, path[1:]):
        if not (a & b):  # pragma: no cover - BFS links only overlapping nodes
            raise InvariantViolationError("certificate path breaks overlap")
    ok, witness = is_chain_connected(space, space.ids_of(union), chain)
    if not ok:
        raise InvariantViolationError(
            "certificate union failed verification", witness=witness
        )
    return ConnectionCertificate(space.ids_of(union), tuple(space.ids_of(m) for m in path))
