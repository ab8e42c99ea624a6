"""Anchored families of opens and their irreducible members.

For an anchor type ``p``, the family of opens typed at or above ``p`` has a
canonical base: the members that cannot be written as a union of two other
family members. Every family member is the union of the base members inside
it, which is asserted at decomposition time.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import lattice, space as space_mod
from .errors import InvariantViolationError, PreconditionError
from .lattice import TypeTerm
from .space import TypedSpace


@dataclass(frozen=True, eq=False)
class TypedFamily:
    """A set of opens tied to the anchor that selected them."""

    space: TypedSpace
    anchor: object  # TypeTerm or TypeChain
    members: frozenset  # of masks
    at_point: Optional[str] = None

    def ids(self) -> tuple[tuple[str, ...], ...]:
        return tuple(sorted(self.space.ids_of(m) for m in self.members))

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def __len__(self) -> int:
        return len(self.members)


def opens_above(space: TypedSpace, p: TypeTerm, at: Optional[str] = None) -> TypedFamily:
    """All opens whose type dominates ``p`` (optionally through a point)."""
    if p.is_bottom:
        raise PreconditionError("anchor BOT would select every open vacuously")
    space_mod.require_strict(space)
    rt = space_mod.indexed_types(space)
    members = rt.opens_in(rt.above(p))
    if at is not None:
        bit = space.point_bit(at)
        members = frozenset(m for m in members if m & bit)
    return TypedFamily(space, p, members, at)


def is_irreducible_in(pool, mask: int) -> bool:
    """No two other pool members union to ``mask``.

    If two members union to ``mask``, so do all the members strictly inside
    it, so ``mask`` is irreducible when their union falls short of it; only
    otherwise does the pairwise search run. The pre-test is exact for
    any pool and decides every irreducible member in O(k). On a
    union-closed pool such as `opens_above`, a full union also means some
    pair exists, and the search stops at the first one.
    """
    inside = [m for m in pool if m != mask and (m & mask) == m]
    union = 0
    for m in inside:
        union |= m
    if union != mask:
        return True
    return not any((w | v) == mask for w, v in itertools.combinations(inside, 2))


def is_join_irreducible(space: TypedSpace, open_mask: int, p: TypeTerm) -> bool:
    """No two anchored opens other than the set itself union to it."""
    _check_anchored(space, open_mask, p)
    return is_irreducible_in(opens_above(space, p).members, open_mask)


def is_meet_irreducible(space: TypedSpace, open_mask: int, p: TypeTerm) -> bool:
    """Dual reading: no two anchored opens other than the set intersect to it."""
    _check_anchored(space, open_mask, p)
    pool = [m for m in opens_above(space, p).members if m != open_mask]
    for w, v in itertools.combinations(pool, 2):
        if (w & v) == open_mask:
            return False
    return True


def _check_anchored(space: TypedSpace, open_mask: int, p: TypeTerm) -> None:
    if open_mask == 0 or open_mask not in space.opens:
        raise PreconditionError("irreducibility is defined for nonempty opens only")
    if not lattice.leq(p, space.sigma[open_mask]):
        raise PreconditionError("the open's type does not dominate the anchor")


def irreducibles_above(space: TypedSpace, p: TypeTerm, at: Optional[str] = None) -> TypedFamily:
    """The join-irreducible members of `opens_above` (the family's base)."""
    members = opens_above(space, p).members
    irr = {u for u in members if is_irreducible_in(members, u)}
    if at is not None:
        bit = space.point_bit(at)
        irr = {m for m in irr if m & bit}
    return TypedFamily(space, p, frozenset(irr), at)


def join_decompose(space: TypedSpace, open_mask: int, p: TypeTerm) -> tuple[int, ...]:
    """All irreducible anchored opens inside the set; their union is the set.

    A union shortfall would contradict the base property of strictly typed
    spaces, so it is surfaced as an invariant violation rather than patched.
    """
    _check_anchored(space, open_mask, p)
    space_mod.require_strict(space)
    base = irreducibles_above(space, p)
    parts = tuple(sorted(m for m in base.members if (m & open_mask) == m))
    covered = 0
    for m in parts:
        covered |= m
    if covered != open_mask:
        raise InvariantViolationError(
            "irreducible members fail to cover the open",
            witness=(space.ids_of(open_mask), [space.ids_of(m) for m in parts]),
        )
    return parts
