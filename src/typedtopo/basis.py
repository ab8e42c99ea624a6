"""Anchored families of opens and their irreducible members.

For an anchor type ``p``, the family of opens typed at or above ``p`` has a
canonical base: the members that cannot be written as a union of two other
family members. Every family member is the union of the base members inside
it, which `oracle.check_space` replays as its anchored decomposition.

Such a family is the open row of a realized-type bitset, the ``above``
row of ``p`` (`space.RealizedTypes.opens_row`), and so is every pool the
chain bases draw on. A caller that holds a realized type's index reads that
row by position, ``RealizedTypes.up``; an anchor given as a term, such as a
parsed ``tts basis --p``, reaches it through `space.RealizedTypes.rows`
(`opens_above`, `irreducibles_above`, which expand rows by `members`).
`irreducibles` is the one routine that decides irreducible members, in one
pass over the row's opens (`_irreducible_members`): it memoizes their open
row per space by the type row, so the anchored families, the chain bases
and the oracle share each decision. Only a chain's base reads it; the chain
pools are read off `space.RealizedTypes.opens_row` and decide nothing here.
"""
from __future__ import annotations

import itertools
from functools import reduce
from operator import or_
from typing import Optional

from . import space as space_mod
from .errors import PreconditionError
from .lattice import TypeTerm
from .space import TypedSpace


def _above_row(space: TypedSpace, p: TypeTerm) -> int:
    """The realized types at or above the anchor ``p``, as a bitset."""
    if p.is_bottom:
        raise PreconditionError("anchor BOT would select every open vacuously")
    space_mod.require_strict(space)
    return space_mod.realized_types(space).rows(p)[0]


def _through(space: TypedSpace, row: int, at: Optional[str]) -> frozenset:
    """The masks of the open row ``row`` that contain the point ``at``, or all of them."""
    members = space_mod.realized_types(space).members(row)
    if at is None:
        return members
    bit = space.point_bit(at)
    return frozenset(m for m in members if m & bit)


def opens_above(space: TypedSpace, p: TypeTerm, at: Optional[str] = None) -> frozenset:
    """The masks of all opens whose type dominates ``p`` (optionally through a point)."""
    row = _above_row(space, p)
    return _through(space, space_mod.realized_types(space).opens_row(row), at)


def _irreducible_members(masks, row: int) -> int:
    """The bits of the open row ``row`` whose mask no two other members union to.

    Bit ``k`` stands for ``masks[k]``. A member is tested against the
    smaller masks alone, in one pass in mask order, which puts the subsets
    of a member first. When those inside it fall short of covering it, no
    pair covers it; that union decides every member of a union-closed pool
    such as `opens_above`. Otherwise the pairs are searched, largest first.
    """
    kept, smaller = 0, []
    for mask, k in sorted((masks[k], k) for k in space_mod.bit_indexes(row)):
        inside = [m for m in smaller if m & mask == m]
        pairs = itertools.combinations(reversed(inside), 2)
        if reduce(or_, inside, 0) != mask or not any((w | v) == mask for w, v in pairs):
            kept |= 1 << k
        smaller.append(mask)
    return kept


def irreducibles(space: TypedSpace, types: int) -> int:
    """The open row of `_irreducible_members` of the opens typed in ``types``.

    ``types`` is a realized-type bitset of ``space`` (`space.RealizedTypes`).
    The result is memoized on ``space.index.irreducibles``, keyed by that
    int, so equal rows share one decision per member.
    """
    memo = space.index.irreducibles
    got = memo.get(types)
    if got is None:
        rt = space_mod.realized_types(space)
        got = memo[types] = _irreducible_members(rt.open_masks, rt.opens_row(types))
    return got


def irreducibles_above(space: TypedSpace, p: TypeTerm, at: Optional[str] = None) -> frozenset:
    """The join-irreducible members of `opens_above` (the family's base)."""
    return _through(space, irreducibles(space, _above_row(space, p)), at)
