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
`irreducibles` is the one routine that decides irreducible members, one
member at a time against the smaller members of its row (`_irreducible`).
It decides only the members a caller asks about, a whole row or the part
of it inside an open row ``among``, and memoizes per space, by the type
row, which members are decided and which are kept, so the anchored
families, the chain bases and the oracle share each decision. Only a
chain's base reads it, asking about its pool's members alone; the chain
pools are read off `space.RealizedTypes.opens_row` and decide nothing here.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
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


def _irreducible(order: list, mask: int) -> bool:
    """Whether no two other members of a row, ``order`` its masks ascending, union to ``mask``.

    Only the members before ``mask`` in ``order`` can lie inside it, so one
    bisection bounds the scan. When those inside it fall short of covering
    it, no pair covers it; that union decides every member of a
    union-closed pool such as `opens_above`. Otherwise the pairs are
    searched, largest first.
    """
    inside = [m for m in order[:bisect_left(order, mask)] if m & mask == m]
    pairs = itertools.combinations(reversed(inside), 2)
    return reduce(or_, inside, 0) != mask or not any((w | v) == mask for w, v in pairs)


def irreducibles(space: TypedSpace, types: int, among: Optional[int] = None) -> int:
    """The open row of the `_irreducible` members of the opens typed in ``types``.

    ``types`` is a realized-type bitset of ``space`` (`space.RealizedTypes`).
    Given an open row ``among``, only its members are decided and the
    result is met with it. The memo on ``space.index.irreducibles``, keyed
    by ``types``, holds ``[undecided, kept, order]``: the members not yet
    decided, the members kept so far and the row's masks, sorted once, so
    each member of a row is decided at most once, and a call that asks
    about decided members alone reads the memo.
    """
    memo = space.index.irreducibles
    entry = memo.get(types)
    if entry is None:
        rt = space_mod.realized_types(space)
        row = rt.opens_row(types)
        order = sorted(map(rt.open_masks.__getitem__, space_mod.bit_indexes(row)))
        entry = memo[types] = [row, 0, order]
    undecided, kept, order = entry
    todo = undecided if among is None else undecided & among
    if todo:
        masks = space_mod.realized_types(space).open_masks
        for k in space_mod.bit_indexes(todo):
            if _irreducible(order, masks[k]):
                kept |= 1 << k
        entry[0], entry[1] = undecided ^ todo, kept
    return kept if among is None else kept & among


def irreducibles_above(space: TypedSpace, p: TypeTerm, at: Optional[str] = None) -> frozenset:
    """The join-irreducible members of `opens_above` (the family's base)."""
    return _through(space, irreducibles(space, _above_row(space, p)), at)
