"""Chain-restricted closure, unsupported points, density, and minimum dense sets.

A point joins the closure of a set when every member of its chain base
meets the set; points with an empty base join every closure vacuously and
form the unsupported region, which any dense set must absorb wholesale.
The minimum dense size is the number of unsupported points plus the number
of inclusion-maximal distinct base families. A witness picks one point per
maximal family, so it is dense: each supported point's family lies in a
maximal one, whose members all hold its pick. The size is re-checked against
the exhaustive oracle on small spaces; a disagreement raises.

Both formulas rest on one hypothesis: every supported point's base family
has a least member, the intersection of its members. The closure then
reads one core per point, and points with equal families are
interchangeable witnesses. A valid strictly typed space need not satisfy
it: `fixtures/no_least_base3.json` (3 points, 8 opens) breaks it on some
of its realized chains, where the cross-checks of `chain_closure` (for
some start sets) and `min_chain_dense` raise `InvariantViolationError`
instead of answering, so `tts closure` and `tts dense` exit 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import chains as chains_mod, space as space_mod
from .chains import TypeChain
from .errors import InvariantViolationError, PreconditionError
from .space import TypedSpace


@dataclass(frozen=True, eq=False)
class ClosureReport:
    members: frozenset
    witnesses: dict  # point -> ("core", ids) | ("vacuous",)

    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True, eq=False)
class DensityReport:
    unsupported: frozenset
    classes: tuple[tuple[str, ...], ...]
    maximal_classes: tuple[tuple[str, ...], ...]
    density: int
    witness: frozenset

    def witness_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.witness))


def _point_families(space: TypedSpace, chain: TypeChain) -> dict:
    pool = chains_mod.chain_base_pool(space, chain)
    fams = {}
    for i, p in enumerate(space.points):
        bit = 1 << i
        fams[p] = frozenset(m for m in pool if m & bit)
    return fams


def chain_closure(space: TypedSpace, start, chain: TypeChain) -> ClosureReport:
    """Points all of whose base neighborhoods meet ``start``.

    For supported points the definitional test is re-derived from the common
    core of the base family (membership iff the core meets ``start``); the
    two must agree, which holds exactly when every base family has a least
    member.
    """
    space_mod.require_strict(space)
    start_set = frozenset(start)
    start_mask = space.mask_of(start_set)
    fams = _point_families(space, chain)
    members = set()
    witnesses = {}
    for p in space.points:
        fam = fams[p]
        if not fam:
            members.add(p)
            witnesses[p] = ("vacuous",)
            continue
        inside = all(m & start_mask for m in fam)
        core = space.full_mask
        for m in fam:
            core &= m
        if bool(core & start_mask) != inside:
            raise InvariantViolationError(
                "definitional closure disagrees with the common-core test",
                witness=(p, sorted(start_set)),
            )
        if inside:
            members.add(p)
            witnesses[p] = ("core", space.ids_of(core))
    return ClosureReport(frozenset(members), witnesses)


def _class_groups(space: TypedSpace, fams: dict) -> dict[frozenset, list[str]]:
    """Supported points grouped by their base family."""
    groups: dict[frozenset, list[str]] = {}
    for p in space.points:
        if fams[p]:
            groups.setdefault(fams[p], []).append(p)
    return groups


def _sorted_classes(groups: Iterable[list[str]]) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def is_chain_dense(space: TypedSpace, dense, region, chain: TypeChain) -> bool:
    """Density of ``dense`` inside ``region``.

    Unsupported region points must be included outright; every supported
    region point needs each of its base neighborhoods to meet ``dense``.
    """
    dense_set, region_set = frozenset(dense), frozenset(region)
    if not dense_set <= region_set:
        raise PreconditionError("the dense candidate must sit inside the region")
    space.mask_of(region_set)  # raises on the first unknown region point, sorted
    fams, dense_mask = _point_families(space, chain), space.mask_of(dense_set)
    return all(
        all(m & dense_mask for m in fams[p]) if fams[p] else p in dense_set for p in region_set
    )


def min_chain_dense(space: TypedSpace, chain: TypeChain) -> DensityReport:
    """Smallest dense set: unsupported points plus one point per maximal class.

    Representatives are the smallest point id of each maximal class, which
    Cor-style interchangeability makes as good as any other choice. On
    spaces within the exhaustive search's default budget
    (`oracle.DEFAULT_DENSE_POINTS`, twelve points) the arithmetic is
    compared against it; a mismatch raises with the witness attached.
    """
    space_mod.require_strict(space)
    fams = _point_families(space, chain)
    unsupported = frozenset(p for p in space.points if not fams[p])
    groups = _class_groups(space, fams)
    classes = _sorted_classes(groups.values())
    maximal = [f for f in groups if not any(f < g for g in groups)]
    maximal_classes = _sorted_classes(groups[f] for f in maximal)
    density = len(unsupported) + len(maximal)
    witness = frozenset(unsupported | {cls[0] for cls in maximal_classes})
    from . import oracle

    if len(space.points) <= oracle.DEFAULT_DENSE_POINTS:
        size, _ = oracle.exhaustive_min_dense(space, chain)
        if size != density:
            raise InvariantViolationError(
                f"density formula gives {density} but exhaustive search gives {size}",
                witness={"unsupported": sorted(unsupported), "classes": classes},
            )
    return DensityReport(unsupported, classes, maximal_classes, density, witness)
