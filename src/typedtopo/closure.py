"""Chain-restricted closure, unsupported points, density, and minimum dense sets.

A point joins the closure of a set when every member of its chain base
meets the set; points with an empty base join every closure vacuously and
form the unsupported region, which any dense set must absorb wholesale.
The density formula counts the unsupported points plus the
inclusion-maximal distinct base families, and its witness picks one point
per maximal family. The witness is always dense, since each member ``m``
holds a point whose family lies in a maximal one, and that family's pick
has ``m`` in its own family; so the formula is an upper bound.

The formulas are exact under one hypothesis: every supported point's base
family has a least member, the AND of its members. Proof: a least member
meets a set iff every member does, so the closure reads one core per point;
and the least member of a maximal family holds only points with that
family, so a dense set, which meets it, needs one point per maximal family.

A valid strictly typed space need not satisfy it:
`fixtures/no_least_base3.json` (3 points, 8 opens) breaks it on some of
its realized chains. There `chain_closure` still answers by the
definition, showing the witness ``("members",)`` for a member whose core
misses the start set, and `min_chain_dense` takes the exhaustive search's
answer when it is smaller, or raises the search's `OracleSkip` past its
budget, naming the hypothesis. On the hypothesis no search runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import chains as chains_mod, space as space_mod
from .chains import TypeChain
from .errors import OracleSkip, PreconditionError
from .space import TypedSpace


@dataclass(frozen=True, eq=False)
class ClosureReport:
    members: frozenset
    witnesses: dict  # point -> ("core", ids) | ("members",) | ("vacuous",)

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

    A supported member's witness is the common core of its base family when
    the core meets ``start``, as it always does when the family has a least
    member, and ``("members",)`` otherwise.
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
        elif all(m & start_mask for m in fam):
            members.add(p)
            core = _core(space, fam)
            witnesses[p] = ("core", space.ids_of(core)) if core & start_mask else ("members",)
    return ClosureReport(frozenset(members), witnesses)


def _core(space: TypedSpace, fam) -> int:
    """The AND of the members of ``fam``: its least member, if it has one."""
    core = space.full_mask
    for m in fam:
        core &= m
    return core


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
    Cor-style interchangeability makes as good as any other choice. When
    some base family has no least member the formula is only an upper
    bound, and the exhaustive search (`oracle.exhaustive_min_dense`) runs:
    its size and first witness replace the formula's when smaller, and past
    its budget its `OracleSkip` is raised again, naming the hypothesis.
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
    if any(_core(space, f) not in f for f in groups):
        from . import oracle

        try:
            size, found = oracle.exhaustive_min_dense(space, chain)
        except OracleSkip as err:
            raise OracleSkip(
                "the density formula needs every base family to have a least member, "
                f"which this chain breaks, and the exhaustive search refused: {err}") from err
        if size < density:
            density, witness = size, frozenset(found[0])
    return DensityReport(unsupported, classes, maximal_classes, density, witness)
