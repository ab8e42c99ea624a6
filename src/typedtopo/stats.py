"""Score tables: z-scores over size populations drawn from a typed space.

Three populations are supported: sizes of the single-generator open family,
per-point counts of realized pure types, and per-pair counts of shared
types, both counted by index off the opens that `space.RealizedTypes`
buckets by type, hashing no term. All use the sample (n-1) standard
deviation; a population smaller than two or without spread raises
`NoVarianceError` rather than producing NaNs.
"""
from __future__ import annotations

import functools
import itertools
import operator
import statistics
from dataclasses import dataclass
from typing import Sequence

from . import chains as chains_mod, space as space_mod
from .errors import NoVarianceError, PreconditionError
from .space import TypedSpace, realized_types


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Subjects with raw values and their z-scores."""

    population: tuple[tuple[object, float], ...]
    mean: float
    sample_std: float
    z: dict


def score_table(population: Sequence[tuple[object, float]]) -> ScoreTable:
    if len(population) < 2:
        raise NoVarianceError(f"population of {len(population)} cannot be scored")
    values = [v for _, v in population]
    mean = statistics.fmean(values)
    std = statistics.stdev(values)
    if std == 0:
        raise NoVarianceError("population has zero spread")
    z = {s: (v - mean) / std for s, v in population}
    return ScoreTable(tuple(population), mean, std, z)


def family_size_scores(space: TypedSpace, gen: str) -> ScoreTable:
    """Sizes of the opens typed purely in one generator, scored per open.

    Subjects are the distinct member opens (as sorted id tuples); each
    contributes its own cardinality to the population.
    """
    members = chains_mod.generator_family(space, gen)
    population = [
        (space.ids_of(m), float(bin(m).count("1"))) for m in sorted(members)
    ]
    return score_table(population)


def point_activity_scores(space: TypedSpace, gen: str) -> ScoreTable:
    """Per point: how many distinct pure types of one generator reach it.

    The pure types are the realized types visible to ``{gen}`` alone, and
    one reaches a point when one of its opens holds it.
    """
    space_mod.require_strict(space)
    if gen not in space.poset.elements:
        raise PreconditionError(f"unknown generator {gen!r}")
    rt = realized_types(space)
    pure = space_mod.bit_indexes(rt.visible(rt.generator_bits({gen})))
    reach = [functools.reduce(operator.or_, rt.opens_by_type[j]) for j in pure]
    return score_table([(p, float(sum(r >> i & 1 for r in reach)))
                        for i, p in enumerate(space.points)])


def pair_key(x: str, y: str) -> tuple[str, str]:
    if x == y:
        raise PreconditionError("a pair needs two distinct points")
    return (x, y) if x < y else (y, x)


def pair_affinity_scores(space: TypedSpace, two_witness: bool = False) -> ScoreTable:
    """Per unordered point pair: how many distinct types are shared.

    By default a type counts when one open of that exact type contains both
    points; ``two_witness`` instead counts types realized separately at each
    point (each point inside some open of that type), which is one open of
    the type's union holding both. The single-witness reading is the
    supported one.
    """
    space_mod.require_strict(space)
    rt = realized_types(space)
    held = [(m, j) for j, opens in enumerate(rt.opens_by_type)
            for m in ((functools.reduce(operator.or_, opens),) if two_witness else opens)]
    population = []
    for x, y in itertools.combinations(space.points, 2):
        both = space.point_bit(x) | space.point_bit(y)
        count = len({j for m, j in held if m & both == both})
        population.append((pair_key(x, y), float(count)))
    return score_table(population)
