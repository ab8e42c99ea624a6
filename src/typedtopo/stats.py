"""Score tables: z-scores over size populations drawn from a typed space.

Three populations are supported: sizes of the single-generator open family,
per-point counts of realized pure types, and per-pair counts of shared
types. All use the sample (n-1) standard deviation; a population smaller
than two or without spread raises `NoVarianceError` rather than producing
NaNs.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from . import chains as chains_mod, space as space_mod
from .errors import NoVarianceError, PreconditionError
from .space import TypedSpace


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
    """Per point: how many distinct pure types of one generator reach it."""
    space_mod.require_strict(space)
    if gen not in space.poset.elements:
        raise PreconditionError(f"unknown generator {gen!r}")
    population = []
    for i, p in enumerate(space.points):
        bit = 1 << i
        seen = set()
        for m in space.opens:
            if m and (m & bit):
                t = space.sigma[m]
                if t.uses_only({gen}):
                    seen.add(t)
        population.append((p, float(len(seen))))
    return score_table(population)


def pair_key(x: str, y: str) -> tuple[str, str]:
    if x == y:
        raise PreconditionError("a pair needs two distinct points")
    return (x, y) if x < y else (y, x)


def pair_affinity_scores(space: TypedSpace, two_witness: bool = False) -> ScoreTable:
    """Per unordered point pair: how many distinct types are shared.

    By default a type counts when one open of that exact type contains both
    points; ``two_witness`` instead counts types realized separately at each
    point (each point inside some open of that type). The single-witness
    reading is the supported one.
    """
    space_mod.require_strict(space)
    pts = space.points
    if two_witness:
        per_point = {}
        for i, p in enumerate(pts):
            bit = 1 << i
            per_point[p] = {space.sigma[m] for m in space.opens if m and (m & bit)}
    population = []
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            key = pair_key(x, y)
            if two_witness:
                count = len(per_point[x] & per_point[y])
            else:
                both = space.point_bit(x) | space.point_bit(y)
                count = len({space.sigma[m] for m in space.opens if (m & both) == both})
            population.append((key, float(count)))
    return score_table(population)
