import dataclasses
import itertools
import math
import random
import statistics
from pathlib import Path

import pytest

from conftest import FIXTURES, random_generated_space
from typedtopo import ingest, lattice, space, stats
from typedtopo.errors import NoVarianceError, NotStrictlyTypedError, PreconditionError
from typedtopo.ingest import CommunityDataset, GenealogyDataset
from typedtopo.stats import pair_key, score_table


def ranked(table) -> tuple:
    """The subjects of ``table`` from highest z to lowest, ties by subject key."""
    return tuple(s for s, _ in sorted(table.population, key=lambda kv: (-table.z[kv[0]], str(kv[0]))))


def two_pass(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def test_family_sizes_street5(street5):
    table = stats.family_size_scores(street5, "right")
    sizes = sorted(v for _, v in table.population)
    assert sizes == [1.0, 2.0, 3.0, 4.0]
    mean, std = two_pass(sizes)
    assert table.mean == pytest.approx(mean, abs=1e-12)
    assert table.sample_std == pytest.approx(std, abs=1e-12)
    assert table.mean == pytest.approx(2.5, abs=1e-12)
    assert table.sample_std == pytest.approx(1.2909944487358056, abs=1e-9)
    assert table.z[("r2", "r3", "r4", "r5")] == pytest.approx(1.161895003862225, abs=1e-9)


def test_family_sizes_zero_spread_raises():
    """Two disjoint equal-size balls whose union is polluted by a third type."""
    from typedtopo.lattice import Context, Poset, parse_type_expr
    from typedtopo.space import GeneratorSpec, generate_topology, is_strictly_typed

    poset = Poset({"cm", "d"})
    pts = ("x", "y", "z", "w")
    ctx = Context(poset, pts)
    sp = generate_topology(ctx, [
        GeneratorSpec("bx", frozenset({"x", "y"}), parse_type_expr("cm & @x", ctx)),
        GeneratorSpec("bz", frozenset({"z", "w"}), parse_type_expr("cm & @z", ctx)),
        GeneratorSpec("mid", frozenset({"y", "z"}), parse_type_expr("d & @y", ctx)),
    ])
    assert is_strictly_typed(sp).strict
    with pytest.raises(NoVarianceError):
        stats.family_size_scores(sp, "cm")


def test_family_sizes_single_member_raises():
    # a lone one-resident street realizes no pure right-typed open at all
    single = CommunityDataset((("a", ("x1",)),))
    sp2 = ingest.build_community(single)
    with pytest.raises(NoVarianceError):
        stats.family_size_scores(sp2, "right")


def test_family_sizes_cross_street_ray_unions_count():
    # unions of same-typed rays across streets are pure members too
    twin = CommunityDataset((("a", ("x1", "x2")), ("b", ("y1", "y2"))))
    sp = ingest.build_community(twin)
    table = stats.family_size_scores(sp, "left")
    assert dict(table.population) == {
        ("x1",): 1.0,
        ("y1",): 1.0,
        ("x1", "y1"): 2.0,
    }


def test_family_sizes_build_realized_types_once(monkeypatch, street2x3):
    init = space.RealizedTypes.__init__
    builds = []
    monkeypatch.setattr(space.RealizedTypes, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    stats.family_size_scores(dataclasses.replace(street2x3), "right")
    assert len(builds) == 1


def test_point_activity_street5(street5):
    table = stats.point_activity_scores(street5, "right")
    assert dict(table.population) == {
        "r1": 0.0,
        "r2": 1.0,
        "r3": 2.0,
        "r4": 3.0,
        "r5": 4.0,
    }
    assert ranked(table)[0] == "r5"


def test_point_activity_reads_each_type_once(monkeypatch):
    """The counts read the realized types by index: no open's type renders a cube."""
    sp = space.load_space(Path(__file__).resolve().parent.parent / "fixtures" / "street2x3.json")
    rendered = []
    render = lattice._Code.render
    monkeypatch.setattr(
        lattice._Code, "render", lambda code, cube: rendered.append(cube) or render(code, cube)
    )
    stats.point_activity_scores(sp, "right")
    assert rendered == []


def test_point_activity_genealogy_root_scores_highest(genealogy5):
    table = stats.point_activity_scores(genealogy5, "anc")
    values = dict(table.population)
    assert values["B"] == 4.0
    assert all(values["B"] >= v for v in values.values())
    assert ranked(table)[0] == "B"


def test_point_activity_counts_distinct_types_not_opens(genealogy5):
    # |L_x| stays below the number of opens through x whenever types repeat
    for p, v in stats.point_activity_scores(genealogy5, "anc").population:
        through = sum(
            1 for m in genealogy5.opens if m and m & genealogy5.point_bit(p)
        )
        assert v <= through


def test_point_activity_no_variance_for_twin_points():
    twin = CommunityDataset((("a", ("x1", "x2")), ("b", ("y1", "y2"))))
    sp = ingest.build_community(twin)
    with pytest.raises(NoVarianceError):
        stats.point_activity_scores(sp, "a")


def test_pair_affinity_degenerate_on_discrete_topology(genealogy5):
    """All 32 subsets are open with distinct types, so every pair of points
    shares exactly the 8 types of its common supersets; zero spread."""
    counts = set()
    for i, x in enumerate(genealogy5.points):
        for y in genealogy5.points[i + 1 :]:
            both = genealogy5.point_bit(x) | genealogy5.point_bit(y)
            shared = {
                genealogy5.sigma[m].sort_key()
                for m in genealogy5.opens
                if (m & both) == both
            }
            counts.add(len(shared))
    assert counts == {8}
    with pytest.raises(NoVarianceError):
        stats.pair_affinity_scores(genealogy5)


BRANCHED = GenealogyDataset((("A", "B1"), ("A", "B2"), ("B1", "C1")))


def test_pair_affinity_on_branched_genealogy():
    sp = ingest.build_genealogy(BRANCHED)
    table = stats.pair_affinity_scores(sp)
    values = dict(table.population)
    # re-derive each count independently from the open/type table
    for (x, y), v in values.items():
        both = sp.point_bit(x) | sp.point_bit(y)
        shared = {
            sp.sigma[m].sort_key() for m in sp.opens if (m & both) == both
        }
        assert v == float(len(shared))
    assert values[("B1", "C1")] == 4.0
    assert values[("A", "B2")] == 1.0
    assert values[("B1", "C1")] > values[("B1", "B2")]
    assert ranked(table)[0] == ("B1", "C1")


def test_pair_affinity_two_witness_variant():
    sp = ingest.build_genealogy(BRANCHED)
    table = stats.pair_affinity_scores(sp, two_witness=True)
    single = dict(stats.pair_affinity_scores(sp).population)
    for pair, v in table.population:
        assert v >= single[pair]


def test_pair_affinity_two_point_space_has_no_population():
    single = CommunityDataset((("a", ("x1", "x2")),))
    sp = ingest.build_community(single)
    with pytest.raises(NoVarianceError):
        stats.pair_affinity_scores(sp)


def test_pair_key_rejects_equal_points():
    with pytest.raises(PreconditionError):
        pair_key("x", "x")
    assert pair_key("y", "x") == ("x", "y")


def test_score_table_matches_statistics_module():
    pop = [(f"s{i}", float(v)) for i, v in enumerate([3, 1, 4, 1, 5, 9, 2, 6])]
    table = score_table(pop)
    vals = [v for _, v in pop]
    assert table.mean == pytest.approx(statistics.fmean(vals), rel=1e-12)
    assert table.sample_std == pytest.approx(statistics.stdev(vals), rel=1e-12)
    mean, std = two_pass(vals)
    assert table.mean == pytest.approx(mean, rel=1e-12)
    assert table.sample_std == pytest.approx(std, rel=1e-12)


def test_score_table_rejects_degenerate_populations():
    with pytest.raises(NoVarianceError):
        score_table([("a", 1.0)])
    with pytest.raises(NoVarianceError):
        score_table([("a", 2.0), ("b", 2.0)])


def test_z_ordering_invariant_under_scaling():
    pop = [(f"s{i}", float(v)) for i, v in enumerate([3, 1, 4, 1, 5, 9, 2, 6])]
    base = score_table(pop)
    for factor in (2.0, 10.0, 0.25):
        scaled = score_table([(s, v * factor) for s, v in pop])
        assert ranked(scaled) == ranked(base)
        assert scaled.mean != base.mean


def test_z_scores_invariant_under_point_relabeling(street5):
    relabel = {f"r{i}": f"q{6 - i}" for i in range(1, 6)}
    renamed = CommunityDataset(
        (("mainst", tuple(relabel[p] for p in ("r1", "r2", "r3", "r4", "r5"))),)
    )
    sp2 = ingest.build_community(renamed)
    t1 = stats.point_activity_scores(street5, "right")
    t2 = stats.point_activity_scores(sp2, "right")
    for p, z in t1.z.items():
        assert t2.z[relabel[p]] == pytest.approx(z, abs=1e-12)


def _activity_by_terms(sp, gen) -> list:
    """Per point, the distinct terms ``sigma[m]`` using only ``gen`` over the opens through it."""
    space.require_strict(sp)
    if gen not in sp.poset.elements:
        raise PreconditionError(f"unknown generator {gen!r}")
    return [(p, float(len({sp.sigma[m] for m in sp.opens if m >> i & 1
                           and sp.sigma[m].uses_only({gen})})))
            for i, p in enumerate(sp.points)]


def _affinity_by_terms(sp, two_witness: bool) -> list:
    """Per pair, the distinct terms of one open through both, or of opens through each."""
    space.require_strict(sp)
    through = [{sp.sigma[m] for m in sp.opens if m >> i & 1} for i in range(len(sp.points))]
    out = []
    for (i, x), (k, y) in itertools.combinations(enumerate(sp.points), 2):
        both = 1 << i | 1 << k
        shared = (through[i] & through[k] if two_witness
                  else {sp.sigma[m] for m in sp.opens if m & both == both})
        out.append((pair_key(x, y), float(len(shared))))
    return out


def _outcome(make):
    """A table's population, mean, spread and z-scores, or the refusal it raised."""
    try:
        table = make()
    except (PreconditionError, NoVarianceError, NotStrictlyTypedError) as err:
        return type(err), str(err)
    return table.population, table.mean, table.sample_std, table.z


def _typed(gens, points, typed: dict) -> space.TypedSpace:
    """The space whose opens are the empty set and the masks of ``typed``, typed as it says."""
    ctx = lattice.Context(lattice.Poset(gens), points)
    sigma = {0: ctx.bottom(), **{m: lattice.parse_type_expr(t, ctx) for m, t in typed.items()}}
    return space.TypedSpace(ctx, frozenset(sigma), sigma, ())


# Valid strict spaces where a type holds two opens: in the first, the two
# opens of each repeated type never both hold a pair of points; in the
# second, ``{x, y, z}`` and ``{x, y, w}`` are both typed ``g``.
TWO_OPENS_PER_TYPE = (
    ({"g", "h"}, ("x", "y", "z"), {1: "g & @x", 2: "g & @x", 3: "g & @x | h", 4: "h & @z",
                                   5: "g & @x | h & @z", 6: "g & @x | h & @z", 7: "g | h"}),
    ({"g", "h"}, ("x", "y", "z", "w"), {3: "g & @x", 7: "g", 11: "g", 15: "g | h"}),
)


def test_score_tables_match_the_term_hashing_reference(
    genealogy5, street5, street2x3, no_least_base3, tree9
):
    """Counting realized types by index gives the tables that hashing each open's term gives.

    Every generator's activity, the unknown-generator refusal and both
    affinity readings, on the fixtures, TREE9, the strictified fee table,
    the strict random 7-point spaces of seeds 0 to 59, two spaces where a
    type holds two opens, and one that is not strictly typed.
    """
    fees = ingest.build_table(ingest.read_table_dataset(
        (FIXTURES / "datasets" / "fees.csv").read_text(),
        (FIXTURES / "datasets" / "fees_predicates.json").read_text()), apply_strictify=True)
    repeated = [_typed(*args) for args in TWO_OPENS_PER_TYPE]
    for sp in repeated:
        assert space.validate_type_mapping(sp).ok and space.is_strictly_typed(sp).strict
        assert max(map(len, space.realized_types(sp).opens_by_type)) == 2
    tied = _typed({"g"}, ("x", "y"), {1: "g", 3: "g"})
    spaces = [genealogy5, street5, street2x3, no_least_base3, tree9, fees, *repeated, tied]
    spaces += filter(None, (random_generated_space(random.Random(s), 7) for s in range(60)))
    tables = 0
    for sp in spaces:
        for gen in sorted(sp.poset.elements) + ["nosuch"]:
            assert _outcome(lambda: stats.point_activity_scores(sp, gen)) == _outcome(
                lambda: score_table(_activity_by_terms(sp, gen)))
            tables += 1
        for two_witness in (False, True):
            assert _outcome(lambda: stats.pair_affinity_scores(sp, two_witness)) == _outcome(
                lambda: score_table(_affinity_by_terms(sp, two_witness)))
            tables += 1
    assert tables >= 150
