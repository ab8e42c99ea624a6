import json
from pathlib import Path

import pytest

from typedtopo import lattice, space
from typedtopo.errors import DatasetError
from typedtopo.ingest import (
    CommunityDataset,
    GenealogyDataset,
    Predicate,
    PredicateTableDataset,
    build_community,
    build_genealogy,
    build_table,
    read_community_json,
    read_genealogy_csv,
    read_table_dataset,
)
from typedtopo.lattice import format_term
from typedtopo.space import is_strictly_typed, space_to_json, validate_type_mapping

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_genealogy_generator_shapes(genealogy5):
    g = genealogy5
    names = {s.name for s in g.generators}
    assert names == {
        "anc_S",
        "anc_H",
        "anc_C",
        "anc_W",
        "desc_B",
        "desc_S",
        "desc_H",
        "desc_C",
    }
    by_name = {s.name: s for s in g.generators}
    assert by_name["anc_W"].members == frozenset({"B", "S", "H", "C"})
    assert format_term(by_name["anc_W"].type_term) == "anc & @W"
    assert by_name["desc_C"].members == frozenset({"W"})
    assert format_term(by_name["desc_C"].type_term) == "desc & @B & @C & @H & @S"


def test_genealogy_interval_identity(genealogy5):
    g = genealogy5
    anc_ray = g.mask_of(["B", "S", "H", "C"])
    desc_ray = g.mask_of(["C", "W"])
    c = g.mask_of(["C"])
    assert anc_ray & desc_ray == c
    assert c in g.opens


def test_genealogy_leaf_has_no_descendant_generator():
    branched = GenealogyDataset((("A", "B1"), ("A", "B2"), ("B1", "C1")))
    sp = build_genealogy(branched)
    names = {s.name for s in sp.generators}
    assert "desc_B2" not in names and "desc_C1" not in names
    # a childless co-student's singleton is not recoverable from the generators
    assert sp.mask_of(["B2"]) not in sp.opens
    assert sp.mask_of(["C1"]) in sp.opens


def test_genealogy_co_students_share_ancestor_sets():
    branched = GenealogyDataset((("A", "B1"), ("A", "B2"), ("B1", "C1")))
    sp = build_genealogy(branched)
    by_name = {s.name: s for s in sp.generators}
    assert by_name["anc_B1"].members == by_name["anc_B2"].members == frozenset({"A"})


def test_genealogy_rejects_cycles():
    with pytest.raises(DatasetError):
        build_genealogy(GenealogyDataset((("A", "B"), ("B", "A"))))


def test_street5_topology_is_discrete(street5):
    assert len(street5.opens) == 2 ** len(street5.points)


def test_street2x3_shape(street2x3):
    assert street2x3.points == ("a1", "a2", "a3", "b1", "b2", "b3")
    assert len(street2x3.opens) == 64
    assert is_strictly_typed(street2x3).strict


def test_community_rejects_duplicate_residents():
    with pytest.raises(DatasetError):
        CommunityDataset((("a", ("x", "y")), ("b", ("y",)))).residents()


def test_community_rejects_reflexive_relation_pairs():
    data = CommunityDataset((("a", ("x", "y")),), (("cm", (("x", "x"),)),))
    with pytest.raises(DatasetError):
        build_community(data)


def test_community_relation_generators():
    data = CommunityDataset((("a", ("x", "y", "z")),), (("cm", (("x", "z"),)),))
    sp = build_community(data)
    by_name = {s.name: s for s in sp.generators}
    assert by_name["cm_x"].members == frozenset({"x", "z"})
    assert format_term(by_name["cm_x"].type_term) == "cm & @x"
    assert by_name["cm_z"].members == frozenset({"x", "z"})


def test_table_builder_nested_predicates():
    data = read_table_dataset(
        (FIXDIR / "datasets" / "fees.csv").read_text(),
        (FIXDIR / "datasets" / "fees_predicates.json").read_text(),
    )
    sp = build_table(data)
    by_name = {s.name: s for s in sp.generators}
    assert by_name["cheap"].members < by_name["affordable"].members
    assert lattice.leq(by_name["cheap"].type_term, by_name["affordable"].type_term)
    assert validate_type_mapping(sp).ok


def test_table_builder_strictify_pass():
    data = read_table_dataset(
        (FIXDIR / "datasets" / "fees.csv").read_text(),
        (FIXDIR / "datasets" / "fees_predicates.json").read_text(),
    )
    sp = build_table(data, apply_strictify=True)
    assert is_strictly_typed(sp).strict


def test_table_builder_single_row_predicate_is_singleton_open():
    data = PredicateTableDataset(
        ("id", "fee"),
        (("1", "150"), ("2", "450")),
        (Predicate("one", "fee=150"), Predicate("all", "fee<1000")),
    )
    sp = build_table(data)
    assert sp.mask_of(["r1"]) in sp.opens


def test_table_builder_drops_empty_predicates():
    data = PredicateTableDataset(
        ("fee",),
        (("150",),),
        (Predicate("none", "fee>900"), Predicate("all", "fee<1000")),
    )
    sp = build_table(data)
    assert {s.name for s in sp.generators} == {"all"}


def test_table_builder_rejects_false_implication():
    data = PredicateTableDataset(
        ("fee",),
        (("150",), ("800",)),
        (Predicate("big", "fee>500", implies=("small",)), Predicate("small", "fee<200")),
    )
    with pytest.raises(DatasetError) as err:
        build_table(data)
    assert "r2" in str(err.value)


UNMATCHED_CSV = "id,fee\n1,150\n2,450\n3,1500\n"
UNMATCHED_PREDICATES = json.dumps([
    {"name": "cheap", "expr": "fee<200", "implies": ["affordable"]},
    {"name": "affordable", "expr": "fee<1000"},
])


def test_table_strictify_names_rows_that_match_no_predicate(monkeypatch):
    data = read_table_dataset(UNMATCHED_CSV, UNMATCHED_PREDICATES)
    assert not is_strictly_typed(build_table(data)).strict

    def no_generation(*_):
        raise AssertionError("generated a space for a table the repair cannot fix")

    monkeypatch.setattr(space, "generate_topology", no_generation)
    with pytest.raises(DatasetError) as err:
        build_table(data, apply_strictify=True)
    assert "['r3']" in str(err.value)


def test_table_predicate_type_mismatch():
    data = PredicateTableDataset(
        ("fee",), (("abc",),), (Predicate("p", "fee<10"),)
    )
    with pytest.raises(DatasetError):
        build_table(data)


def test_dataset_file_parsers():
    g = read_genealogy_csv("advisor,student\nB,S\nS,H\n")
    assert g.edges == (("B", "S"), ("S", "H"))
    with pytest.raises(DatasetError):
        read_genealogy_csv("a,b\nB,S\n")
    c = read_community_json(
        json.dumps(
            {
                "streets": [{"name": "a", "residents": ["x"]}],
                "relations": [{"name": "cm", "pairs": [["x", "x"]]}],
            }
        )
    )
    assert c.streets == (("a", ("x",)),)


def test_shipped_fixture_files_match_builders(genealogy5, street5, street2x3):
    for sp, fname in (
        (genealogy5, "genealogy5.json"),
        (street5, "street5.json"),
        (street2x3, "street2x3.json"),
    ):
        on_disk = json.loads((FIXDIR / fname).read_text())
        assert on_disk == space_to_json(sp)


def test_all_builders_validate(street5, street2x3, genealogy5):
    for sp in (street5, street2x3, genealogy5):
        assert validate_type_mapping(sp).ok
        assert is_strictly_typed(sp).strict
