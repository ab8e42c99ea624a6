"""Dataset builders: advisor genealogies, street communities, predicate tables.

Each builder turns a plain dataset into a typed space via
`space.generate_topology`. The datasets of the three shipped fixtures,
`GENEALOGY5`, `STREET5` and `STREET2X3`, are defined here; their built spaces
ship as JSON files under ``fixtures/``.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

from . import lattice, space
from .errors import DatasetError
from .lattice import Context, Poset, clause_of
from .space import GeneratorSpec, TypedSpace


@dataclass(frozen=True)
class GenealogyDataset:
    """Advisor edges ``(advisor, student)``; the relation must be acyclic."""

    edges: tuple[tuple[str, str], ...]

    def people(self) -> tuple[str, ...]:
        seen: list[str] = []
        for a, b in self.edges:
            for p in (a, b):
                if p not in seen:
                    seen.append(p)
        return tuple(seen)


@dataclass(frozen=True)
class CommunityDataset:
    """Streets with ordered residents plus named symmetric relations."""

    streets: tuple[tuple[str, tuple[str, ...]], ...]
    relations: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = ()

    def residents(self) -> tuple[str, ...]:
        out: list[str] = []
        for _, rs in self.streets:
            for r in rs:
                if r in out:
                    raise DatasetError(f"duplicate resident {r!r}")
                out.append(r)
        return tuple(out)


@dataclass(frozen=True)
class Predicate:
    name: str
    expr: str
    implies: tuple[str, ...] = ()


@dataclass(frozen=True)
class PredicateTableDataset:
    """CSV-shaped rows plus comparison predicates with declared implications."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    predicates: tuple[Predicate, ...]

    def row_ids(self) -> tuple[str, ...]:
        return tuple(f"r{i + 1}" for i in range(len(self.rows)))


# ---------------------------------------------------------------------------
# genealogy
# ---------------------------------------------------------------------------


def _descendants(edges, person) -> set:
    out, frontier = set(), {person}
    children: dict[str, set] = {}
    for a, b in edges:
        children.setdefault(a, set()).add(b)
    while frontier:
        nxt = set()
        for p in frontier:
            for c in children.get(p, ()):
                if c not in out:
                    out.add(c)
                    nxt.add(c)
        frontier = nxt
    return out


def _ancestors(edges, person) -> set:
    flipped = tuple((b, a) for a, b in edges)
    return _descendants(flipped, person)


def build_genealogy(data: GenealogyDataset) -> TypedSpace:
    """Typed space of an advisor forest.

    Two unordered generators, ``anc`` and ``desc``. A student ``x`` with an
    advisor contributes the open set of x's proper ancestors, typed
    ``@x & anc`` meeting the points of every proper descendant of x's
    advisor(s). Dually, anyone with students contributes the set of proper
    descendants typed through the ancestors of the root person.
    """
    people = data.people()
    for p in people:
        if p in _descendants(data.edges, p):
            raise DatasetError(f"advisor cycle through {p!r}")
    poset = Poset({"anc", "desc"})
    ctx = Context(poset, people)
    specs: list[GeneratorSpec] = []
    for x in people:
        anc = _ancestors(data.edges, x)
        if anc:
            scope = set()
            for a, b in data.edges:
                if b == x:
                    scope |= _descendants(data.edges, a)
            term = lattice.normalize(ctx, [clause_of(gens=["anc"], pos={x} | scope)])
            specs.append(GeneratorSpec(f"anc_{x}", frozenset(anc), term))
    for x in people:
        desc = _descendants(data.edges, x)
        if desc:
            anc = _ancestors(data.edges, x)
            term = lattice.normalize(ctx, [clause_of(gens=["desc"], pos={x} | anc)])
            specs.append(GeneratorSpec(f"desc_{x}", frozenset(desc), term))
    return space.generate_topology(specs, poset, people)


# ---------------------------------------------------------------------------
# community
# ---------------------------------------------------------------------------


def build_community(data: CommunityDataset) -> TypedSpace:
    """Typed space of streets with left/right neighbor rays and relations.

    Per street: the street itself typed by its name; per resident, the right
    ray (that resident and everyone to the right) typed ``@x & right`` and
    a symmetric left ray. Per relation, each member's partner ball
    (partners plus the member) typed ``@x & <relation>``.
    """
    residents = data.residents()
    gens = {name for name, _ in data.streets} | {"left", "right"}
    gens |= {name for name, _ in data.relations}
    poset = Poset(gens)
    ctx = Context(poset, residents)
    specs: list[GeneratorSpec] = []
    for sname, members in data.streets:
        term = lattice.normalize(ctx, [clause_of(gens=[sname])])
        specs.append(GeneratorSpec(f"street_{sname}", frozenset(members), term))
        for i, x in enumerate(members):
            right = members[i:]
            left = members[: i + 1]
            specs.append(
                GeneratorSpec(
                    f"right_{x}",
                    frozenset(right),
                    lattice.normalize(ctx, [clause_of(gens=["right"], pos=[x])]),
                )
            )
            specs.append(
                GeneratorSpec(
                    f"left_{x}",
                    frozenset(left),
                    lattice.normalize(ctx, [clause_of(gens=["left"], pos=[x])]),
                )
            )
    for rname, pairs in data.relations:
        partners: dict[str, set] = {}
        for a, b in pairs:
            if a == b:
                raise DatasetError(f"relation {rname!r} pairs a point with itself: {a!r}")
            if a not in residents or b not in residents:
                raise DatasetError(f"relation {rname!r} uses unknown resident")
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
        for x, ps in sorted(partners.items()):
            specs.append(
                GeneratorSpec(
                    f"{rname}_{x}",
                    frozenset(ps | {x}),
                    lattice.normalize(ctx, [clause_of(gens=[rname], pos=[x])]),
                )
            )
    return space.generate_topology(specs, poset, residents)


# ---------------------------------------------------------------------------
# predicate tables
# ---------------------------------------------------------------------------

_OPS = ("<=", ">=", "!=", "=", "<", ">")


def _coerce(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def _eval_atom(atom: str, columns, row) -> bool:
    for op in _OPS:
        if op in atom:
            col, _, rhs = atom.partition(op)
            col, rhs = col.strip(), rhs.strip()
            if col not in columns:
                raise DatasetError(f"predicate uses unknown column {col!r}")
            lhs = _coerce(row[columns.index(col)])
            rv = _coerce(rhs)
            if isinstance(lhs, float) != isinstance(rv, float):
                raise DatasetError(f"type mismatch comparing {col!r} with {rhs!r}")
            if op == "=":
                return lhs == rv
            if op == "!=":
                return lhs != rv
            if op == "<":
                return lhs < rv
            if op == "<=":
                return lhs <= rv
            if op == ">":
                return lhs > rv
            return lhs >= rv
    raise DatasetError(f"no comparison operator in predicate atom {atom!r}")


def eval_predicate(expr: str, columns: Sequence[str], row: Sequence[str]) -> bool:
    """Evaluate ``col OP const [AND col OP const ...]`` against one row."""
    return all(_eval_atom(a, tuple(columns), tuple(row)) for a in expr.split(" AND "))


def build_table(data: PredicateTableDataset, apply_strictify: bool = False) -> TypedSpace:
    """Typed space of table rows selected by predicates.

    Each predicate with a nonempty result set becomes a generator typed by
    its own poset element; declared implications order the poset and are
    verified extensionally against the rows (a false declaration is a hard
    error naming a witness row). ``apply_strictify`` runs the point-literal
    strictness repair on the result. The repair leaves the whole set alone,
    so it needs every row to match some predicate: otherwise the union of
    the predicate sets ties with the whole set, and the rows outside it are
    named in a `DatasetError` before anything is generated.
    """
    ids = data.row_ids()
    names = [p.name for p in data.predicates]
    if len(set(names)) != len(names):
        raise DatasetError("duplicate predicate names")
    sat: dict[str, frozenset] = {}
    for pred in data.predicates:
        hits = {
            rid
            for rid, row in zip(ids, data.rows)
            if eval_predicate(pred.expr, data.columns, row)
        }
        sat[pred.name] = frozenset(hits)
    pairs = []
    for pred in data.predicates:
        for target in pred.implies:
            if target not in sat:
                raise DatasetError(f"{pred.name!r} implies unknown predicate {target!r}")
            missing = sat[pred.name] - sat[target]
            if missing:
                raise DatasetError(
                    f"declared implication {pred.name!r} => {target!r} fails on row "
                    f"{sorted(missing)[0]!r}"
                )
            pairs.append((pred.name, target))
    if apply_strictify:
        unmatched = [rid for rid in ids if not any(rid in hits for hits in sat.values())]
        if unmatched:
            raise DatasetError(
                f"strictness repair needs every row to match a predicate; "
                f"rows matching none: {unmatched}"
            )
    poset = Poset(names, pairs)
    ctx = Context(poset, ids)
    specs = [
        GeneratorSpec(p.name, sat[p.name], lattice.normalize(ctx, [clause_of(gens=[p.name])]))
        for p in data.predicates
        if sat[p.name]
    ]
    built = space.generate_topology(specs, poset, ids)
    return space.strictify(built) if apply_strictify else built


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------


def read_genealogy_csv(text: str) -> GenealogyDataset:
    """CSV with header ``advisor,student``."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["advisor", "student"]:
        raise DatasetError("genealogy CSV must start with header 'advisor,student'")
    edges = []
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise DatasetError(f"bad genealogy row: {row!r}")
        edges.append((row[0].strip(), row[1].strip()))
    return GenealogyDataset(tuple(edges))


def read_community_json(text: str) -> CommunityDataset:
    obj = json.loads(text)
    streets = tuple((s["name"], tuple(s["residents"])) for s in obj.get("streets", []))
    relations = tuple(
        (r["name"], tuple((a, b) for a, b in r.get("pairs", [])))
        for r in obj.get("relations", [])
    )
    return CommunityDataset(streets, relations)


def read_table_dataset(csv_text: str, predicates_text: str) -> PredicateTableDataset:
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if not header:
        raise DatasetError("table CSV needs a header row")
    rows = tuple(tuple(cell.strip() for cell in row) for row in reader if row)
    preds = []
    for entry in json.loads(predicates_text):
        preds.append(
            Predicate(entry["name"], entry["expr"], tuple(entry.get("implies", ())))
        )
    return PredicateTableDataset(tuple(h.strip() for h in header), rows, tuple(preds))


# ---------------------------------------------------------------------------
# shipped fixtures
# ---------------------------------------------------------------------------

GENEALOGY5 = GenealogyDataset((("B", "S"), ("S", "H"), ("H", "C"), ("C", "W")))

STREET5 = CommunityDataset((("mainst", ("r1", "r2", "r3", "r4", "r5")),))

STREET2X3 = CommunityDataset(
    (("ash", ("a1", "a2", "a3")), ("birch", ("b1", "b2", "b3")))
)
