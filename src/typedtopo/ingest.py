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
import operator
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


def _reach(step: dict, person: str) -> set:
    """Everyone reached from ``person`` by one or more steps of ``step``."""
    out, frontier = set(), [person]
    while frontier:
        for q in step.get(frontier.pop(), ()):
            if q not in out:
                out.add(q)
                frontier.append(q)
    return out


def build_genealogy(data: GenealogyDataset) -> TypedSpace:
    """Typed space of an advisor forest.

    Two unordered generators, ``anc`` and ``desc``. A student ``x`` with an
    advisor contributes the open set of x's proper ancestors, typed
    ``@x & anc`` meeting the points of every proper descendant of x's
    advisor(s). Dually, anyone with students contributes the set of proper
    descendants typed through the ancestors of the root person.
    """
    people = data.people()
    students: dict[str, set] = {}
    advisors: dict[str, set] = {}
    for a, b in data.edges:
        students.setdefault(a, set()).add(b)
        advisors.setdefault(b, set()).add(a)
    desc = {p: _reach(students, p) for p in people}
    anc = {p: _reach(advisors, p) for p in people}
    for p in people:
        if p in desc[p]:
            raise DatasetError(f"advisor cycle through {p!r}")
    ctx = Context(Poset({"anc", "desc"}), people)
    specs: list[GeneratorSpec] = []
    for x in people:
        if anc[x]:
            scope = set().union(*(desc[a] for a in advisors[x]))
            term = lattice.normalize(ctx, [clause_of(gens=["anc"], pos={x} | scope)])
            specs.append(GeneratorSpec(f"anc_{x}", frozenset(anc[x]), term))
    for x in people:
        if desc[x]:
            term = lattice.normalize(ctx, [clause_of(gens=["desc"], pos={x} | anc[x])])
            specs.append(GeneratorSpec(f"desc_{x}", frozenset(desc[x]), term))
    return space.generate_topology(ctx, specs)


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
    ctx = Context(Poset(gens), residents)
    specs: list[GeneratorSpec] = []

    def spec(name, members, gen, *at):
        term = lattice.normalize(ctx, [clause_of(gens=[gen], pos=at)])
        specs.append(GeneratorSpec(name, frozenset(members), term))

    for sname, members in data.streets:
        spec(f"street_{sname}", members, sname)
        for i, x in enumerate(members):
            spec(f"right_{x}", members[i:], "right", x)
            spec(f"left_{x}", members[: i + 1], "left", x)
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
            spec(f"{rname}_{x}", ps | {x}, rname, x)
    return space.generate_topology(ctx, specs)


# ---------------------------------------------------------------------------
# predicate tables
# ---------------------------------------------------------------------------

# longer symbols first, so that ``<=`` is not read as ``<``
_OPS = (
    ("<=", operator.le), (">=", operator.ge), ("!=", operator.ne),
    ("=", operator.eq), ("<", operator.lt), (">", operator.gt),
)


def _coerce(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def _eval_atom(atom: str, columns, row) -> bool:
    for symbol, compare in _OPS:
        if symbol in atom:
            col, _, rhs = atom.partition(symbol)
            col, rhs = col.strip(), rhs.strip()
            if col not in columns:
                raise DatasetError(f"predicate uses unknown column {col!r}")
            lhs = _coerce(row[columns.index(col)])
            rv = _coerce(rhs)
            if isinstance(lhs, float) != isinstance(rv, float):
                raise DatasetError(f"type mismatch comparing {col!r} with {rhs!r}")
            return compare(lhs, rv)
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
    ctx = Context(Poset(names, pairs), ids)
    specs = [
        GeneratorSpec(p.name, sat[p.name], lattice.normalize(ctx, [clause_of(gens=[p.name])]))
        for p in data.predicates
        if sat[p.name]
    ]
    built = space.generate_topology(ctx, specs)
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


def _pair(pair) -> tuple:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise DatasetError(f"community dataset: relation pair {pair!r} is not a pair")
    return tuple(pair)


def read_community_json(text: str) -> CommunityDataset:
    """JSON ``{"streets": [{"name", "residents"}], "relations": [{"name", "pairs"}]}``."""
    obj = json.loads(text)
    shape = {"what": "community dataset", "error": DatasetError}
    streets = tuple(
        (space._field(s, "name", str, **shape), tuple(space._names(s, "residents", **shape)))
        for s in space._field(obj, "streets", list, [], **shape)
    )
    relations = tuple(
        (space._field(r, "name", str, **shape),
         tuple(map(_pair, space._field(r, "pairs", list, [], **shape))))
        for r in space._field(obj, "relations", list, [], **shape)
    )
    return CommunityDataset(streets, relations)


def read_table_dataset(csv_text: str, predicates_text: str) -> PredicateTableDataset:
    """A CSV table with a header row, and a JSON list of predicates.

    Each predicate is an object ``{"name", "expr", "implies"}``; ``implies``
    is optional.
    """
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if not header:
        raise DatasetError("table CSV needs a header row")
    rows = tuple(tuple(cell.strip() for cell in row) for row in reader if row)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetError(f"table row r{i + 1} has {len(row)} cells, not {len(header)}")
    entries = json.loads(predicates_text)
    if not isinstance(entries, list):
        raise DatasetError(f"predicates: expected a list, got {type(entries).__name__}")
    shape = {"what": "predicate", "error": DatasetError}
    preds = tuple(
        Predicate(space._field(e, "name", str, **shape), space._field(e, "expr", str, **shape),
                  tuple(space._names(e, "implies", [], **shape)))
        for e in entries
    )
    return PredicateTableDataset(tuple(h.strip() for h in header), rows, preds)


# ---------------------------------------------------------------------------
# shipped fixtures
# ---------------------------------------------------------------------------

GENEALOGY5 = GenealogyDataset((("B", "S"), ("S", "H"), ("H", "C"), ("C", "W")))

STREET5 = CommunityDataset((("mainst", ("r1", "r2", "r3", "r4", "r5")),))

STREET2X3 = CommunityDataset(
    (("ash", ("a1", "a2", "a3")), ("birch", ("b1", "b2", "b3")))
)
