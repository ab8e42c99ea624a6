"""Typed topological spaces on finite point sets.

A space couples a finite topology (stored as bit-set opens) with a type
mapping into the generator lattice: the empty set alone has type Bottom,
no open has type Top, and inclusion of opens never decreases the type.
The space owns the one `Context` its types live in, and a
`dataclasses.replace` copy shares it.

Every finite topology is Alexandrov: each point x has a least open
neighborhood ``U_x``, the intersection of the opens around it, and the
opens are exactly the unions of the ``U_x``. Construction and validation
both work through that structure.

* Building: the induced type of a generated open is the join, over all
  generator bundles whose intersection fits inside it, of the bundle's
  meet type. That extension is the least monotone one dominating the
  declared generator types. The per-intersection entries come from a
  dynamic program over the intersections, the opens from unions with
  one entry at a time, and each type from the maximal entries inside it.
* Validating: a family is a topology iff it holds the empty set, the whole
  set, every ``U_x`` and every ``O | U_x``; and any proper inclusion of
  opens is a chain of steps ``(U, U | U_x)``, so types rise along all
  inclusions iff they rise along the steps. One walk over the steps tests
  both, on a cube table that holds each open's type row and cover row.
  When it finds a failure or a tie, the exhaustive pair scans run instead,
  and they alone write the failure lists and witnesses.
* Indexing: the realized types share that cube table and keep rows per
  table cube. Their order rows per type are folded from those only when
  something reads them, which no single chain query does.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import and_, or_
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

from . import lattice
from .errors import (
    ContextMismatchError,
    NotStrictlyTypedError,
    PreconditionError,
    SpaceValidationError,
    UnknownPointError,
)
from .lattice import Context, Poset, TypeTerm, clause_of

# Every open is typed and validated, so the opens, not the points, bound a
# build: n points may span up to 2^n opens (a discrete street), and one more
# point doubles the work. On a 2-core Xeon VM, `ingest.build_community` takes
# about 0.13 s on a 12-point street (4,096 opens) and 0.28 s on a 13-point one
# (8,192), the largest that fits; a 16-point street (65,536 opens) fails in
# 0.02 s, while its opens are enumerated and before any of them is typed.
MAX_OPENS = 1 << 13


@dataclass(frozen=True)
class GeneratorSpec:
    """A named open set with its declared type."""

    name: str
    members: frozenset
    type_term: TypeTerm

    def __post_init__(self):
        if self.members and self.type_term.is_bottom:
            raise PreconditionError(f"generator {self.name!r}: nonempty set typed BOT")
        if self.type_term.is_top:
            raise PreconditionError(f"generator {self.name!r}: TOP is not a legal type")


@dataclass(frozen=True, eq=False)
class TypedSpace:
    """Immutable (context, opens, type mapping, generators) bundle.

    The space owns the `Context` its types live in: ``points`` and ``poset``
    are read from ``ctx``, and the types of ``sigma`` and of the generators
    of a built or loaded space are terms of that very object, so the lattice
    operations between them and terms parsed against ``space.ctx`` settle
    on identity. A `dataclasses.replace` copy shares the context, and its
    point map: `point_bit` and `ids_of` read the context's encoding.
    ``sigma`` is stored as a read-only copy of the mapping it is given, so
    nothing can change a type behind the verdicts cached in ``index``.
    """

    ctx: Context
    opens: frozenset  # of int bit masks over ``points``
    sigma: MappingProxyType  # mask -> TypeTerm
    generators: tuple[GeneratorSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", MappingProxyType(dict(self.sigma)))

    @cached_property
    def index(self) -> "SpaceIndex":
        return SpaceIndex()

    @property
    def points(self) -> tuple[str, ...]:
        return self.ctx.points

    @property
    def poset(self) -> Poset:
        return self.ctx.poset

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def point_bit(self, point: str) -> int:
        try:
            return self.ctx._code.point_bit[point]
        except (KeyError, TypeError):  # TypeError: a point of an unhashable type
            raise UnknownPointError(f"unknown point {point!r}") from None

    def mask_of(self, ids: Iterable[str]) -> int:
        """The bits of ``ids``; of several unknown ids, the first sorted one raises."""
        m = 0
        for p in sorted(ids):
            m |= self.point_bit(p)
        return m

    def ids_of(self, mask: int) -> tuple[str, ...]:
        """The point names of ``mask``, sorted (a list comprehension outruns a generator)."""
        return tuple([p for p, b in self.ctx._code.by_name if mask & b])

    def nonempty_opens(self) -> tuple[int, ...]:
        return tuple(sorted(m for m in self.opens if m))


@dataclass(frozen=True)
class Failure:
    code: str
    detail: str
    witness: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[Failure, ...]


@dataclass(frozen=True)
class StrictnessReport:
    strict: bool
    witness: Optional[tuple] = None  # (ids(U), ids(V)) with U subset of V


def _structure_failures(space: TypedSpace) -> list[Failure]:
    out: list[Failure] = []
    opens = space.opens
    if 0 not in opens:
        out.append(Failure("empty-open-missing", "the empty set must be open"))
    if space.full_mask not in opens:
        out.append(Failure("whole-set-missing", "the whole point set must be open"))
    for u, v in itertools.combinations(opens, 2):
        if (u | v) not in opens:
            out.append(Failure(
                "union-closure", "union of opens is not open",
                (space.ids_of(u), space.ids_of(v)),
            ))
        if (u & v) not in opens:
            out.append(Failure(
                "intersection-closure", "intersection of opens is not open",
                (space.ids_of(u), space.ids_of(v)),
            ))
    missing = [m for m in opens if m not in space.sigma]
    for m in missing:
        out.append(Failure("type-missing", "open has no assigned type", (space.ids_of(m),)))
    return out


def _order_scan(space: TypedSpace) -> tuple[list[Failure], StrictnessReport]:
    """Monotone failures and strictness verdict, one `lattice.leq` per ``U < V``.

    Given ``sigma(U) <= sigma(V)``, the converse holds only for equal
    canonical terms, so the first pair with nonempty ``U`` that fails or
    ties is the strictness witness. Opens without a type take no part.
    """
    sig = space.sigma
    opens = sorted(m for m in space.opens if m in sig)
    failures: list[Failure] = []
    witness = None
    for i, u in enumerate(opens):
        for v in opens[i + 1:]:  # a proper superset of u is a larger mask
            if (u & v) != u:
                continue
            ok = lattice.leq(sig[u], sig[v])
            if not ok:
                failures.append(Failure(
                    "monotone", "inclusion with non-increasing types",
                    (space.ids_of(u), space.ids_of(v)),
                ))
            if witness is None and u and (not ok or lattice.term_eq(sig[u], sig[v])):
                witness = (space.ids_of(u), space.ids_of(v))
    return failures, StrictnessReport(witness is None, witness)


def _minimal_neighborhoods(space: TypedSpace) -> Optional[frozenset]:
    """The distinct ``U_x`` when the opens could form a typed topology.

    A family holding the empty and the whole set is a topology iff it also
    holds every ``U_x`` and every ``O | U_x``: then each open is the union
    of the ``U_x`` inside it, every such union is reached one ``U_x`` at a
    time, and ``U_x & U_y`` is the union of the ``U_z`` inside it. ``None``
    when any test but the last fails, which `_steps_rise` makes.
    """
    opens, full = space.opens, space.full_mask
    if 0 not in opens or full not in opens or not opens <= space.sigma.keys():
        return None
    bits = space.ctx._code.point_bit.values()
    mins = frozenset(reduce(and_, [o for o in opens if o & b]) for b in bits)  # one AND per point
    return mins if mins <= opens else None


def _cube_rows(space: TypedSpace) -> tuple[dict, dict, dict]:
    """``(implied_by, types, covers)``, the cube table of ``space``, built once on its index.

    Bit ``i`` stands for the ``i``-th key of ``implied_by``, a distinct cube
    of the nonempty opens' types in rendered key order (so terms sort by
    `TypeTerm.sort_key` as by their bit indexes), whose row holds the cubes
    implying it. One walk over each nonempty open's cubes writes its two
    rows: ``types`` its cubes, and ``covers`` the cubes implying one of them.
    """
    idx = space.index
    if idx.cubes is None:
        terms = {m: space.sigma[m] for m in space.opens if m}
        cubes = sorted(set().union(*(t.cubes for t in terms.values())), key=space.ctx._code.render)
        table = {}  # cube -> (its bit, the row of the cubes implying it)
        for j, d in enumerate(cubes):
            u, p, n = d
            row = 0
            for i, (cu, cp, cn) in enumerate(cubes):
                if not (u & ~cu or p & ~cp or n & ~cn):  # cube i implies d
                    row |= 1 << i
            table[d] = 1 << j, row
        types, covers = {}, {}
        for m, t in terms.items():
            own = cover = 0
            for b, row in map(table.__getitem__, t.cubes):
                own |= b
                cover |= row
            types[m], covers[m] = own, cover
        idx.cubes = {d: row for d, (_, row) in table.items()}, types, covers
    return idx.cubes


def _steps_rise(space: TypedSpace) -> Optional[bool]:
    """True when ``sigma(U) < sigma(V)`` on every step ``V = U | U_x``, U nonempty.

    ``None`` when the opens are no typed topology. On `_cube_rows`,
    ``sigma(U) <= sigma(V)`` iff ``U``'s type row lies in ``V``'s cover
    row, the cubes implying one of ``V``'s, and a tie is equal type rows.
    A step out of the empty set, whose type the table leaves out, need only
    rise weakly: one `lattice.leq` per ``U_x``. Every proper inclusion of
    opens is a chain of steps, so this decides monotonicity and strictness.
    """
    mins = _minimal_neighborhoods(space)
    if mins is None:
        return None
    sig = space.sigma
    _, types, covers = _cube_rows(space)
    rises = all(lattice.leq(sig[0], sig[m]) for m in mins)
    for u, own in types.items():
        for m in mins:
            v = u | m
            if v == u:
                continue
            if v not in types:
                return None
            rises = rises and own != types[v] and not own & ~covers[v]
    return rises


def validate_type_mapping(space: TypedSpace) -> ValidationReport:
    """Exhaustive check of the type-mapping contract.

    Conditions checked: Bottom exactly on the empty set, Top nowhere,
    monotone along inclusion, and topology closed under union/intersection.
    The last two are decided in one walk over the steps ``(U, U | U_x)``
    (`_steps_rise`); on a fault (or a tie, for the order) `_structure_failures`
    or `_order_scan` scans every pair and writes the failure list. The bounds
    ``sigma(U & V) <= sigma(U) ^ sigma(V)`` and ``sigma(U) v sigma(V) <=
    sigma(U | V)`` follow from the last two; `oracle.check_space` replays
    them. The report is recorded on ``space.index``, and a later call
    returns it; when every open has a type, the walk also records the
    strictness verdict that `is_strictly_typed` returns.
    """
    idx = space.index
    if idx.report is not None:
        return idx.report
    rises = _steps_rise(space)
    failures = [] if rises is not None else _structure_failures(space)
    if any(f.code == "type-missing" for f in failures):
        idx.report = ValidationReport(False, tuple(failures))
        return idx.report
    sig = space.sigma
    if 0 in sig and not sig[0].is_bottom:
        failures.append(Failure("bottom-on-empty", "empty set must have type BOT", ((),)))
    for m in space.opens:
        t = sig[m]
        if m and t.is_bottom:
            failures.append(Failure(
                "bottom-off-empty", "nonempty open typed BOT", (space.ids_of(m),)))
        if t.is_top:
            failures.append(Failure("top-forbidden", "open typed TOP", (space.ids_of(m),)))
    monotone, idx.strict_report = ([], StrictnessReport(True)) if rises else _order_scan(space)
    failures += monotone
    idx.report = ValidationReport(not failures, tuple(failures))
    return idx.report


def is_strictly_typed(space: TypedSpace) -> StrictnessReport:
    """Proper inclusion of nonempty opens must strictly increase the type.

    The verdict is the one `validate_type_mapping` records, so a built or
    loaded space walks no step pair here; a cold space is validated first.
    Only when validation stops at an open without a type does `_order_scan`
    decide it here, over the typed opens.
    """
    idx = space.index
    if idx.strict_report is None:
        validate_type_mapping(space)
        if idx.strict_report is None:  # stopped at type-missing
            idx.strict_report = _order_scan(space)[1]
    return idx.strict_report


class SpaceIndex:
    """Derived data of one space, each part built on first use.

    Every `TypedSpace` owns one as ``space.index``; a `dataclasses.replace`
    copy starts with a fresh one, and the index keeps no reference to its
    space. Each slot has one owner, the one function that fills and reads
    it; every other module asks that function:

    * ``report``: `validate_type_mapping`;
    * ``strict_report``: `is_strictly_typed` (validation fills it);
    * ``cubes``: `_cube_rows`, the cube table, in cube key order, with each
      nonempty open's type row and cover row: validation decides on the
      rows, and the realized types read their per-cube rows off the table;
    * ``realized``: `realized_types`;
    * ``irreducibles``: `basis.irreducibles`, per realized-type row, the
      members of its open row not yet decided, the join-irreducible members
      kept so far, and the row's masks in ascending order, sorted once.
    """

    __slots__ = ("report", "strict_report", "cubes", "realized", "irreducibles")

    def __init__(self):
        self.report: Optional[ValidationReport] = None
        self.strict_report: Optional[StrictnessReport] = None
        self.cubes: Optional[tuple[dict, dict, dict]] = None  # (implied_by, types, covers)
        self.realized: Optional[RealizedTypes] = None
        self.irreducibles: dict = {}  # realized-type row -> [undecided, kept, sorted masks]


def require_strict(space: TypedSpace) -> None:
    if not is_strictly_typed(space).strict:
        raise NotStrictlyTypedError("operation requires a strictly typed space")


def _validated(space: TypedSpace, what: str) -> TypedSpace:
    """``space`` once it passes validation; else `SpaceValidationError`."""
    report = validate_type_mapping(space)
    if not report.ok:
        raise SpaceValidationError(f"{what}: {report.failures[0].code}", report)
    return space


def _induced_type_entries(
    ctx: Context, specs: Sequence[GeneratorSpec], masks: Sequence[int]
) -> dict[int, TypeTerm]:
    """Map each nonempty generator-bundle intersection to its best meet type.

    Dynamic programming over the intersections by decreasing size: each
    generator seeds its own set, and every intersection ``M`` passes
    ``E[M] ^ sigma(g)`` on to ``M & g`` for each generator ``g`` that
    shrinks it. A bundle is such a chain of shrinking generators (the
    others only lower its meet), and the lattice is distributive, so
    ``E[M]`` comes out as the join over the bundles meeting in ``M``.
    Meets that come out Bottom add nothing and pass nothing on.
    """
    full = (1 << len(ctx.points)) - 1
    types = [s.type_term for s in specs]
    parts: dict[int, list[TypeTerm]] = {}
    by_size: list[list[int]] = [[] for _ in range(len(ctx.points) + 1)]

    def add(mask: int, term: TypeTerm) -> None:
        if term.is_bottom:
            return
        if mask not in parts:
            parts[mask] = []
            by_size[mask.bit_count()].append(mask)
        parts[mask].append(term)

    for mask, term in zip(masks, types):
        add(mask, term)
    entries: dict[int, TypeTerm] = {}
    for size in range(len(ctx.points), 0, -1):
        for mask in by_size[size]:  # every contribution comes from a larger set
            entries[mask] = term = lattice.join_all(ctx, parts.pop(mask))
            if mask == full:
                continue  # only generators equal to the whole set type it
            for g, t in zip(masks, types):
                sub = mask & g
                if sub and sub != mask:
                    add(sub, lattice.meet(term, t))
    return entries


def _check_generators(ctx: Context, specs: Sequence[GeneratorSpec]) -> None:
    """Generators fit to build or load: unique names, nonempty known members, ``ctx`` types."""
    seen = set()
    for s in specs:
        if s.name in seen:
            raise PreconditionError(f"duplicate generator name {s.name!r}")
        seen.add(s.name)
        if s.type_term.ctx is not ctx:
            raise PreconditionError(f"generator {s.name!r} not typed in the space's context")
        for p in sorted(s.members):
            if p not in ctx.point_set:
                raise UnknownPointError(f"generator {s.name!r} uses unknown point {p!r}")
        if not s.members:
            raise PreconditionError(f"generator {s.name!r} has an empty member set")


def generate_topology(ctx: Context, specs: Sequence[GeneratorSpec]) -> TypedSpace:
    """Generate the typed topology on ``ctx`` spanned by the given generator families.

    The space owns ``ctx``, which must be the very object the generators
    are typed in: one typed in an equal copy raises `PreconditionError`.
    Opens are the unions of nonempty generator intersections (plus the empty
    set and, when not already covered, the whole point set, which then takes
    the join of all generator types). The opens come from adding one
    intersection at a time to every union found so far; a family growing
    past `MAX_OPENS` raises `PreconditionError` before any open is typed.
    An open's type is the join of the intersections' types inside it; opens
    are typed in increasing order, each from its own entry and the already
    joined types of the maximal intersections strictly inside it: taken
    largest first, one is maximal unless the row of those strictly inside
    a kept one holds it. Validation then runs through the least
    neighborhoods (`validate_type_mapping`), and raises
    `SpaceValidationError` when the induced mapping breaks any contract
    condition.
    """
    _check_generators(ctx, specs)
    bit = ctx._code.point_bit
    masks = [sum(bit[p] for p in s.members) for s in specs]
    entries = _induced_type_entries(ctx, specs, masks)

    opens = {0, (1 << len(ctx.points)) - 1}
    for e in entries:
        opens |= {o | e for o in opens}
        if len(opens) > MAX_OPENS:
            raise PreconditionError(
                f"the generated topology on {len(ctx.points)} points has more than "
                f"{MAX_OPENS} opens"
            )

    largest_first = sorted(entries, key=int.bit_count, reverse=True)
    strictly_in = [_bits(largest_first, lambda k: k != m and k & m == k) for m in largest_first]
    sigma: dict[int, TypeTerm] = {0: ctx.bottom()}
    for u in sorted(opens)[1:]:  # a proper subset is a smaller mask
        parts, blocked = [], 0
        for j, m in enumerate(largest_first):
            if m != u and m & u == m and not blocked >> j & 1:
                parts.append(sigma[m])
                blocked |= strictly_in[j]
        if u in entries:
            parts.append(entries[u])
        sigma[u] = lattice.join_all(ctx, parts)

    return _validated(
        TypedSpace(ctx, frozenset(opens), sigma, tuple(specs)),
        "generated space violates the type-mapping contract",
    )


def strictify(space: TypedSpace) -> TypedSpace:
    """Force strictly increasing types along proper inclusions.

    Every proper nonempty open ``U`` gets ``sigma(U) v (N_U ^ sigma(X))``
    where ``N_U`` is the meet of the negated literals of the points outside
    ``U``. Meeting with ``sigma(X)`` keeps the added clause below the type of
    the whole set, so monotonicity survives; the whole set itself is left
    alone (an empty negative meet would be Top). The result is re-validated,
    which also decides its strictness; failures raise, never pass silently.
    """
    ctx = space.ctx
    full = space.full_mask
    top_type = space.sigma[full]
    sigma = dict(space.sigma)
    for m in space.opens:
        if m == 0 or m == full:
            continue
        absent = [p for i, p in enumerate(space.points) if not (m >> i & 1)]
        tag = lattice.normalize(ctx, [clause_of(neg=absent)])
        sigma[m] = lattice.join(space.sigma[m], lattice.meet(tag, top_type))
    out = _validated(
        TypedSpace(ctx, space.opens, sigma, space.generators),
        "strictness repair broke the type mapping",
    )
    verdict = is_strictly_typed(out)
    if not verdict.strict:
        raise SpaceValidationError(f"strictness repair failed on pair {verdict.witness}", verdict)
    return out


def _bits(items, test) -> int:
    """The int with bit ``j`` set iff ``test(items[j])``."""
    return sum(1 << j for j, item in enumerate(items) if test(item))


def bit_indexes(row: int) -> list[int]:
    """The indexes of the set bits of ``row``, ascending."""
    out = []
    while row:
        out.append((row & -row).bit_length() - 1)
        row &= row - 1
    return out


@dataclass(frozen=True, eq=False)
class RealizedTypes:
    """The distinct types of nonempty opens, in `TypeTerm.sort_key` order.

    Sets of realized types are int bitsets, bit ``j`` for ``terms[j]``, and
    so are sets of generators, bit ``i`` for the ``i``-th by name. The order
    is bitset algebra over the space's cube table (`_cube_rows`), with no
    `lattice.leq`: ``s <= t`` iff each cube of ``s`` implies a cube of
    ``t``. The stored rows are indexed by table bit; the rows by realized
    type, `up`, `generators` and `down`, are folded from them on first
    read, and a single chain query reads none of them. A level given as a
    term reaches its rows through `rows` alone, memoized by the term's
    value. A family of opens is an open row, bit ``k`` for
    ``open_masks[k]``, read off a type row by `opens_row`.
    """

    ctx: Context
    terms: tuple[TypeTerm, ...]
    cubes: tuple  # table bit -> its cube
    holders: tuple[int, ...]  # table bit -> bitset of the terms holding that cube
    reach: tuple[int, ...]  # table bit -> bitset of the terms holding a cube it implies
    cube_generators: tuple[int, ...]  # table bit -> bitset of the cube's generators
    opens_by_type: tuple[tuple[int, ...], ...]  # index -> its opens' masks, ascending
    _rows: dict = field(default_factory=dict, init=False, repr=False)  # level -> rows
    _visible: dict = field(default_factory=dict, init=False, repr=False)  # support -> row
    _members: dict = field(default_factory=dict, init=False, repr=False)  # open row -> masks

    def rows(self, level: TypeTerm) -> tuple[int, int]:
        """``(above, below)``, bit ``j`` set iff ``level <= terms[j]``, resp. ``terms[j] <= level``.

        One scan of the table cubes tests both implication directions
        against each cube of ``level``, which must come from an equal
        context: ``terms[j]`` lies above iff each level cube implies one
        of its cubes, and below unless it holds a cube that implies no
        level cube.
        """
        got = self._rows.get(level)
        if got is None:
            if level.ctx is not self.ctx and level.ctx != self.ctx:
                raise ContextMismatchError("level and realized types come from different contexts")
            hits = dict.fromkeys(level.cubes, 0)  # level cube -> the terms holding one it implies
            below = (1 << len(self.terms)) - 1
            for (u, p, n), held in zip(self.cubes, self.holders):
                covered = False
                for c in hits:
                    if not (u & ~c[0] or p & ~c[1] or n & ~c[2]):
                        hits[c] |= held
                    covered = covered or not (c[0] & ~u or c[1] & ~p or c[2] & ~n)
                if not covered:
                    below &= ~held
            got = self._rows[level] = reduce(and_, hits.values(), (1 << len(self.terms)) - 1), below
        return got

    def generator_bits(self, names) -> int:
        """The generator bitset of ``names``."""
        return _bits(self.ctx._code.gens, names.__contains__)

    def visible(self, support: int) -> int:
        """Bit ``j`` set iff every generator ``terms[j]`` mentions is in ``support``.

        Every type starts visible; a table cube with a generator outside
        ``support`` takes its holders out.
        """
        row = self._visible.get(support)
        if row is None:
            row = (1 << len(self.terms)) - 1
            for held, gens in zip(self.holders, self.cube_generators):
                if gens & ~support:
                    row &= ~held
            self._visible[support] = row
        return row

    def _by_type(self, cube_rows, fold, start: int) -> tuple[int, ...]:
        """Each type's ``fold`` of the ``cube_rows`` of the table cubes it holds."""
        out = [start] * len(self.terms)
        for held, row in zip(self.holders, cube_rows):
            for j in bit_indexes(held):
                out[j] = fold(out[j], row)
        return tuple(out)

    @cached_property
    def up(self) -> tuple[int, ...]:
        """Bit ``i`` of ``up[j]`` set iff ``terms[j] <= terms[i]``: what all its cubes reach."""
        return self._by_type(self.reach, and_, (1 << len(self.terms)) - 1)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The generator bitset of each type, the OR of its cubes' generators."""
        return self._by_type(self.cube_generators, or_, 0)

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Bit ``i`` of ``down[j]`` set iff ``terms[i] <= terms[j]``: the transpose of `up`."""
        down = [0] * len(self.terms)
        for i, row in enumerate(self.up):
            for j in bit_indexes(row):
                down[j] |= 1 << i
        return tuple(down)

    @cached_property
    def open_masks(self) -> tuple[int, ...]:
        """The nonempty opens in type order: bit ``k`` of an open row is ``open_masks[k]``."""
        return tuple(itertools.chain.from_iterable(self.opens_by_type))

    def opens_row(self, types: int) -> int:
        """The open row of the opens typed in ``types``: ``types`` itself with one open per type.

        Otherwise the opens of type ``j`` take the bits ``starts[j]`` to ``starts[j + 1] - 1``.
        """
        if len(self.open_masks) == len(self.terms):
            return types
        starts = list(itertools.accumulate(map(len, self.opens_by_type), initial=0))
        return sum((1 << starts[j + 1]) - (1 << starts[j]) for j in bit_indexes(types))

    def members(self, row: int) -> frozenset:
        """The masks of the open row ``row``, memoized: the one way from a row to masks."""
        if row not in self._members:
            self._members[row] = frozenset(map(self.open_masks.__getitem__, bit_indexes(row)))
        return self._members[row]

    def __len__(self):
        return len(self.terms)


def realized_types(space: TypedSpace) -> RealizedTypes:
    """The realized types of ``space``, built once and kept on ``space.index``.

    Built by bit index on the cube table (`_cube_rows`), hashing no term:
    the opens, in ascending mask order, are bucketed by their type rows,
    and the buckets sorted by their rows' bit indexes, `TypeTerm.sort_key`
    order. Only the per-cube rows are built here: a table cube's holders,
    its reach (the terms holding a cube it implies) and its generators, the
    minimal ones of its up-set.
    """
    idx = space.index
    if idx.realized is None:
        implied_by, types, _ = _cube_rows(space)
        buckets: dict[int, list[int]] = {}
        for m in sorted(types):
            buckets.setdefault(types[m], []).append(m)
        keyed = sorted((bit_indexes(row), row) for row in buckets)
        cubes, strict_down = tuple(implied_by), space.ctx._code.strict_down
        gens = tuple(sum(1 << g for g in bit_indexes(u) if not strict_down[g] & u)
                     for u, _, _ in cubes)
        holders, reach = [0] * len(cubes), [0] * len(cubes)
        for j, (own, _) in enumerate(keyed):
            for i in own:
                holders[i] |= 1 << j
        for d, row in enumerate(implied_by.values()):
            for i in bit_indexes(row):
                reach[i] |= holders[d]
        idx.realized = RealizedTypes(
            space.ctx, tuple(space.sigma[buckets[row][0]] for _, row in keyed),
            cubes, tuple(holders), tuple(reach), gens,
            tuple(tuple(buckets[row]) for _, row in keyed))
    return idx.realized


# ---------------------------------------------------------------------------
# JSON space schema
# ---------------------------------------------------------------------------


def space_to_json(space: TypedSpace) -> dict:
    """The space document, opens sorted by their ids.

    A nonempty open's clauses are the bits of its `_cube_rows` row, in
    `TypeTerm.sort_key` order, each rendered once and shared between opens;
    the empty open, Top and the generators go through `lattice.term_to_json`.
    """
    poset_pairs = sorted((a, b) for a, b in space.poset.pairs if a != b)
    implied_by, types, _ = _cube_rows(space)
    clauses = [[{kind: name} for kind, name in space.ctx._code.render(c)[1]] for c in implied_by]
    opens = sorted((space.ids_of(m), m) for m in space.opens)  # ids differ

    def typed(m: int):
        t = space.sigma[m]
        if m not in types or t.is_top:
            return lattice.term_to_json(t)
        return {"clauses": [clauses[i] for i in bit_indexes(types[m])]}

    return {
        "points": list(space.points),
        "poset": {
            "elements": sorted(space.poset.elements),
            "leq": [list(p) for p in poset_pairs],
        },
        "opens": [{"set": list(ids), "type": typed(m)} for ids, m in opens],
        "generators": [
            {
                "name": g.name,
                "set": sorted(g.members),
                "type": lattice.term_to_json(g.type_term),
            }
            for g in space.generators
        ],
    }


def _field(doc, key: str, kind: type, default=None, what="space document",
           error=SpaceValidationError):
    """``doc[key]`` of an object in a JSON document, checked to be a ``kind``.

    A missing field takes ``default`` if there is one; otherwise, like a
    value of another type, it raises ``error`` naming the field in ``what``.
    The dataset readers of `ingest` share this check.
    """
    if not isinstance(doc, dict):
        raise error(f"{what}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        if default is None:
            raise error(f"{what} missing field {key!r}")
        return default
    value = doc[key]
    if not isinstance(value, kind):
        raise error(f"{what}: field {key!r} is not a {kind.__name__}: {value!r}")
    return value


def _names(doc, key: str, default=None, what="space document",
           error=SpaceValidationError) -> list:
    """``doc[key]``, checked to be a list of point or generator names."""
    names = _field(doc, key, list, default, what, error)
    if not all(isinstance(name, str) for name in names):
        raise error(f"{what}: field {key!r} is not a list of names: {names!r}")
    return names


def space_from_json(obj: dict) -> TypedSpace:
    points = tuple(_names(obj, "points"))
    poset_doc = _field(obj, "poset", dict)
    elements, pairs = _names(poset_doc, "elements"), _field(poset_doc, "leq", list)
    for pair in pairs:
        named = isinstance(pair, list) and all(isinstance(g, str) for g in pair)
        if not named or len(pair) != 2:
            raise SpaceValidationError(f"space document: poset order entry {pair!r} is not a pair")
    ctx = Context(Poset(elements, [tuple(p) for p in pairs]), points)
    bit = ctx._code.point_bit
    sigma: dict[int, TypeTerm] = {}
    opens = set()
    for entry in _field(obj, "opens", list, []):
        ids = _field(entry, "set", list)
        mask = 0
        for p in ids:
            try:
                mask |= bit[p]
            except (KeyError, TypeError):  # TypeError: a point of an unhashable type
                raise UnknownPointError(f"open uses unknown point {p!r}") from None
        if mask in opens:
            raise SpaceValidationError(f"duplicate open {sorted(ids)}")
        opens.add(mask)
        sigma[mask] = lattice.term_from_json(ctx, _field(entry, "type", dict))
    generators = tuple(
        GeneratorSpec(
            _field(g, "name", str), frozenset(_names(g, "set")),
            lattice.term_from_json(ctx, _field(g, "type", dict)),
        )
        for g in _field(obj, "generators", list, [])
    )
    _check_generators(ctx, generators)
    return _validated(
        TypedSpace(ctx, frozenset(opens), sigma, generators),
        "space document fails validation",
    )


def load_space(path) -> TypedSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_json(json.load(fh))
