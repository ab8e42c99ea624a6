import itertools
import random
from pathlib import Path

import pytest

from typedtopo import chains, ingest, space as space_mod
from typedtopo.errors import SpaceValidationError
from typedtopo.lattice import Context, Poset, clause_of, normalize
from typedtopo.space import GeneratorSpec, generate_topology

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
C_RIGHT5 = "right & @r1 & @r2 & @r3 & @r4 & @r5 ; right"
C_ANC5 = "anc & @B & @S & @H & @C & @W ; anc"
C_RIGHT6 = "right & @a1 & @a2 & @a3 & @b1 & @b2 & @b3 ; right"


@pytest.fixture(scope="session")
def genealogy5():
    return ingest.build_genealogy(ingest.GENEALOGY5)


@pytest.fixture(scope="session")
def street5():
    return ingest.build_community(ingest.STREET5)


@pytest.fixture(scope="session")
def street2x3():
    return ingest.build_community(ingest.STREET2X3)


@pytest.fixture(scope="session")
def no_least_base3():
    """A valid strict 3-point space whose base families need not have a least member."""
    return space_mod.load_space(FIXTURES / "no_least_base3.json")


@pytest.fixture(scope="session")
def tree9():
    """The heap-shaped 9-person advisor tree: t1 advises t2 and t3, t2 advises t4 and t5, ..."""
    return ingest.build_genealogy(
        ingest.GenealogyDataset(tuple((f"t{i // 2}", f"t{i}") for i in range(2, 10))))


@pytest.fixture(scope="session")
def street10():
    """One street of ten residents: too many realized chains for the theorem replay."""
    residents = tuple(f"r{i}" for i in range(1, 11))
    return ingest.build_community(ingest.CommunityDataset((("main", residents),)))


@pytest.fixture(scope="session")
def c_right5(street5):
    return chains.parse_chain(C_RIGHT5, street5.ctx)


@pytest.fixture(scope="session")
def c_anc5(genealogy5):
    return chains.parse_chain(C_ANC5, genealogy5.ctx)


@pytest.fixture(scope="session")
def c_right6(street2x3):
    return chains.parse_chain(C_RIGHT6, street2x3.ctx)


def random_generated_space(rng: random.Random, max_points: int = 8):
    """One random strictly typed space, or None when the draw is unusable."""
    npts = rng.randint(3, max_points)
    pts = tuple(f"x{i}" for i in range(npts))
    ngen = rng.randint(1, 3)
    gnames = [f"g{i}" for i in range(ngen)]
    pairs = []
    for a, b in itertools.combinations(gnames, 2):
        if rng.random() < 0.25:
            pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    try:
        poset = Poset(gnames, pairs)
    except Exception:
        poset = Poset(gnames)
    ctx = Context(poset, pts)
    specs = []
    for k in range(rng.randint(2, 5)):
        members = frozenset(rng.sample(pts, rng.randint(1, npts)))
        extra = [p for p in sorted(members) if rng.random() < 0.3]
        term = normalize(ctx, [clause_of(gens=[rng.choice(gnames)], pos=extra)])
        specs.append(GeneratorSpec(f"s{k}", members, term))
    try:
        built = generate_topology(ctx, specs)
    except SpaceValidationError:
        return None
    if not space_mod.is_strictly_typed(built).strict:
        try:
            built = space_mod.strictify(built)
        except SpaceValidationError:
            return None
    return built


def chain_support(chain) -> frozenset:
    """The generators the levels of ``chain`` mention."""
    return frozenset().union(*(t.generators() for t in chain.levels))


def random_realized_chain(rng: random.Random, sp):
    """A 2- or 3-level chain over the realized types, or None."""
    rt = space_mod.realized_types(sp)
    n = len(rt)
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        lows = [j for j in range(n) if rt.up[j] >> i & 1]
        if not lows:
            continue
        j = rng.choice(lows)
        levels = [rt.terms[j], rt.terms[i]]
        if rng.random() < 0.4:
            mids = [k for k in range(n) if rt.up[j] >> k & 1 and rt.up[k] >> i & 1]
            if mids:
                levels = [rt.terms[j], rt.terms[rng.choice(mids)], rt.terms[i]]
        try:
            return chains.TypeChain(tuple(levels))
        except Exception:
            continue
    return None
