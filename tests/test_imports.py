"""Every name a package module or a test module imports is used in it.

``__init__.py`` imports names to re-export them, and ``from __future__``
imports switch on compiler features, so neither counts. The same parse
gates the callers of public functions, methods and properties, the package
readers of private functions, the length of the oracle's functions and the
functions excused from coverage, and a parse at the grammar of the
``requires-python`` floor keeps newer syntax out of the package.
"""
from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "typedtopo"


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_checker_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "from typing import Iterable, Optional\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return js.dumps(x)\n"
    )
    assert unused_imports(source) == ["Iterable", "os"]


def unused_by_module(modules) -> dict[str, list[str]]:
    """The unused imports of each module in ``modules`` that has any."""
    return {
        p.name: names
        for p in modules
        if (names := unused_imports(p.read_text(encoding="utf-8")))
    }


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert unused_by_module(modules) == {}


def test_test_modules_use_every_import():
    modules = sorted(TESTS.glob("*.py"))
    assert Path(__file__).resolve() in modules
    assert unused_by_module(modules) == {}


# Public functions, methods and properties that nothing in the package or the
# benchmark reads, kept because tests compare the fast route against them.
REFERENCE_ONLY = {
    "lattice.is_join_irreducible": (
        "the valuation reading of join-irreducibility; the lattice tests check "
        "the structural fast path and the irreducible-term laws against it"
    ),
    "closure.is_chain_dense": (
        "the density test of any candidate in any region; the closure and oracle "
        "tests check examples and the exhaustive search's witnesses against it"
    ),
}


def _reference_map(tree: ast.Module, home: str) -> dict[str, str]:
    """Local name -> dotted target, for imports and the module's own functions."""
    names = {
        node.name: f"{home}.{node.name}"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = "typedtopo" if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            for alias in node.names:
                names[alias.asname or alias.name] = f"{module}.{alias.name}"
    return names


def references(source: str, home: str) -> set[str]:
    """Dotted targets, such as ``lattice.leq``, that ``source`` reads.

    ``home`` is the module's own name; a function's reference to itself does
    not count.
    """
    tree = ast.parse(source)
    names = _reference_map(tree, home)

    def resolve(node) -> str | None:
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            return f"{base}.{node.attr}" if base else None
        return None

    out = set()
    for top in tree.body:
        own = f"{home}.{top.name}" if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            target = resolve(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
            if target and target != own:
                out.add(target.removeprefix("typedtopo."))
    return out


def test_references_resolve_each_name_to_its_module():
    source = (
        "from . import basis, lattice as lat\n"
        "from .space import forces\n"
        "import typedtopo\n"
        "def is_join_irreducible(x):\n"
        "    return basis.is_join_irreducible(x) or is_join_irreducible(x)\n"
        "def f():\n"
        "    return lat.meet, forces, typedtopo.chains.chain_pool, is_join_irreducible\n"
    )
    assert references(source, "closure") >= {
        "basis.is_join_irreducible", "lattice.meet", "space.forces", "chains.chain_pool",
        "closure.is_join_irreducible",
    }
    assert "lattice.is_join_irreducible" not in references(source, "closure")
    assert "closure.f" not in references(source, "closure")


def module_functions(source: str, home: str) -> set[str]:
    """``home.name`` of every module-level function of ``source``."""
    return {
        f"{home}.{node.name}" for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    }


def _is_private(function: str) -> bool:
    return function.split(".", 1)[1].startswith("_")


def public_functions() -> set[str]:
    """``module.name`` of every public module-level function in the package."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        out |= module_functions(path.read_text(encoding="utf-8"), path.stem)
    return {f for f in out if not _is_private(f)}


def unread_private(modules: dict[str, str]) -> list[str]:
    """The private module-level functions of ``modules`` (name -> source) none of them reads."""
    private, read = set(), set()
    for home, source in modules.items():
        private |= {f for f in module_functions(source, home) if _is_private(f)}
        read |= references(source, home)
    return sorted(private - read)


def test_an_orphaned_private_helper_is_unread():
    lattice_source = (
        "def _cube_size(c):\n    return sum(c)\n"
        "def _absorb(cubes):\n    return sorted(cubes)\n"
        "def _spin(n):\n    return _spin(n - 1)\n"
    )
    space_source = "from .lattice import _absorb\ndef build(c):\n    return _absorb(c)\n"
    modules = {"lattice": lattice_source, "space": space_source}
    assert unread_private(modules) == ["lattice._cube_size", "lattice._spin"]


def test_every_private_function_has_a_reader_in_the_package():
    """A helper that a rewrite orphaned fails here; tests and the benchmark do not count."""
    modules = {
        p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
    }
    assert "lattice._absorb" in set().union(*(module_functions(s, m) for m, s in modules.items()))
    assert unread_private(modules) == []


def test_every_public_function_has_a_caller():
    """A package module or a benchmark script reads each public function.

    Tests do not count as callers, and neither do the re-exports of
    ``__init__.py``.
    """
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((PACKAGE.parent.parent / "bench").glob("*.py"))
    called = set()
    for path in callers:
        called |= references(path.read_text(encoding="utf-8"), path.stem)
    assert {name for name in REFERENCE_ONLY if name.count(".") == 1} <= public_functions()
    assert sorted(public_functions() - called - REFERENCE_ONLY.keys()) == []


def public_methods(source: str, home: str) -> dict[str, ast.FunctionDef]:
    """``home.Class.name`` -> node of each public method or property of a public class."""
    return {
        f"{home}.{cls.name}.{item.name}": item
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def attribute_reads(node: ast.AST) -> Counter:
    """How often each attribute name is read under ``node``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def unread_methods(sources: dict[str, str], homes: set[str]) -> list[str]:
    """The public methods and properties of the ``homes`` modules that no source reads.

    ``sources`` maps a module name to its source. A read is any attribute of
    the method's name, outside its own body: the receiver's class is not
    resolved, so a read of an equally named attribute of another class
    counts too.
    """
    reads = sum((attribute_reads(ast.parse(s)) for s in sources.values()), Counter())
    out = []
    for home in sorted(homes):
        for name, node in public_methods(sources[home], home).items():
            if reads[node.name] - attribute_reads(node)[node.name] <= 0:
                out.append(name)
    return sorted(out)


def test_an_unread_method_is_found():
    stats_source = (
        "class Table:\n"
        "    def ranked(self):\n        return self.ranked()\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    def _own(self):\n        return self.size\n"
        "class _Hidden:\n    def spare(self):\n        return 0\n"
    )
    cli_source = "def show(t):\n    return t.z.keys()\n"
    sources = {"stats": stats_source, "cli": cli_source}
    assert unread_methods(sources, {"stats"}) == ["stats.Table.ranked"]
    sources["cli"] = "def show(t):\n    return t.ranked\n"
    assert unread_methods(sources, {"stats"}) == []


def test_every_public_method_has_a_reader():
    """A package module or a benchmark script reads each public method or property.

    Tests do not count as readers.
    """
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    del sources["__init__"]
    homes = set(sources)
    sources.update({
        f"bench/{p.name}": p.read_text(encoding="utf-8")
        for p in (PACKAGE.parent.parent / "bench").glob("*.py")
    })
    methods = set().union(*(public_methods(sources[home], home) for home in homes))
    assert "space.TypedSpace.ids_of" in methods
    assert {name for name in REFERENCE_ONLY if name.count(".") == 2} <= methods
    assert sorted(set(unread_methods(sources, homes)) - REFERENCE_ONLY.keys()) == []


def python_floor() -> tuple[int, int]:
    """``(major, minor)`` of the ``requires-python`` line of ``pyproject.toml``.

    Read with a regex: `tomllib` is newer than the floor it would read.
    """
    text = (PACKAGE.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    return int(found[1]), int(found[2])


def too_new(sources: dict[str, str], floor: tuple[int, int]) -> list[str]:
    """``name:line: message`` for each source that the ``floor`` grammar rejects."""
    out = []
    for name, source in sources.items():
        try:
            ast.parse(source, feature_version=floor)
        except SyntaxError as err:
            out.append(f"{name}:{err.lineno}: {err.msg}")
    return out


def test_the_floor_gate_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert too_new({"groups.py": source}, (3, 11)) == []
    assert too_new({"groups.py": source}, (3, 10)) == [
        "groups.py:4: Exception groups are only supported in Python 3.11 and greater"
    ]


def test_package_modules_parse_at_the_python_floor():
    assert python_floor() == (3, 10)
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert "lattice.py" in sources
    assert too_new(sources, python_floor()) == []


def test_oracle_functions_stay_short():
    """No function of ``oracle.py``, nested ones included, is longer than 60 lines.

    The theorem replay stays a sequence of small checks that a reader can
    match one by one against the statements they replay.
    """
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    lengths = {
        node.name: node.end_lineno - node.lineno + 1
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    assert "check_space" in lengths
    assert {name: n for name, n in lengths.items() if n > 60} == {}


# What reaches the cube table behind the realized types: `space._cube_rows`
# builds it, ``RealizedTypes.cubes``, ``holders``, ``reach`` and
# ``cube_generators`` are its columns, and `RealizedTypes.rows` scans it for a
# level given as a term.
CUBE_TABLE = {"rows", "cubes", "holders", "reach", "cube_generators", "_cube_rows"}


def test_the_oracle_reads_no_cube_table():
    """`oracle.py` reads realized types by index, never the cube table.

    An attribute read or an imported name counts, whatever its receiver.
    """
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    names = set(attribute_reads(ast.parse(source)))
    names |= {target.rsplit(".", 1)[-1] for target in references(source, "oracle")}
    assert {"up", "opens_by_type", "irreducibles"} <= names
    assert sorted(names & CUBE_TABLE) == []


# The modules that read `RealizedTypes.open_masks`, the masks behind an open
# row's bits: `space.py` owns the row-to-mask mapping (`RealizedTypes.opens_row`
# and `members`, the one expansion), the oracle keeps its own to stay
# independent, and `basis.irreducibles` hands the masks to the one routine
# that decides irreducibility over a row's bit positions, which returns a row.
OPEN_MASK_READERS = {"space.py", "oracle.py", "basis.py"}


def open_mask_readers(sources: dict[str, str]) -> set[str]:
    """The names of the ``sources`` (name -> source) that read an attribute ``open_masks``."""
    return {name for name, source in sources.items()
            if attribute_reads(ast.parse(source))["open_masks"]}


def test_open_rows_become_masks_in_the_realized_types_and_the_oracle_alone():
    """Below the public API a family of opens is an open row, expanded in one place.

    `chains` and the query modules read families as rows and call
    `RealizedTypes.members` for masks; a module that indexes the masks
    itself, as `chains` did with its own row expansion, fails here.
    """
    chains_before = "def _members(rt, row):\n    return [rt.open_masks[k] for k in range(row)]\n"
    assert open_mask_readers({"chains.py": chains_before, "cli.py": "x = rt.members(0)\n"}) == {
        "chains.py"}
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert open_mask_readers(sources) == OPEN_MASK_READERS


def index_reads(source: str) -> set[str]:
    """The slots of ``x.index`` that ``source`` reads, ``"*"`` for ``x.index`` read whole.

    A call ``x.index(...)``, such as `list.index`, is a method and does not
    count; any other bare read, such as ``idx = space.index``, does.
    """
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "index":
            parent = parents[node]
            if isinstance(parent, ast.Attribute):
                out.add(parent.attr)
            elif not (isinstance(parent, ast.Call) and parent.func is node):
                out.add("*")
    return out


def test_the_index_gate_sees_slots_and_whole_reads():
    source = (
        "def f(space, cols):\n"
        "    idx = space.index\n"
        "    return space.index.report, cols.index('a'), idx\n"
    )
    assert index_reads(source) == {"*", "report"}


# The slots of `space.SpaceIndex` that a package module other than `space.py`,
# which owns the index, may read: `basis.irreducibles` owns its memo. Every
# other module asks the owner of a slot, as `validate_type_mapping`,
# `is_strictly_typed` or `realized_types`.
INDEX_READS = {"basis.py": {"irreducibles"}}


def test_each_index_slot_is_read_by_its_owner_alone():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    del sources["space.py"]
    assert {name: reads for name, source in sources.items()
            if (reads := index_reads(source))} == INDEX_READS


def module_reads(source: str, module: str, home: str) -> set[str]:
    """What ``source``, the module ``home``, imports from ``module`` or reads off it, dotted."""
    tree = ast.parse(source)
    out = {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.split(".")[-1] == module
    }
    out |= {
        f"{node.module or ''}.{alias.name}".lstrip(".")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if module in (node.module, alias.name)
    }
    return out | {t for t in references(source, home) if t.split(".")[0] == module}


def test_the_independence_gate_sees_closure_reads():
    def closure_reads(source):
        return module_reads(source, "closure", "oracle")

    assert closure_reads("from . import closure\nx = closure.min_chain_dense\n") == {
        "closure", "closure.min_chain_dense"}
    assert closure_reads("from .closure import _point_families\n") == {
        "closure._point_families"}
    assert closure_reads("import typedtopo.closure\n") == {"typedtopo.closure"}
    assert closure_reads("from . import chains\nx = chains.chain_base_pool\n") == set()


def test_the_oracle_reads_nothing_from_closure():
    """`oracle.py`, the cross-check of the density formula, shares no code with it.

    `closure.min_chain_dense` calls `oracle.exhaustive_min_dense` off the
    formula's hypothesis; a search that read back a closure helper would
    judge the formula by itself.
    """
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert module_reads(source, "closure", "oracle") == set()


def function_references(source: str, home: str, name: str) -> set[str]:
    """Dotted targets that the module-level function ``name`` of ``source`` reads.

    The function is read with the module's imports, so an alias such as
    ``connect_mod`` resolves to its module.
    """
    tree = ast.parse(source)
    kept = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
            or isinstance(node, ast.FunctionDef) and node.name == name]
    return references(ast.unparse(ast.Module(kept, [])), home)


def test_function_references_read_one_function():
    source = (
        "from . import connect as connect_mod\n"
        "def search(sp):\n    return connect_mod.is_chain_connected(sp)\n"
        "def replay(sp):\n    return connect_mod.find_connection(sp)\n"
    )
    assert function_references(source, "oracle", "replay") == {
        "connect.find_connection", "connect"}


def test_the_connectivity_search_reads_nothing_from_connect():
    """`oracle.exhaustive_connected` decides each subset by the definition.

    It is the slow twin of `connect.find_connection`; calling the separator
    scan of `connect` per subset would judge `connect` by itself. The
    pure-family replay calls it on purpose, and the gate sees that.
    """
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert "connect.is_chain_connected" in function_references(
        source, "oracle", "_pure_family_results")
    reads = function_references(source, "oracle", "exhaustive_connected")
    assert "chains.chain_pool" in reads
    assert sorted(t for t in reads if t.split(".")[0] == "connect") == []


def test_the_connection_query_reads_nothing_from_the_oracle():
    """`connect --x --y` decides by the refinement alone; the oracle stays its judge.

    `connect.py` imports nothing from `oracle`, and `cli._cmd_connect`,
    which once confirmed a negative by the exhaustive search within a point
    budget, reads no name of it; `cli._cmd_oracle` does, and the gate sees
    that.
    """
    source = (PACKAGE / "connect.py").read_text(encoding="utf-8")
    assert module_reads(source, "oracle", "connect") == set()
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "oracle.exhaustive_connected" in function_references(source, "cli", "_cmd_oracle")
    reads = function_references(source, "cli", "_cmd_connect")
    assert "connect.find_connection" in reads
    assert sorted(t for t in reads if t.split(".")[0] == "oracle") == []


# The package modules that read an attribute ``sigma``, the type mapping as
# terms: `space.py` owns it, and the oracle's bounds and pure families
# re-derive from it. Every query counts types off the realized types.
SIGMA_READERS = {"space.py", "oracle.py"}


def test_only_the_owner_and_the_cross_checks_read_the_type_mapping():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert {name for name, source in sources.items()
            if attribute_reads(ast.parse(source))["sigma"]} == SIGMA_READERS


def excused_from_coverage(source: str, home: str) -> list[str]:
    """``home.function`` of the innermost function around each ``pragma: no cover`` line."""
    spans = [(node.lineno, node.end_lineno, node.name) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef)]
    return [f"{home}.{max((s for s in spans if s[0] <= i <= s[1]), default=(0, 0, ''))[2]}"
            for i, line in enumerate(source.splitlines(), 1) if "pragma: no cover" in line]


def test_the_coverage_gate_finds_the_excusing_function():
    source = (
        "def outer(x):\n"
        "    def inner():\n"
        "        raise AssertionError  # pragma: no cover\n"
        "    if x:  # pragma: no cover\n"
        "        return inner\n"
    )
    assert excused_from_coverage(source, "oracle") == ["oracle.inner", "oracle.outer"]


def test_only_the_reference_assertions_are_excused_from_coverage():
    """An in-line check that no input can fail is deleted, not excused.

    Two assertions stay: the end of `oracle.exhaustive_min_dense`'s search,
    which the full point set always ends, and the reference comparison in
    `lattice.is_join_irreducible`.
    """
    excused = [name for p in sorted(PACKAGE.glob("*.py"))
               for name in excused_from_coverage(p.read_text(encoding="utf-8"), p.stem)]
    assert excused == ["lattice.is_join_irreducible", "oracle.exhaustive_min_dense"]
