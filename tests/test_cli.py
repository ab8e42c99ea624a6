"""The ``tts`` contract, run in process and through ``python -m typedtopo.cli``.

Exit codes, report shape, --stable, -o, and malformed space documents.
"""
import argparse
import ast
import contextlib
import copy
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from conftest import C_ANC5, C_RIGHT5, C_RIGHT6, random_generated_space
from typedtopo import basis, chains, cli, closure, connect, ingest, oracle, space as space_mod
from typedtopo.errors import TypedTopoError
from typedtopo.lattice import Context, Poset, format_term, parse_type_expr

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
STREET5 = str(FIXTURES / "street5.json")
STREET2X3 = str(FIXTURES / "street2x3.json")
GENEALOGY5 = str(FIXTURES / "genealogy5.json")
NO_LEAST_BASE3 = str(FIXTURES / "no_least_base3.json")
STREET5_DATA = str(FIXTURES / "datasets" / "street5.json")
GENEALOGY5_DATA = str(FIXTURES / "datasets" / "genealogy5.csv")
FEES_DATA = str(FIXTURES / "datasets" / "fees.csv")


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _result(capsys, *argv) -> dict:
    """Run a command expected to succeed and return its ``result`` block."""
    code, out, err = _run(capsys, *argv, "--stable")
    assert code == 0, err
    report = json.loads(out)
    assert set(report) == {"command", "space", "result"}
    assert report["command"] == argv[0]
    assert report["space"] == {"points": 5, "opens": 32, "strict": True}
    return report["result"]


@pytest.fixture
def nonstrict_path(tmp_path):
    poset = Poset({"g"})
    pts = ("x", "y")
    ctx = Context(poset, pts)
    g = parse_type_expr("g", ctx)
    sigma = {0: ctx.bottom(), 1: g, 3: g}
    sp = space_mod.TypedSpace(ctx, frozenset(sigma), sigma, ())
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(space_mod.space_to_json(sp)))
    return str(path)


def test_build_prints_the_space(capsys, street5):
    code, out, _ = _run(capsys, "build", "--kind", "community", "--dataset", STREET5_DATA)
    assert code == 0
    assert json.loads(out) == space_mod.space_to_json(street5)


def test_build_writes_the_space_to_output(capsys, tmp_path, genealogy5):
    target = tmp_path / "g5.json"
    code, out, _ = _run(
        capsys, "build", "--kind", "genealogy", "--dataset", GENEALOGY5_DATA,
        "-o", str(target), "--stable",
    )
    assert code == 0
    assert json.loads(out) == {
        "command": "build",
        "space": {"points": 5, "opens": 32, "strict": True},
        "result": {"written": str(target)},
    }
    assert json.loads(target.read_text()) == space_mod.space_to_json(genealogy5)


def test_build_strictified_table_with_an_unmatched_row_fails_as_usage(capsys, tmp_path):
    rows, preds = tmp_path / "fees.csv", tmp_path / "preds.json"
    rows.write_text("id,fee\n1,150\n2,450\n3,1500\n")
    preds.write_text(json.dumps([
        {"name": "cheap", "expr": "fee<200", "implies": ["affordable"]},
        {"name": "affordable", "expr": "fee<1000"},
    ]))
    argv = ["build", "--kind", "table", "--dataset", str(rows), "--predicates", str(preds)]
    code, _, err = _run(capsys, *argv, "--strictify", "--stable")
    assert code == 2
    assert "r3" in err
    assert _run(capsys, *argv, "--stable")[0] == 0


def test_build_past_the_opens_budget_exits_2(capsys, tmp_path):
    residents = [f"r{i}" for i in range(1, 17)]
    data = tmp_path / "street16.json"
    data.write_text(json.dumps({"streets": [{"name": "main", "residents": residents}]}))
    code, out, err = _run(capsys, "build", "--kind", "community", "--dataset", str(data))
    assert code == 2
    assert out == ""
    assert err.startswith("tts build: ") and f"more than {space_mod.MAX_OPENS} opens" in err


def test_validate(capsys):
    result = _result(capsys, "validate", STREET5, "--strict")
    assert result == {"valid": True, "failures": [], "strict": True, "strict_witness": None}


def test_validate_strict_refuses_nonstrict_space(capsys, nonstrict_path):
    code, out, _ = _run(capsys, "validate", nonstrict_path, "--stable")
    assert code == 0
    assert json.loads(out)["result"]["strict_witness"] == [["x"], ["x", "y"]]
    code, out, _ = _run(capsys, "validate", nonstrict_path, "--strict", "--stable")
    assert code == 1
    assert json.loads(out)["space"]["strict"] is False


def test_validate_validates_once(capsys, monkeypatch):
    calls = []
    validate = space_mod.validate_type_mapping
    monkeypatch.setattr(
        space_mod, "validate_type_mapping", lambda sp: calls.append(sp) or validate(sp)
    )
    assert _result(capsys, "validate", STREET5)["valid"] is True
    assert len(calls) == 1


def test_validate_rejects_a_document_that_lacks_an_open(capsys, street5, tmp_path):
    doc = space_mod.space_to_json(street5)
    doc["opens"] = [o for o in doc["opens"] if o["set"] != ["r3", "r4", "r5"]]
    path = tmp_path / "holed.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "validate", str(path), "--stable")
    assert (code, out) == (1, "")
    assert err == "tts validate: space document fails validation: union-closure\n"


def test_basis(capsys, genealogy5):
    result = _result(capsys, "basis", GENEALOGY5, "--p", "anc & @W", "--x", "C")
    p = parse_type_expr("anc & @W", genealogy5.ctx)
    fam = basis.opens_above(genealogy5, p, at="C")
    irr = basis.irreducibles_above(genealogy5, p, at="C")
    assert result["anchor"] == "anc & @W"
    assert result["family"] == sorted(list(genealogy5.ids_of(m)) for m in fam)
    assert result["irreducible"] == sorted(list(genealogy5.ids_of(m)) for m in irr)
    assert result["irreducible"]


def test_nbhd(capsys, street5, c_right5):
    result = _result(capsys, "nbhd", STREET5, "--chain", C_RIGHT5, "--x", "r3")
    fam = chains.chain_neighborhoods(street5, "r3", c_right5)
    base = chains.chain_base(street5, "r3", c_right5)
    assert result["neighborhoods"] == sorted(list(street5.ids_of(m)) for m in fam)
    assert result["base"] == sorted(list(street5.ids_of(m)) for m in base)


def test_closure(capsys, street5, c_right5):
    result = _result(capsys, "closure", STREET5, "--chain", C_RIGHT5, "--set", "r2")
    rep = closure.chain_closure(street5, {"r2"}, c_right5)
    assert result["closure"] == list(rep.ids())
    assert set(result["witnesses"]) == set(rep.ids())


def test_dense(capsys):
    result = _result(capsys, "dense", STREET5, "--chain", C_RIGHT5)
    assert result["density"] == 2
    assert result["witness"] == ["r1", "r5"]
    assert result["unsupported"] == ["r1"]


def test_connect(capsys, street5, c_right5):
    result = _result(capsys, "connect", STREET5, "--chain", C_RIGHT5, "--x", "r2", "--y", "r4")
    assert result["certificate"] is not None
    assert result["oracle"] is True and result["definitive"] is True
    result = _result(capsys, "connect", STREET5, "--chain", C_RIGHT5, "--set", "r2,r4")
    ok, witness = connect.is_chain_connected(street5, {"r2", "r4"}, c_right5)
    assert result["connected"] is ok
    assert result["separator"] == (
        [list(witness.left), list(witness.right)] if witness else None
    )


def test_stats(capsys):
    result = _result(capsys, "stats", STREET5, "--kind", "sizes", "--p", "right")
    assert result["kind"] == "sizes"
    assert len(result["table"]["subjects"]) >= 2


def test_stats_csv(capsys):
    code, out, _ = _run(capsys, "stats", STREET5, "--kind", "sizes", "--p", "right",
                        "--format", "csv")
    assert code == 0
    assert out.startswith("subject,value,z\n")


def test_stats_csv_goes_to_the_output_file(capsys, tmp_path):
    argv = ("stats", STREET5, "--kind", "sizes", "--p", "right", "--format", "csv")
    target = tmp_path / "sizes.csv"
    assert _run(capsys, *argv, "-o", str(target)) == (0, "", "")
    _, direct, _ = _run(capsys, *argv)
    assert direct.startswith("subject,value,z\n")
    assert target.read_text() == direct


def test_oracle(capsys, street5, c_right5):
    result = _result(capsys, "oracle", STREET5, "--check")
    assert result["ok"] is True
    assert [c["name"] for c in result["checks"]] == [
        r.name for r in oracle.check_space(street5).results
    ]
    result = _result(capsys, "oracle", STREET5, "--dense", "--chain", C_RIGHT5)
    assert (result["density"], result["witnesses"]) == (2, [["r1", "r5"]])
    result = _result(capsys, "oracle", STREET5, "--connected", "--chain", C_RIGHT5,
                     "--x", "r2", "--y", "r4")
    assert result["connected"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("nbhd", STREET5, "--x", "r3"),  # missing --chain
        ("nbhd", STREET5, "--chain", "right &", "--x", "r3"),  # syntax error
        ("basis", GENEALOGY5),  # missing --p
        ("stats", STREET5, "--kind", "sizes", "--p", "nosuch"),  # unknown generator
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"tts {argv[0]}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("nbhd", STREET5, "--chain", C_RIGHT5, "--x", "zz"),  # unknown point
        ("closure", STREET5, "--chain", C_RIGHT5, "--set", "r2,zz"),  # unknown point
        ("stats", STREET5, "--kind", "affinity"),  # NoVarianceError
    ],
)
def test_query_errors_exit_3(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"tts {argv[0]}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", GENEALOGY5),
        ("basis", GENEALOGY5, "--p", "anc"),
        ("nbhd", GENEALOGY5, "--chain", C_ANC5, "--x", "H"),
        ("dense", GENEALOGY5, "--chain", C_ANC5),
        ("stats", GENEALOGY5, "--kind", "sizes", "--p", "anc"),
    ],
)
def test_stable_output_is_byte_identical(capsys, argv):
    first = _run(capsys, *argv, "--stable")
    second = _run(capsys, *argv, "--stable")
    assert first[0] == 0
    assert first == second
    assert "timing" not in json.loads(first[1])


def test_timing_is_reported_without_stable(capsys):
    code, out, _ = _run(capsys, "validate", STREET5)
    assert code == 0
    assert json.loads(out)["timing"]["seconds"] >= 0


def test_output_file_receives_the_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "dense", STREET5, "--chain", C_RIGHT5, "--stable",
                        "-o", str(target))
    assert code == 0
    assert out == ""
    _, direct, _ = _run(capsys, "dense", STREET5, "--chain", C_RIGHT5, "--stable")
    assert target.read_text() == direct


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", STREET5, "--dense", "--chain", C_RIGHT5, "--budget-points", "0"),
        ("connect", STREET5, "--chain", C_RIGHT5, "--x", "r2", "--y", "r4",
         "--budget-points", "-1"),
    ],
)
def test_non_positive_budget_fails_loudly(capsys, argv):
    code, out, err = _run(capsys, *argv, "--stable")
    assert code == 3
    assert out == ""
    assert "budgets must be positive" in err


def test_connect_without_budget_applies_the_connectivity_default(capsys, tmp_path):
    """11 points: over the connectivity search's default budget, not the dense one's."""
    people = [f"p{i}" for i in range(11)]
    heap = tuple((people[(k - 1) // 2], people[k]) for k in range(1, 11))
    path = tmp_path / "tree11.json"
    path.write_text(json.dumps(space_mod.space_to_json(
        ingest.build_genealogy(ingest.GenealogyDataset(heap)))))
    argv = ("connect", str(path), "--chain", "anc & @" + " & @".join(people) + " ; anc",
            "--x", "p3", "--y", "p4", "--stable")
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    result = json.loads(out)["result"]
    assert (result["oracle"], result["definitive"]) == ("skipped", False)
    assert result["certificate"] is not None
    code, out, err = _run(capsys, *argv, "--budget-points", "11")
    assert code == 0, err
    assert json.loads(out)["result"]["definitive"] is True


# ---------------------------------------------------------------------------
# each command accepts only the options its handler reads
# ---------------------------------------------------------------------------

# `run` reads these for every command
READ_BY_RUN = {"command", "space", "stable", "output"}


def handler_functions(source: str, handler: str) -> list:
    """The AST of function ``handler`` of ``source``, and of its helpers.

    A module-level function of ``source`` that it passes ``args`` to counts
    as part of it, and so on down.
    """
    functions = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }
    found, todo = {}, [handler]
    while todo:
        name = todo.pop()
        found[name] = functions[name]
        for node in ast.walk(functions[name]):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in functions.keys() - found.keys()
                and any(getattr(a, "id", None) == "args" for a in node.args)
            ):
                todo.append(node.func.id)
    return list(found.values())


def _args_option(node) -> Optional[str]:
    """The dest of ``node`` if it is ``args.<dest>``."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
        return node.attr
    return None


def options_read(source: str, handler: str) -> set[str]:
    """The ``args.<dest>`` names that function ``handler`` of ``source`` reads."""
    return {
        dest for func in handler_functions(source, handler) for node in ast.walk(func)
        if (dest := _args_option(node))
    }


def truthiness_tests(source: str, handler: str, valued: set[str]) -> list[tuple[str, str]]:
    """``(function, dest)`` for each bare truthiness test of a ``valued`` option.

    Such a test is ``args.<dest>`` itself as the test of an ``if``, a
    conditional expression or a ``while``, as an ``and`` or ``or`` operand,
    or as a ``not`` operand, in ``handler`` or a helper it passes ``args``
    to. One place is allowed: under a ``not`` in the test of an ``if`` whose
    body only raises, which refuses an empty value as a missing one.
    """
    found = []
    for func in handler_functions(source, handler):
        allowed = {
            id(inner)
            for node in ast.walk(func)
            if isinstance(node, ast.If) and all(isinstance(s, ast.Raise) for s in node.body)
            for neg in ast.walk(node.test)
            if isinstance(neg, ast.UnaryOp) and isinstance(neg.op, ast.Not)
            for inner in ast.walk(neg.operand)
        }
        for node in ast.walk(func):
            if isinstance(node, (ast.If, ast.IfExp, ast.While)):
                tested = [node.test]
            elif isinstance(node, ast.BoolOp):
                tested = node.values
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                tested = [node.operand]
            else:
                continue
            found += [(func.name, _args_option(t)) for t in tested
                      if _args_option(t) in valued and id(t) not in allowed]
    return found


def test_the_option_reader_follows_helpers_given_args():
    source = (
        "def _budget(args):\n    return args.budget_points\n"
        "def _other(x, args):\n    return x.ignored, args.other\n"
        "def _cmd(args, sp):\n    return _budget(args), args.chain, _other(sp, None)\n"
    )
    assert options_read(source, "_cmd") == {"budget_points", "chain"}


def accepted_options(keep=lambda action: True) -> dict[str, set[str]]:
    """Command name -> the dests of the options its subparser accepts and ``keep`` keeps."""
    (commands,) = [
        a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {a.dest for a in sub._actions if a.dest != "help" and keep(a)}
        for name, sub in commands.choices.items()
    }


def test_the_presence_gate_flags_bare_truthiness():
    source = (
        "def _chain(args):\n    if not args.chain:\n        raise E\n"
        "def _cmd(args, sp):\n"
        "    _chain(args)\n"
        "    if args.set:\n        pass\n"
        "    ok = args.x or args.y\n"
        "    flag = not args.p\n"
        "    out = 1 if args.output else 0\n"
        "    if not (args.x and args.y):\n        raise E\n"
        "    if not args.chain:\n        out = 2\n"
        "    if args.set is not None and args.strict:\n        pass\n"
        "    return ok, flag, out\n"
    )
    valued = {"chain", "set", "x", "y", "p", "output"}
    assert sorted(truthiness_tests(source, "_cmd", valued)) == [
        ("_cmd", "chain"), ("_cmd", "output"), ("_cmd", "p"), ("_cmd", "set"),
        ("_cmd", "x"), ("_cmd", "y"),
    ]


def test_no_handler_tests_a_valued_option_by_truthiness():
    """A handler tests whether a valued option was given with ``is None``.

    An empty value is false, so a bare truthiness test takes ``--x ""`` for
    an absent option, and the value slips past the refusal of a path that
    ignores it. Only ``if not args.X: raise`` stays, which refuses an empty
    value as a missing one.
    """
    source = Path(cli.__file__).read_text(encoding="utf-8")
    # a valued option stores its value and defaults to None
    valued = accepted_options(
        lambda action: isinstance(action, argparse._StoreAction) and action.default is None
    )
    found = {
        name: truthiness_tests(source, handler.__name__, valued[name])
        for name, (handler, *_) in cli._COMMANDS.items()
    }
    assert {name: tests for name, tests in found.items() if tests} == {}


def test_every_option_a_command_accepts_is_read():
    accepted = accepted_options()
    assert list(accepted) == list(cli._COMMANDS)
    source = Path(cli.__file__).read_text(encoding="utf-8")
    unread = {
        name: sorted(accepted[name] - READ_BY_RUN - options_read(source, handler.__name__))
        for name, (handler, *_) in cli._COMMANDS.items()
    }
    assert {name: dests for name, dests in unread.items() if dests} == {}
    assert [n for n, dests in accepted.items() if "budget_points" in dests] == [
        "connect", "oracle"
    ]


@pytest.mark.parametrize("argv", [
    ("validate", STREET5, "--budget-points", "3"),
    ("dense", STREET5, "--chain", C_RIGHT5, "--budget-points", "1"),
])
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as raised:
        cli.run(list(argv))
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --budget-points" in captured.err


IGNORED_ON_PATH = {  # case -> (argv, message)
    "build-genealogy-strictify": (
        ("build", "--kind", "genealogy", "--dataset", GENEALOGY5_DATA, "--strictify"),
        "--predicates and --strictify apply only to --kind table",
    ),
    "build-genealogy-predicates": (
        ("build", "--kind", "genealogy", "--dataset", GENEALOGY5_DATA,
         "--predicates", "nosuch.json"),
        "--predicates and --strictify apply only to --kind table",
    ),
    "stats-sizes-two-witness": (
        ("stats", STREET5, "--kind", "sizes", "--p", "right", "--two-witness"),
        "--two-witness applies only to --kind affinity",
    ),
    "build-genealogy-empty-predicates": (
        ("build", "--kind", "genealogy", "--dataset", GENEALOGY5_DATA, "--predicates", ""),
        "--predicates and --strictify apply only to --kind table",
    ),
    "stats-affinity-p": (
        ("stats", STREET5, "--kind", "affinity", "--p", "right"),
        "--p does not apply to --kind affinity",
    ),
    "stats-affinity-empty-p": (
        ("stats", STREET5, "--kind", "affinity", "--p", ""),
        "--p does not apply to --kind affinity",
    ),
    "connect-set-x": (
        ("connect", STREET5, "--chain", C_RIGHT5, "--set", "r2,r4", "--x", "r1"),
        "--x and --y do not apply with --set",
    ),
    "connect-set-y": (
        ("connect", STREET5, "--chain", C_RIGHT5, "--set", "r2,r4", "--y", "zz"),
        "--x and --y do not apply with --set",
    ),
    "connect-set-empty-x": (
        ("connect", STREET5, "--chain", C_RIGHT5, "--set", "r2,r4", "--x", ""),
        "--x and --y do not apply with --set",
    ),
    "connect-set-empty-y": (
        ("connect", STREET5, "--chain", C_RIGHT5, "--set", "r2,r4", "--y", ""),
        "--x and --y do not apply with --set",
    ),
    "connect-empty-set-x-y": (
        ("connect", STREET5, "--chain", C_RIGHT5, "--set", "", "--x", "r1", "--y", "r5"),
        "--x and --y do not apply with --set",
    ),
    "connect-set-budget-points": (
        ("connect", STREET5, "--chain", C_RIGHT5, "--set", "r2,r4", "--budget-points", "5"),
        "--budget-points does not apply with --set",
    ),
    **{
        f"oracle-check-{extra[0].lstrip('-')}": (
            ("oracle", STREET5, "--check", *extra),
            "--chain, --x, --y, --budget-points, --dense and --connected do not apply with --check",
        )
        for extra in (
            ("--chain", C_RIGHT5), ("--x", "r2"), ("--y", "r4"), ("--budget-points", "5"),
            ("--dense",), ("--connected",),
        )
    },
    **{
        f"oracle-dense-{extra[0].lstrip('-')}": (
            ("oracle", STREET5, "--dense", "--chain", C_RIGHT5, *extra),
            "--x, --y and --connected do not apply with --dense",
        )
        for extra in (("--x", "r2"), ("--y", "r4"), ("--connected",))
    },
}


@pytest.mark.parametrize("case", list(IGNORED_ON_PATH))
def test_an_option_its_path_ignores_is_a_usage_error(capsys, case):
    """An option the handler reads on another path of the command exits 2."""
    argv, message = IGNORED_ON_PATH[case]
    assert _run(capsys, *argv, "--stable") == (2, "", f"tts {argv[0]}: {message}\n")


@pytest.mark.parametrize("argv", [
    ("connect", STREET5, "--chain", C_RIGHT5, "--x", "r3", "--y", "r3"),
    ("oracle", STREET5, "--connected", "--chain", C_RIGHT5, "--x", "r3", "--y", "r3"),
])
def test_both_connection_routes_refuse_one_point_twice(capsys, argv):
    message = f"tts {argv[0]}: a connection needs two distinct points\n"
    assert _run(capsys, *argv, "--stable") == (2, "", message)


# ---------------------------------------------------------------------------
# unreadable files and ill-shaped datasets fail through the contract
# ---------------------------------------------------------------------------


READ_FAILURES = {  # case -> (argv, a fragment of the message)
    "space-missing": (("validate", "{missing}"), "No such file or directory"),
    "space-not-json": (("validate", "{text}"), "not JSON: Expecting value"),
    "space-not-utf8": (("dense", "{binary}", "--chain", "right"), "can't decode byte 0xff"),
    "dataset-missing": (
        ("build", "--kind", "genealogy", "--dataset", "{missing}"), "No such file or directory"
    ),
    "dataset-not-json": (
        ("build", "--kind", "community", "--dataset", "{text}"), "not JSON: Expecting value"
    ),
    "predicates-missing": (
        ("build", "--kind", "table", "--dataset", FEES_DATA, "--predicates", "{missing}"),
        "No such file or directory",
    ),
    "predicates-not-json": (
        ("build", "--kind", "table", "--dataset", FEES_DATA, "--predicates", "{text}"),
        "not JSON: Expecting value",
    ),
    # an empty -o names a file too, not stdout
    "report-output-empty": (("validate", STREET5, "-o", ""), "No such file or directory"),
    "space-output-empty": (
        ("build", "--kind", "genealogy", "--dataset", GENEALOGY5_DATA, "-o", ""),
        "No such file or directory",
    ),
}


@pytest.mark.parametrize("case", list(READ_FAILURES))
def test_an_unreadable_file_exits_2_with_one_line(capsys, tmp_path, case):
    (tmp_path / "notes.txt").write_text("advisor,student\n")
    (tmp_path / "latin1.json").write_bytes(b"\xff{}")
    paths = {
        "missing": str(tmp_path / "missing.json"),
        "text": str(tmp_path / "notes.txt"),
        "binary": str(tmp_path / "latin1.json"),
    }
    template, fragment = READ_FAILURES[case]
    argv = [arg.format(**paths) for arg in template]
    code, out, err = _run(capsys, *argv, "--stable")
    assert (code, out) == (2, "")
    assert err.startswith(f"tts {argv[0]}: ") and err.count("\n") == 1
    assert fragment in err


SHAPE_FAILURES = {  # case -> (kind, dataset, predicates or None, message)
    "street-without-name": (
        "community", '{"streets": [{"residents": ["a"]}]}', None,
        "community dataset missing field 'name'",
    ),
    "list-community": (
        "community", "[1, 2]", None, "community dataset: expected an object, got list",
    ),
    "predicate-without-name": (
        "table", "id,fee\n1,150\n", '[{"expr": "fee<200"}]', "predicate missing field 'name'",
    ),
    "short-row": (
        "table", "id,fee\n1,150\n2\n", '[{"name": "cheap", "expr": "fee<200"}]',
        "table row r2 has 1 cells, not 2",
    ),
}


@pytest.mark.parametrize("case", list(SHAPE_FAILURES))
def test_an_ill_shaped_dataset_exits_2_naming_the_field(capsys, tmp_path, case):
    kind, dataset, predicates, message = SHAPE_FAILURES[case]
    argv = ["build", "--kind", kind, "--dataset", str(tmp_path / "data")]
    (tmp_path / "data").write_text(dataset)
    if predicates is not None:
        (tmp_path / "predicates.json").write_text(predicates)
        argv += ["--predicates", str(tmp_path / "predicates.json")]
    assert _run(capsys, *argv, "--stable") == (2, "", f"tts build: {message}\n")


@pytest.mark.parametrize("key", ["cluases", "cubes"])
def test_a_misspelt_type_key_exits_2(capsys, tmp_path, key):
    """A type whose key is not ``clauses`` is a bad encoding, not Bottom."""
    doc = json.loads(Path(STREET5).read_text())
    doc["opens"][-1]["type"] = {key: doc["opens"][-1]["type"]["clauses"]}
    (tmp_path / "space.json").write_text(json.dumps(doc))
    code, out, err = _run(capsys, "validate", str(tmp_path / "space.json"), "--stable")
    assert (code, out) == (2, "")
    assert err.startswith(f"tts validate: bad term encoding: {{'{key}': ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# one parser per process: reuse must carry nothing from one run to the next
# ---------------------------------------------------------------------------


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    """Two runs build the parser once; later runs reuse the same object."""
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(
        argparse.ArgumentParser, "add_subparsers",
        lambda self, **kw: builds.append(self) or add_subparsers(self, **kw),
    )
    cli._parser.cache_clear()
    try:
        assert _run(capsys, "validate", STREET5, "--stable")[0] == 0
        assert _run(capsys, "validate", GENEALOGY5, "--stable")[0] == 0
        assert len(builds) == 1
        assert cli._parser() is cli._parser()
    finally:
        cli._parser.cache_clear()


def test_reused_parser_forgets_strict(capsys, nonstrict_path):
    assert _run(capsys, "validate", nonstrict_path, "--strict", "--stable")[0] == 1
    code, out, _ = _run(capsys, "validate", nonstrict_path, "--stable")
    assert code == 0
    assert json.loads(out)["space"]["strict"] is False


def test_reused_parser_forgets_the_format(capsys):
    argv = ("stats", STREET5, "--kind", "sizes", "--p", "right")
    code, out, _ = _run(capsys, *argv, "--format", "csv")
    assert code == 0 and out.startswith("subject,value,z\n")
    code, out, _ = _run(capsys, *argv, "--stable")
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "sizes"


def test_reused_parser_recovers_from_usage_errors(capsys):
    with pytest.raises(SystemExit) as raised:
        cli.run(["nbhd", STREET5, "--no-such-flag"])
    assert raised.value.code == 2
    assert _run(capsys, "basis", GENEALOGY5)[0] == 2  # missing --p
    code, out, err = _run(capsys, "basis", GENEALOGY5, "--p", "anc", "--stable")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["anchor"] == "anc"


# ---------------------------------------------------------------------------
# malformed and ill-generated space documents fail through the contract
# ---------------------------------------------------------------------------


MALFORMED = {  # case -> (exit code, message)
    "open-without-type": (1, "space document missing field 'type'"),
    "open-without-set": (1, "space document missing field 'set'"),
    "generator-without-name": (1, "space document missing field 'name'"),
    "string-literal": (2, "bad literal encoding: 'gen'"),
    "one-element-order-pair": (1, "space document: poset order entry ['right'] is not a pair"),
    "list-document": (1, "space document: expected an object, got list"),
    "number-points": (1, "space document: field 'points' is not a list: 5"),
    "string-set": (1, "space document: field 'set' is not a list: 'r1'"),
}


def _malformed_path(street5, tmp_path, case) -> str:
    doc = space_mod.space_to_json(street5)
    if case == "open-without-type":
        del doc["opens"][1]["type"]
    elif case == "open-without-set":
        del doc["opens"][1]["set"]
    elif case == "generator-without-name":
        del doc["generators"][0]["name"]
    elif case == "string-literal":
        doc["opens"][1]["type"]["clauses"][0].insert(0, "gen")
    elif case == "one-element-order-pair":
        doc["poset"]["leq"] = [["right"]]
    elif case == "number-points":
        doc["points"] = 5
    elif case == "string-set":
        doc["opens"][1]["set"] = "r1"
    else:
        doc = [doc]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_document_fails_through_the_contract(capsys, street5, tmp_path, case):
    """One ``tts validate:`` line and the contract's exit code; no traceback."""
    code, message = MALFORMED[case]
    got = _run(capsys, "validate", _malformed_path(street5, tmp_path, case))
    assert got == (code, "", f"tts validate: {message}\n")


def _json_paths(node, at=()):
    """The path of every value inside a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _json_paths(child, at + (key,))


def _strings(node) -> set:
    """The field names and string values inside a JSON document."""
    if isinstance(node, str):
        return {node}
    if isinstance(node, dict):
        return set(node).union(*map(_strings, node.values()))
    if isinstance(node, list):
        return set().union(*map(_strings, node))
    return set()


FIXTURE_DOCS = [json.loads(Path(p).read_text()) for p in (GENEALOGY5, STREET5, STREET2X3)]
OTHER_JSON = [None, True, 5, 1.5, "r1", "right", [], ["r1"], {}, {"gen": "right"}]
# the fixtures' field names, points, generators and literal kinds, and one unknown name
NAMES = sorted(set().union(*map(_strings, FIXTURE_DOCS)) | {"zz"})


@st.composite
def _mutants(draw):
    """A fixture document with one to three fields, points or literals mutated.

    Each mutation drops a value, gives it another JSON type, duplicates it
    (a list item in place, a field over a sibling field) or renames it (a
    string value, or else its field).
    """
    doc = copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["drop", "retype", "duplicate", "rename"]))
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = draw(st.sampled_from(OTHER_JSON))
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == "duplicate":
            parent[draw(st.sampled_from(sorted(parent)))] = copy.deepcopy(parent[key])
        elif isinstance(parent[key], str) or isinstance(parent, list):
            parent[key] = draw(st.sampled_from(NAMES))
        else:
            parent[draw(st.sampled_from(NAMES))] = parent.pop(key)
    return doc


@given(_mutants())
@settings(max_examples=150, deadline=None)
def test_property_mutated_documents_fail_through_the_contract(tmp_path_factory, doc):
    """Any mutant loads or fails with a contract exit code and one stderr line."""
    path = tmp_path_factory.mktemp("mutant") / "space.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["validate", str(path), "--stable"])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert len(lines) <= 1 and all(line.startswith("tts validate: ") for line in lines)
    assert (code == 0) == (not lines)


@pytest.mark.parametrize("fault, code", [("duplicate", 2), ("empty", 2), ("unknown-point", 3)])
def test_loading_checks_generators_as_building_does(capsys, street5, tmp_path, fault, code):
    gens = list(street5.generators)
    first = gens[0]
    if fault == "duplicate":
        gens.append(first)
    else:
        members = frozenset() if fault == "empty" else first.members | {"zz"}
        gens[0] = dataclasses.replace(first, members=members)
    with pytest.raises(TypedTopoError) as built:
        space_mod.generate_topology(street5.ctx, gens)
    doc = space_mod.space_to_json(dataclasses.replace(street5, generators=tuple(gens)))
    path = tmp_path / "generators.json"
    path.write_text(json.dumps(doc))
    assert _run(capsys, "validate", str(path)) == (code, "", f"tts validate: {built.value}\n")


# ---------------------------------------------------------------------------
# one context per loaded space
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("nbhd", "--x", "a1"),
    ("dense",),
    ("connect", "--x", "a1", "--y", "b3"),
])
def test_a_query_builds_one_context_and_compares_none(capsys, monkeypatch, argv):
    made, compared = [], []
    init, eq = Context.__init__, Context.__eq__
    monkeypatch.setattr(Context, "__init__", lambda self, *a: made.append(a) or init(self, *a))
    monkeypatch.setattr(Context, "__eq__", lambda a, b: compared.append(b) or eq(a, b))
    code, _, err = _run(capsys, argv[0], STREET2X3, "--chain", C_RIGHT6, *argv[1:], "--stable")
    assert code == 0, err
    assert (len(made), len(compared)) == (1, 0)


# ---------------------------------------------------------------------------
# the shell entry point
# ---------------------------------------------------------------------------


def _shell(*argv, hash_seed=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "typedtopo.cli", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, check=False,
    )


@pytest.mark.parametrize("argv", [
    ("validate", STREET5, "--strict", "--stable"),
    ("nbhd", STREET5, "--chain", C_RIGHT5, "--x", "r3", "--stable"),
])
def test_shell_entry_point_matches_run(capsys, argv):
    shell = _shell(*argv)
    code, out, err = _run(capsys, *argv)
    assert (shell.returncode, shell.stdout, shell.stderr) == (code, out, err)


def test_shell_entry_point_reports_a_malformed_document(street5, tmp_path):
    shell = _shell("validate", _malformed_path(street5, tmp_path, "open-without-type"))
    assert (shell.returncode, shell.stdout) == (1, "")
    assert shell.stderr == "tts validate: space document missing field 'type'\n"


def test_stable_output_does_not_depend_on_the_hash_seed(street5, tmp_path):
    """Of several unknown points or order cycles, the first in sorted order is reported."""
    doc = space_mod.space_to_json(street5)
    doc["generators"][0]["set"] += ["zz", "qq", "yy", "xx"]
    bad_generator = tmp_path / "generator.json"
    bad_generator.write_text(json.dumps(doc))
    doc = space_mod.space_to_json(street5)
    doc["poset"]["leq"] = [["right", "left"], ["left", "right"]]
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps(doc))
    cases = [
        (("connect", STREET5, "--chain", "right ; right", "--set", "zz,qq,yy,xx", "--stable"),
         3, "tts connect: unknown point 'qq'\n"),
        (("validate", str(bad_generator), "--stable"),
         3, "tts validate: generator 'street_mainst' uses unknown point 'qq'\n"),
        (("validate", str(cycle), "--stable"),
         2, "tts validate: order is not antisymmetric: 'left' <= 'right' <= 'left'\n"),
        (("connect", STREET5, "--chain", C_RIGHT5, "--set", "r4,r2,r5", "--stable"), 0, ""),
    ]
    for argv, code, err in cases:
        runs = [_shell(*argv, hash_seed=seed) for seed in ("1", "2")]
        assert [(r.returncode, r.stderr) for r in runs] == [(code, err)] * 2
        assert runs[0].stdout == runs[1].stdout


def test_oracle_check_on_too_many_chains_exits_3_with_one_line(street10, tmp_path):
    """The theorem replay's chain budget is a query skip: exit 3, no traceback."""
    doc = tmp_path / "street10.json"
    doc.write_text(json.dumps(space_mod.space_to_json(street10)))
    shell = _shell("oracle", str(doc), "--check", "--stable")
    assert (shell.returncode, shell.stdout) == (3, "")
    assert shell.stderr.startswith("tts oracle: at least ")
    assert shell.stderr.endswith(f"budget of {oracle.MAX_CHAINS}\n")
    assert shell.stderr.count("\n") == 1


def test_a_space_without_least_base_members_keeps_its_exit_codes(capsys):
    """The valid strict 3-point space whose base families need not have a least member.

    The fixture is `space_to_json` of ``random_generated_space(Random(70), 7)``.
    Validation accepts it, but the closure and density formulas assume a
    least base member at every point, and their in-line cross-checks exit 1
    on some of its 22 two-level realized chains (a level repeated counts),
    as the theorem replay fails three checks. This pins that behaviour
    until those queries answer such spaces or refuse them by name.
    """
    sp = random_generated_space(random.Random(70), 7)
    assert (FIXTURES / "no_least_base3.json").read_text(encoding="utf-8") == json.dumps(
        space_mod.space_to_json(sp), indent=2, sort_keys=True) + "\n"
    assert (len(sp.points), len(sp.opens)) == (3, 8)
    assert _run(capsys, "validate", NO_LEAST_BASE3, "--strict", "--stable")[0] == 0
    rt = space_mod.realized_types(sp)
    texts = [f"{format_term(lo)} ; {format_term(hi)}"
             for i, lo in enumerate(rt.terms) for j, hi in enumerate(rt.terms) if rt.up[i] >> j & 1]
    assert len(texts) == 22
    failed = {}
    for argv in (("closure", "--set", "x0,x1"), ("dense",)):
        runs = [_run(capsys, argv[0], NO_LEAST_BASE3, "--chain", t, *argv[1:]) for t in texts]
        assert {code for code, _, _ in runs} == {0, 1}
        failed[argv[0]] = sorted(err for code, _, err in runs if code == 1)
    assert failed["closure"] == [
        "tts closure: definitional closure disagrees with the common-core test\n"] * 4
    assert failed["dense"] == [
        "tts dense: density formula gives 3 but exhaustive search gives 2\n"] * 2
    code, out, _ = _run(capsys, "oracle", NO_LEAST_BASE3, "--check", "--stable")
    checks = json.loads(out)["result"]["checks"]
    assert code == 1
    assert [c["name"] for c in checks if not c["passed"]] == [
        "closure-core", "base-connectivity", "anchored-connectivity"]
