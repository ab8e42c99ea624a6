"""Golden ``--stable`` outputs: every command below prints the same bytes.

``golden_stable.json`` holds the stdout, stderr and exit code of each command
on the shipped fixtures and datasets. The test replays them in process and
compares byte for byte, so a refactor that changes any ``--stable`` output
fails here; ``tts build`` of each shipped dataset must print the committed
fixture, a golden written apart from the serializer it checks. When
an output changes on purpose, regenerate the file from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from pathlib import Path

import pytest

from conftest import C_ANC5, C_RIGHT5, C_RIGHT6
from typedtopo import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_stable.json"

G5, S5, S23 = "fixtures/genealogy5.json", "fixtures/street5.json", "fixtures/street2x3.json"

COMMANDS = [
    ["validate", G5, "--strict"],
    ["validate", S23, "--strict"],
    ["basis", G5, "--p", C_ANC5.split(" ; ")[0]],
    ["basis", G5, "--p", C_ANC5.split(" ; ")[0], "--x", "H"],
    ["basis", S5, "--p", C_RIGHT5.split(" ; ")[0], "--x", "r3"],
    ["basis", S23, "--p", "right & @a2"],
    ["nbhd", G5, "--chain", C_ANC5, "--x", "H"],
    ["nbhd", S5, "--chain", C_RIGHT5, "--x", "r3"],
    ["nbhd", S23, "--chain", C_RIGHT6, "--x", "b2"],
    ["closure", S5, "--chain", C_RIGHT5, "--set", "r3"],
    ["closure", S23, "--chain", C_RIGHT6, "--set", "a2,b1"],
    ["closure", S5, "--chain", C_RIGHT5, "--set", "r2,zz"],
    ["dense", G5, "--chain", C_ANC5],
    ["dense", S23, "--chain", C_RIGHT6],
    ["connect", S5, "--chain", C_RIGHT5, "--set", "r2,r4"],
    ["connect", S23, "--chain", C_RIGHT6, "--set", "a1,a2,b3"],
    ["connect", S5, "--chain", C_RIGHT5, "--x", "r2", "--y", "r4"],
    ["connect", S23, "--chain", C_RIGHT6, "--x", "a1", "--y", "b3"],
    ["stats", G5, "--kind", "sizes", "--p", "anc"],
    ["stats", S5, "--kind", "activity", "--p", "right"],
    ["stats", S23, "--kind", "sizes", "--p", "right"],
    ["stats", S5, "--kind", "affinity"],
    ["oracle", G5, "--check"],
    ["oracle", S5, "--check"],
    ["oracle", S23, "--check"],
    ["build", "--kind", "table", "--dataset", "fixtures/datasets/fees.csv",
     "--predicates", "fixtures/datasets/fees_predicates.json", "--strictify"],
]

# ``tts build`` of each shipped dataset prints its committed fixture
BUILDS = [
    ("community", "street5.json", S5),
    ("community", "street2x3.json", S23),
    ("genealogy", "genealogy5.csv", G5),
]


def replay(argv: list) -> dict:
    """Run one ``--stable`` command in process from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv + ["--stable"])
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def golden() -> list:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_every_command():
    assert [g["argv"] for g in golden()] == COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stable_output_matches_golden(argv):
    assert replay(argv) == golden()[COMMANDS.index(argv)]


@pytest.mark.parametrize("kind, dataset, fixture", BUILDS, ids=[d for _, d, _ in BUILDS])
def test_build_prints_the_committed_fixture(kind, dataset, fixture):
    argv = ["build", "--kind", kind, "--dataset", f"fixtures/datasets/{dataset}"]
    expected = (ROOT / fixture).read_text(encoding="utf-8")
    assert replay(argv) == {"argv": argv, "exit": 0, "stdout": expected, "stderr": ""}


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps([replay(argv) for argv in COMMANDS], indent=1) + "\n", encoding="utf-8"
    )
