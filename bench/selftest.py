"""Short self-test of the benchmark.

Runs one round of every workload with all of its output checks, the cli
closed forms on single streets of 3, 4 and 6 residents (the workload itself
covers the 5-resident fixture), and one traced operation to check that the
tracer records spans and restores the functions it wrapped, and a short busy
loop to check that the speed probes run and that scaling removes their time.
Exits non-zero on any failed operation or wrong output.

    python3 bench/selftest.py
"""
from __future__ import annotations

import random
import shutil
import sys
import time

import run

typedtopo = run._import_package()

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _round(label: str, ops) -> run.Outcomes:
    outcomes = run.Outcomes()
    run.run_rounds(ops, 0, outcomes)
    print(f"{label}: {outcomes.attempted} operations, {outcomes.failed} failed")
    for problem in outcomes.problems:
        print(f"  FAILED {problem}")
    return outcomes


def _tracer_problems(ops) -> list:
    leq = typedtopo.lattice.leq
    outcomes = run.Outcomes()
    run.run_rounds(ops[:1], 0, outcomes)  # checks the output untraced
    tr = tracing.Tracer()
    tr.install(typedtopo)
    try:  # the traced output must equal the checked one
        run.run_rounds(ops[:1], 0, outcomes, tracer=tr)
    finally:
        tr.uninstall()
    problems = list(outcomes.problems)
    if typedtopo.lattice.leq is not leq or typedtopo.chains.realized_types is not (
        typedtopo.space.realized_types
    ):
        problems.append("uninstall left a wrapped function behind")
    summary = tr.summary({})
    if summary["ops"] != 1 or summary["calls"].get("lattice.leq", 0) == 0:
        problems.append("traced operation recorded no lattice.leq span")
    if sum(summary["self_s"].values()) > summary["op_seconds"] * (1 + 1e-9):
        problems.append("self times exceed the traced operation's time")
    print(f"tracer: {summary['spans']} spans, {len(problems)} problems")
    for problem in problems:
        print(f"  FAILED {problem}")
    return problems


def _speed_problems() -> list:
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        start = time.process_time()
        while time.process_time() - start < 0.5:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
    problems = []
    inside = sum(t0 <= t < t1 for t in probe.at)
    if inside < 0.5 / speed.PERIOD_S / 2:
        problems.append(f"{inside} probes in 0.5 s of CPU time")
    scaled = probe.scaled(t0, t1)
    factor = speed.NOMINAL_S / (sum(probe.took) / len(probe.took))
    if not 0 < scaled < (t1 - t0) * factor * 1.5:
        problems.append(f"scaled time {scaled:.4f} s for {t1 - t0:.4f} s of wall time")
    print(f"speed: {inside} probes in the loop, {len(problems)} problems")
    for problem in problems:
        print(f"  FAILED {problem}")
    return problems


def main() -> int:
    workdir = run.HERE / "out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    failed = len(_speed_problems())
    try:
        for name, setup in workloads.WORKLOADS.items():
            ops = setup(1, workdir)
            failed += _round(name, ops).failed
            if name == "check":
                failed += len(_tracer_problems(ops))
        models = workloads.CliModels(1)
        rng = random.Random(1)
        for n in (3, 4, 6):
            inp = workloads.street_input(n, workdir)
            failed += _round(f"cli street{n}", workloads.cli_ops(inp, rng, models, False)).failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest", "passed" if failed == 0 else f"FAILED ({failed})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
