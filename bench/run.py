"""Benchmark of the typedtopo pipeline: build, cli and check workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload build|cli|check --seed N --seconds S --trace 0|1

One client in a closed loop: each operation starts when the previous one
ends, in one process with no threads. A run sets up its inputs from the seed
(several times, to time the set-up), then runs as many whole rounds of the
workload's operations as bring their time nearest to ``--seconds`` seconds,
and at least two.
The first output of each operation is checked against computations made
apart from the timed code; later rounds must reproduce it. An operation that
raises, or whose output is wrong, counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it runs one untraced round, then wraps the public functions of every
typedtopo module and repeats traced rounds, and reports per-layer metrics and
the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_MIN_S = 0.5  # a set-up of a millisecond needs many repeats for a steady median
# a cli round takes about 15 s, and one round alone gives too few samples for
# steady medians
MIN_ROUNDS = 2
HASH_SEED = "0"

# Per-layer metrics, per traced operation: the calls of LAYER_CALLS, the self
# time of LAYER_SELF and of each module in MODULE_SELF, and the share of
# operation time spent inside each group of GROUPS (outermost spans only).
LAYER_CALLS = (
    "space.validate_type_mapping", "lattice.normalize", "lattice.meet", "lattice.join",
    "lattice.term_from_json", "space.realized_types", "lattice.sort_key", "lattice.leq",
    "chains.chain_pool", "chains.chain_base_pool", "chains.generator_neighborhoods",
    "basis.irreducibles_above", "basis.is_join_irreducible", "space.is_strictly_typed",
    "connect.is_chain_connected",
)
LAYER_SELF = (
    "space.validate_type_mapping", "space.generate_topology", "space.space_from_json",
    "space.realized_types", "oracle.check_space", "oracle.exhaustive_min_dense",
    "oracle.exhaustive_connected", "space.is_strictly_typed", "space.strictify",
    "lattice.normalize", "lattice.leq", "lattice.sort_key",
)
MODULE_SELF = ("lattice", "chains", "basis", "cli", "closure", "connect", "stats", "ingest")
GROUPS = {
    "space.validate_type_mapping.incl_share": ("space.validate_type_mapping",),
    "chains_basis_oracle.incl_share": ("chains.", "basis.", "oracle."),
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (ROOT / "src" / "typedtopo" / "__init__.py").is_file():
        _fail(f"no typedtopo sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import typedtopo

    return typedtopo


class Outcomes:
    """Attempted and failed operations; checks the first output of each operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reference: dict = {}
        self.problems: list = []

    def record(self, index: int, op, out, error) -> bool:
        self.attempted += 1
        if error is not None:
            self._fail(f"{op.label}: raised {error!r}", wrong=False)
            return False
        digest = op.digest(out)
        if index in self.reference:
            if digest != self.reference[index]:
                self._fail(f"{op.label}: output differs from the checked first output")
                return False
            return True
        problems = op.verify(out)
        if problems:
            self._fail(f"{op.label}: {'; '.join(problems)}")
            return False
        self.reference[index] = digest
        return True

    def _fail(self, message: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += wrong
        self.problems.append(message)


def run_rounds(ops, seconds: float, outcomes: Outcomes, tracer=None, on_round=None, scale=True,
               min_rounds=1):
    """Whole rounds, as many as bring the operations' time nearest to ``seconds``.

    At least ``min_rounds`` rounds run. Returns one list of
    ``(op, seconds, ok, raw)`` per round; ``on_round`` is called after each
    round. ``raw`` is the wall time; ``seconds`` is scaled to the nominal
    machine speed (`speed.Probe`) if ``scale`` holds and the run is untraced
    (a probe would fall inside the spans), and raw otherwise.
    """
    results = []
    busy = 0.0
    with speed.Probe() if scale and tracer is None else contextlib.nullcontext() as probe:
        while len(results) < min_rounds or busy + busy / len(results) / 2 < seconds:
            samples = []
            for index, op in enumerate(ops):
                call = op.prepare()
                out = error = None
                t0 = time.perf_counter()
                with tracer.op() if tracer is not None else contextlib.nullcontext():
                    try:
                        out = call()
                    except Exception as exc:  # counted as a failed operation
                        error = exc
                t1 = time.perf_counter()
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
                busy += t1 - t0
                ok = outcomes.record(index, op, out, error)
                samples.append((op, t0, t1, ok))
            results.append(samples)
            if on_round is not None:
                on_round()
    seconds_of = (lambda t0, t1: t1 - t0) if probe is None else probe.scaled
    return [[(op, seconds_of(t0, t1), ok, t1 - t0) for op, t0, t1, ok in r] for r in results]


def _setup(setup, seed: int, workdir: Path, repeats: int):
    """Make the inputs ``repeats`` times, and more while they take under SETUP_MIN_S in all.

    Returns the inputs and each set-up's time, scaled to the nominal speed.
    """
    spans = []
    ops = None
    with speed.Probe() as probe:
        while len(spans) < repeats or (
            repeats > 1 and sum(t1 - t0 for t0, t1 in spans) < SETUP_MIN_S
        ):
            ops = None  # drop the previous inputs before making them again
            t0 = time.perf_counter()
            ops = setup(seed, workdir)
            spans.append((t0, time.perf_counter()))
    return ops, [probe.scaled(t0, t1) for t0, t1 in spans]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(rounds, setup_times, rss_mb) -> dict:
    samples = [s for r in rounds for s in r]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (sum(s[2] for s in samples) / sum(s[1] for s in samples), "ops/s"),
        "heavy_op_ms": (statistics.median(s[1] for s in samples if s[0].heavy) * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def op_p50_ms(rounds) -> float:
    """Median latency of one operation; printed, but not one of the gated metrics.

    The latencies of a round cluster by command and input, and the median
    falls in a gap between clusters, so seeds that shift a few operations
    across it move it by a sixth.
    """
    return statistics.median(s[1] for r in rounds for s in r) * 1000


def per_layer(summary: dict, ref_rounds, traced_rounds) -> dict:
    ops = summary["ops"]
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0) / ops, "calls/op")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s/op")
    for mod in MODULE_SELF:
        total = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        out[f"{mod}.self_s"] = (total / ops, "s/op")
    skipped = summary["raised"].get("oracle.exhaustive_connected:OracleSkip", 0)
    out["oracle.exhaustive_connected.skipped"] = (skipped / ops, "calls/op")
    for metric in GROUPS:
        out[metric] = (summary["group_incl_s"][metric] / summary["op_seconds"], "ratio")
    ref = statistics.fmean(s[3] for r in ref_rounds for s in r)
    traced = statistics.fmean(s[3] for r in traced_rounds for s in r)
    out["trace.overhead"] = (traced / ref - 1, "ratio")
    return out


def _print_report(workload, seed, metrics, outcomes, extra_lines=()) -> None:
    print(f"workload {workload}, seed {seed}")
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  attempted {outcomes.attempted}, failed {outcomes.failed}")
    for problem in outcomes.problems[:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    typedtopo = _import_package()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    if args.seconds < 0:
        _fail("--seconds must not be negative")
    setup = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outcomes = Outcomes()
    try:
        if not args.trace:
            ops, setup_times = _setup(setup, args.seed, workdir, SETUP_REPEATS)
            # peak memory through the first round: per-space caches that are never
            # freed would otherwise make it depend on how many rounds fit in the run
            rss = []
            rounds = run_rounds(ops, args.seconds, outcomes, min_rounds=MIN_ROUNDS,
                                on_round=lambda: rss or rss.append(peak_rss_mb()))
            metrics = end_to_end(rounds, setup_times, rss[0])
            samples = [s for r in rounds for s in r]
            factor = sum(s[1] for s in samples) / sum(s[3] for s in samples)
            unscaled = sum(s[2] for s in samples) / sum(s[3] for s in samples)
            extra = [f"  {len(ops)} operations per round, {len(rounds)} rounds",
                     f"  timings scaled by {factor:.4f} to the nominal speed (bench/speed.py);"
                     f" unscaled: {unscaled:.6g} ops/s",
                     f"  {'op_p50_ms (not gated)':<44} {op_p50_ms(rounds):>14.6g} ms"]
        else:
            ops, _ = _setup(setup, args.seed, workdir, 1)
            ref = run_rounds(ops, 0, outcomes, scale=False)
            tr = tracing.Tracer()
            tr.install(typedtopo)
            try:
                traced = run_rounds(ops, args.seconds, outcomes, tracer=tr)
            finally:
                tr.uninstall()
            groups = {}
            for metric, prefixes in GROUPS.items():
                groups[metric] = frozenset(n for n in tr.names if n.startswith(prefixes))
            summary = tr.summary(groups)
            metrics = per_layer(summary, ref, traced)
            path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
            extra = [f"  {summary['spans']} spans over {summary['ops']} traced operations;"
                     f" summary in {path.relative_to(ROOT)}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_report(args.workload, args.seed, metrics, outcomes, extra)
    correct = outcomes.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing sets the iteration order of the frozensets inside lattice
        # terms, and normalization costs depend on that order; pin it so that runs
        # compare. The interpreter reads the seed only at start-up.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        argv = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]]
        os.execve(sys.executable, argv, env)
    sys.exit(main())
