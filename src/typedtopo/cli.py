"""Command-line front end.

One operation per invocation: build a space from a dataset, validate it, or
run a family/neighborhood/closure/density/connectivity/statistics/oracle
query. Reports are JSON objects ``{"command", "space", "result", "timing"}``
on stdout (or in the ``-o`` file) with diagnostics on stderr; ``--stable``
drops the timing block so identical inputs produce byte-identical output.
``build`` prints the space document itself, or writes it to ``-o`` and
reports where. The argument parser is built once per process and holds no
space or query state; every `run` loads, validates and indexes its space anew.

Exit codes: 0 success, 1 validation failure, 2 parse or usage error,
3 query error (unknown point, exceeded budget, degenerate population).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional

from . import basis, chains, closure, connect, ingest, lattice, oracle, space, stats
from .errors import (
    BoundExceededError,
    DatasetError,
    ExprSyntaxError,
    InvariantViolationError,
    NoVarianceError,
    NotStrictlyTypedError,
    OracleSkip,
    PreconditionError,
    SpaceValidationError,
    TypedTopoError,
    UnknownPointError,
    UnknownSymbolError,
)

_EXIT_VALIDATION = 1
_EXIT_USAGE = 2
_EXIT_QUERY = 3

_ERROR_CODES = (
    ((SpaceValidationError, NotStrictlyTypedError, InvariantViolationError), _EXIT_VALIDATION),
    ((ExprSyntaxError, UnknownSymbolError, PreconditionError, DatasetError), _EXIT_USAGE),
    ((UnknownPointError, BoundExceededError, OracleSkip, NoVarianceError), _EXIT_QUERY),
)


def _exit_code_for(err: TypedTopoError) -> int:
    for kinds, code in _ERROR_CODES:
        if isinstance(err, kinds):
            return code
    return _EXIT_VALIDATION


def _space_digest(sp: space.TypedSpace) -> dict:
    return {
        "points": len(sp.points),
        "opens": len(sp.opens),
        "strict": space.strictness(sp).strict,
    }


def _families_json(sp: space.TypedSpace, masks: frozenset) -> list:
    return sorted(sp.ids_of(m) for m in masks)


def _chain_arg(args, sp) -> chains.TypeChain:
    if not args.chain:
        raise PreconditionError("this command needs --chain")
    return chains.parse_chain(args.chain, sp.ctx)


def _set_arg(raw: Optional[str]) -> frozenset:
    if raw is None:
        raise PreconditionError("this command needs --set")
    return frozenset(s.strip() for s in raw.split(",") if s.strip())


def _budget(args) -> Optional[oracle.SearchBudget]:
    """The ``--budget-points`` override, or ``None``.

    With ``None`` each exhaustive search applies its own default budget:
    the dense search and the connectivity search have different ones.
    """
    if args.budget_points is None:
        return None
    return oracle.SearchBudget(max_points=args.budget_points)


def _write(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _table_json(table: stats.ScoreTable) -> dict:
    def subject_json(s):
        if isinstance(s, tuple):
            return list(s)
        return s

    return {
        "mean": table.mean,
        "sample_std": table.sample_std,
        "subjects": [
            {"subject": subject_json(s), "value": v, "z": table.z[s]}
            for s, v in table.population
        ],
    }


def _table_csv(table: stats.ScoreTable) -> str:
    lines = ["subject,value,z"]
    for s, v in table.population:
        label = "|".join(s) if isinstance(s, tuple) else str(s)
        lines.append(f"{label},{v},{table.z[s]}")
    return "\n".join(lines) + "\n"


# Each handler takes the parsed arguments and the loaded space (None for
# build) and returns (exit code, space, result); a result of None means the
# handler already wrote its output and no report follows.


def _cmd_build(args, _):
    kind = args.kind
    if kind == "genealogy":
        with open(args.dataset, encoding="utf-8") as fh:
            built = ingest.build_genealogy(ingest.read_genealogy_csv(fh.read()))
    elif kind == "community":
        with open(args.dataset, encoding="utf-8") as fh:
            built = ingest.build_community(ingest.read_community_json(fh.read()))
    elif kind == "table":
        if not args.predicates:
            raise PreconditionError("--kind table needs --predicates")
        with open(args.dataset, encoding="utf-8") as fh:
            csv_text = fh.read()
        with open(args.predicates, encoding="utf-8") as fh:
            pred_text = fh.read()
        built = ingest.build_table(
            ingest.read_table_dataset(csv_text, pred_text),
            apply_strictify=args.strictify,
        )
    else:  # pragma: no cover - argparse rejects other values
        raise PreconditionError(f"unknown dataset kind {kind!r}")
    _write(_json_text(space.space_to_json(built)), args.output)
    return 0, built, {"written": args.output} if args.output else None


def _cmd_validate(args, sp):
    # load_space validated the document: one that fails raises before this
    strictness = space.strictness(sp)
    result = {
        "valid": True,
        "failures": [],
        "strict": strictness.strict,
        "strict_witness": (
            [list(w) for w in strictness.witness] if strictness.witness else None
        ),
    }
    code = 0 if strictness.strict or not args.strict else _EXIT_VALIDATION
    return code, sp, result


def _cmd_basis(args, sp):
    if not args.p:
        raise PreconditionError("basis needs --p")
    p = lattice.parse_type_expr(args.p, sp.ctx)
    return 0, sp, {
        "anchor": lattice.format_term(p),
        "family": _families_json(sp, basis.opens_above(sp, p, at=args.x)),
        "irreducible": _families_json(sp, basis.irreducibles_above(sp, p, at=args.x)),
    }


def _cmd_nbhd(args, sp):
    ch = _chain_arg(args, sp)
    if not args.x:
        raise PreconditionError("nbhd needs --x")
    return 0, sp, {
        "chain": ch.text(),
        "point": args.x,
        "neighborhoods": _families_json(sp, chains.chain_neighborhoods(sp, args.x, ch)),
        "base": _families_json(sp, chains.chain_base(sp, args.x, ch)),
    }


def _cmd_closure(args, sp):
    ch = _chain_arg(args, sp)
    start = _set_arg(args.set)
    rep = closure.chain_closure(sp, start, ch)
    witnesses = {}
    for p, w in sorted(rep.witnesses.items()):
        witnesses[p] = {"kind": w[0]} if w[0] == "vacuous" else {
            "kind": "core",
            "core": list(w[1]),
        }
    return 0, sp, {
        "chain": ch.text(),
        "set": sorted(start),
        "closure": list(rep.ids()),
        "witnesses": witnesses,
    }


def _cmd_dense(args, sp):
    ch = _chain_arg(args, sp)
    rep = closure.min_chain_dense(sp, ch)
    return 0, sp, {
        "chain": ch.text(),
        "density": rep.density,
        "witness": list(rep.witness_ids()),
        "unsupported": sorted(rep.unsupported),
        "classes": [list(c) for c in rep.classes],
        "maximal_classes": [list(c) for c in rep.maximal_classes],
    }


def _cmd_connect(args, sp):
    ch = _chain_arg(args, sp)
    if args.set:
        pts = _set_arg(args.set)
        ok, witness = connect.is_chain_connected(sp, pts, ch)
        return 0, sp, {
            "chain": ch.text(),
            "set": sorted(pts),
            "connected": ok,
            "separator": (
                [list(witness.left), list(witness.right)] if witness else None
            ),
        }
    if not (args.x and args.y):
        raise PreconditionError("connect needs --set or both --x and --y")
    budget = _budget(args)
    cert = connect.find_connection(sp, args.x, args.y, ch)
    try:
        confirmed = oracle.exhaustive_connected(sp, ch, args.x, args.y, budget)
    except OracleSkip:
        confirmed = None
    return 0, sp, {
        "chain": ch.text(),
        "x": args.x,
        "y": args.y,
        "certificate": (
            {
                "set": list(cert.member_ids),
                "sequence": [list(s) for s in cert.sequence],
            }
            if cert
            else None
        ),
        "oracle": "skipped" if confirmed is None else confirmed,
        "definitive": confirmed is not None,
    }


def _cmd_stats(args, sp):
    kind = args.kind or "sizes"
    if kind == "sizes":
        if not args.p:
            raise PreconditionError("stats --kind sizes needs --p")
        table = stats.family_size_scores(sp, args.p)
    elif kind == "activity":
        if not args.p:
            raise PreconditionError("stats --kind activity needs --p")
        table = stats.point_activity_scores(sp, args.p)
    elif kind == "affinity":
        table = stats.pair_affinity_scores(sp, two_witness=args.two_witness)
    else:  # pragma: no cover - argparse rejects other values
        raise PreconditionError(f"unknown stats kind {kind!r}")
    if args.format == "csv":
        sys.stdout.write(_table_csv(table))
        return 0, sp, None
    return 0, sp, {"kind": kind, "table": _table_json(table)}


def _cmd_oracle(args, sp):
    if args.check:
        rep = oracle.check_space(sp)
        lines = [
            {
                "name": r.name,
                "scope": r.scope,
                "passed": r.passed,
                "counterexamples": [list(map(str, c)) for c in r.counterexamples],
            }
            for r in rep.results
        ]
        code = 0 if rep.ok else _EXIT_VALIDATION
        return code, sp, {"ok": rep.ok, "checks": lines}
    ch = _chain_arg(args, sp)
    if args.dense:
        size, witnesses = oracle.exhaustive_min_dense(sp, ch, _budget(args))
        return 0, sp, {
            "chain": ch.text(),
            "density": size,
            "witnesses": [list(w) for w in witnesses],
        }
    if args.connected:
        if not (args.x and args.y):
            raise PreconditionError("oracle --connected needs --x and --y")
        verdict = oracle.exhaustive_connected(sp, ch, args.x, args.y, _budget(args))
        return 0, sp, {"chain": ch.text(), "x": args.x, "y": args.y, "connected": verdict}
    raise PreconditionError("oracle needs one of --check, --dense, --connected")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tts", description="typed-topology queries over finite spaces"
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_space=True):
        if with_space:
            p.add_argument("space", help="space JSON file")
        p.add_argument("--stable", action="store_true", help="omit timing for diffable output")
        p.add_argument("-o", "--output", help="write the report/space to a file")
        p.add_argument("--budget-points", type=int, help="override the oracle point budget")

    b = sub.add_parser("build", help="build a space from a dataset")
    b.add_argument("--dataset", required=True)
    b.add_argument("--kind", required=True, choices=["genealogy", "community", "table"])
    b.add_argument("--predicates", help="predicates JSON for --kind table")
    b.add_argument("--strictify", action="store_true", help="apply the strictness repair")
    common(b, with_space=False)

    v = sub.add_parser("validate", help="check the type-mapping contract")
    v.add_argument("--strict", action="store_true", help="also require strict typing")
    common(v)

    ba = sub.add_parser("basis", help="anchored families and their irreducibles")
    ba.add_argument("--p", help="anchor type expression")
    ba.add_argument("--x", help="restrict to opens through this point")
    common(ba)

    nb = sub.add_parser("nbhd", help="chain neighborhoods of a point")
    nb.add_argument("--chain", help="semicolon-separated chain levels")
    nb.add_argument("--x", help="the point")
    common(nb)

    cl = sub.add_parser("closure", help="chain closure of a point set")
    cl.add_argument("--chain")
    cl.add_argument("--set", help="comma-separated point ids")
    common(cl)

    de = sub.add_parser("dense", help="minimum chain-dense set")
    de.add_argument("--chain")
    common(de)

    co = sub.add_parser("connect", help="chain connectivity queries")
    co.add_argument("--chain")
    co.add_argument("--set", help="test this point set for connectedness")
    co.add_argument("--x")
    co.add_argument("--y")
    common(co)

    st = sub.add_parser("stats", help="score tables")
    st.add_argument("--p", help="generator name")
    st.add_argument("--kind", choices=["sizes", "activity", "affinity"])
    st.add_argument("--format", choices=["json", "csv"], default="json")
    st.add_argument("--two-witness", action="store_true", help="affinity variant")
    common(st)

    orc = sub.add_parser("oracle", help="brute-force reference searches")
    orc.add_argument("--check", action="store_true", help="replay the theorem suite")
    orc.add_argument("--dense", action="store_true")
    orc.add_argument("--connected", action="store_true")
    orc.add_argument("--chain")
    orc.add_argument("--x")
    orc.add_argument("--y")
    common(orc)

    return top


_HANDLERS = {
    "build": _cmd_build,
    "validate": _cmd_validate,
    "basis": _cmd_basis,
    "nbhd": _cmd_nbhd,
    "closure": _cmd_closure,
    "dense": _cmd_dense,
    "connect": _cmd_connect,
    "stats": _cmd_stats,
    "oracle": _cmd_oracle,
}


def run(argv) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        sp = None if args.command == "build" else space.load_space(args.space)
        code, sp, result = _HANDLERS[args.command](args, sp)
        if result is None:
            return code
        report = {"command": args.command, "space": _space_digest(sp), "result": result}
    except TypedTopoError as err:
        print(f"tts {args.command}: {err}", file=sys.stderr)
        return _exit_code_for(err)
    if not args.stable:
        report["timing"] = {"seconds": time.perf_counter() - started}
    # build writes the space itself to -o, so its report goes to stdout
    _write(_json_text(report), None if args.command == "build" else args.output)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
