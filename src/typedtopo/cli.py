"""Command-line front end.

One operation per invocation: build a space from a dataset, validate it, or
run a family/neighborhood/closure/density/connectivity/statistics/oracle
query. Reports are JSON objects ``{"command", "space", "result", "timing"}``
on stdout (or in the ``-o`` file) with diagnostics on stderr; ``--stable``
drops the timing block so identical inputs produce byte-identical output.
``build`` prints the space document itself, or writes it to ``-o`` and
reports where; ``stats --format csv`` writes its table to ``-o`` too. Every
command comes from one table, `_COMMANDS`, and accepts only the options its
handler reads: ``--budget-points`` belongs to ``oracle`` alone, and an
option given on a path that ignores it, even with an empty value, is a
usage error: ``--x`` or ``--y`` with ``connect --set``, any other oracle
option with ``oracle --check``, and ``--x``, ``--y`` or ``--connected``
with ``oracle --dense``, among others. ``connect --x --y`` is exact at any
size and calls no oracle: it ranges over supported sets, those inside the
union of the chain's pool, while ``connect --set`` tests the set given, so
a set holding an unsupported point is connected though that point joins
no other. Its report keeps the keys ``certificate``, ``{"set": ids}`` of
the largest connected supported set through both points or null,
``oracle``, the verdict, and ``definitive``, always true. An empty ``-o``
names a file as any other value does. The argument parser is built once
per process and holds no space or query state; every `run` loads,
validates and indexes its space anew.

Exit codes: 0 success, 1 validation failure, 2 parse or usage error (an
unreadable or non-JSON file included), 3 query error (unknown point,
exceeded budget, degenerate population).
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
# a file that cannot be opened, decoded or parsed: a usage error, not a traceback
_READ_ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError)

_ERROR_CODES = (
    ((SpaceValidationError, NotStrictlyTypedError), _EXIT_VALIDATION),
    ((ExprSyntaxError, UnknownSymbolError, PreconditionError, DatasetError, *_READ_ERRORS),
     _EXIT_USAGE),
    ((UnknownPointError, BoundExceededError, OracleSkip, NoVarianceError), _EXIT_QUERY),
)


def _exit_code_for(err: Exception) -> int:
    for kinds, code in _ERROR_CODES:
        if isinstance(err, kinds):
            return code
    return _EXIT_VALIDATION


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _space_digest(sp: space.TypedSpace) -> dict:
    return {
        "points": len(sp.points),
        "opens": len(sp.opens),
        "strict": space.is_strictly_typed(sp).strict,
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


def _write(text: str, path: Optional[str]) -> None:
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _table_json(table: stats.ScoreTable) -> dict:
    return {
        "mean": table.mean,
        "sample_std": table.sample_std,
        "subjects": [
            {"subject": list(s) if isinstance(s, tuple) else s, "value": v, "z": table.z[s]}
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
    if args.kind != "table" and (args.predicates is not None or args.strictify):
        raise PreconditionError("--predicates and --strictify apply only to --kind table")
    text = _read(args.dataset)
    if args.kind == "genealogy":
        built = ingest.build_genealogy(ingest.read_genealogy_csv(text))
    elif args.kind == "community":
        built = ingest.build_community(ingest.read_community_json(text))
    elif not args.predicates:
        raise PreconditionError("--kind table needs --predicates")
    else:
        data = ingest.read_table_dataset(text, _read(args.predicates))
        built = ingest.build_table(data, apply_strictify=args.strictify)
    _write(_json_text(space.space_to_json(built)), args.output)
    return 0, built, None if args.output is None else {"written": args.output}


def _cmd_validate(args, sp):
    # load_space validated the document: one that fails raises before this
    strictness = space.is_strictly_typed(sp)
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
    witnesses = {
        p: {"kind": w[0]} if len(w) == 1 else {"kind": "core", "core": list(w[1])}
        for p, w in sorted(rep.witnesses.items())
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
    if args.set is not None:
        if args.x is not None or args.y is not None:
            raise PreconditionError("--x and --y do not apply with --set")
        pts = _set_arg(args.set)
        ok, witness = connect.is_chain_connected(sp, pts, ch)
        return 0, sp, {
            "chain": ch.text(),
            "set": sorted(pts),
            "connected": ok,
            "separator": [list(witness.left), list(witness.right)] if witness else None,
        }
    if not (args.x and args.y):
        raise PreconditionError("connect needs --set or both --x and --y")
    cert = connect.find_connection(sp, args.x, args.y, ch)
    return 0, sp, {
        "chain": ch.text(),
        "x": args.x,
        "y": args.y,
        "certificate": {"set": list(cert)} if cert else None,
        "oracle": cert is not None,
        "definitive": True,
    }


_SCORES = {"sizes": stats.family_size_scores, "activity": stats.point_activity_scores}


def _cmd_stats(args, sp):
    if args.kind == "affinity":
        if args.p is not None:
            raise PreconditionError("--p does not apply to --kind affinity")
        table = stats.pair_affinity_scores(sp, two_witness=args.two_witness)
    elif not args.p:
        raise PreconditionError(f"stats --kind {args.kind} needs --p")
    elif args.two_witness:
        raise PreconditionError("--two-witness applies only to --kind affinity")
    else:
        table = _SCORES[args.kind](sp, args.p)
    if args.format == "csv":
        _write(_table_csv(table), args.output)
        return 0, sp, None
    return 0, sp, {"kind": args.kind, "table": _table_json(table)}


def _cmd_oracle(args, sp):
    if args.check:
        if args.dense or args.connected or any(
            v is not None for v in (args.chain, args.x, args.y, args.budget_points)
        ):
            raise PreconditionError("--chain, --x, --y, --budget-points, --dense and "
                                    "--connected do not apply with --check")
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
        if args.connected or args.x is not None or args.y is not None:
            raise PreconditionError("--x, --y and --connected do not apply with --dense")
        size, witnesses = oracle.exhaustive_min_dense(sp, ch, args.budget_points)
        return 0, sp, {
            "chain": ch.text(),
            "density": size,
            "witnesses": [list(w) for w in witnesses],
        }
    if args.connected:
        if not (args.x and args.y):
            raise PreconditionError("oracle --connected needs --x and --y")
        verdict = oracle.exhaustive_connected(sp, ch, args.x, args.y, args.budget_points)
        return 0, sp, {"chain": ch.text(), "x": args.x, "y": args.y, "connected": verdict}
    raise PreconditionError("oracle needs one of --check, --dense, --connected")


_FLAG = {"action": "store_true"}
_CHAIN = ("--chain", {"help": "semicolon-separated chain levels"})
# every command also takes --stable and -o, which `run` reads
_REPORT = (
    ("--stable", _FLAG | {"help": "omit timing for diffable output"}),
    ("-o", "--output", {"help": "write the report/space to a file"}),
)

# name -> (handler, help, whether it reads a space file, the options it reads);
# an option is its flags followed by the keywords of `add_argument`
_COMMANDS = {
    "build": (_cmd_build, "build a space from a dataset", False, (
        ("--dataset", {"required": True}),
        ("--kind", {"required": True, "choices": ["genealogy", "community", "table"]}),
        ("--predicates", {"help": "predicates JSON for --kind table"}),
        ("--strictify", _FLAG | {"help": "apply the strictness repair"}),
    )),
    "validate": (_cmd_validate, "check the type-mapping contract", True, (
        ("--strict", _FLAG | {"help": "also require strict typing"}),
    )),
    "basis": (_cmd_basis, "anchored families and their irreducibles", True, (
        ("--p", {"help": "anchor type expression"}),
        ("--x", {"help": "restrict to opens through this point"}),
    )),
    "nbhd": (_cmd_nbhd, "chain neighborhoods of a point", True, (
        _CHAIN, ("--x", {"help": "the point"}),
    )),
    "closure": (_cmd_closure, "chain closure of a point set", True, (
        _CHAIN, ("--set", {"help": "comma-separated point ids"}),
    )),
    "dense": (_cmd_dense, "minimum chain-dense set", True, (_CHAIN,)),
    "connect": (_cmd_connect, "chain connectivity queries", True, (
        _CHAIN, ("--set", {"help": "test this point set for connectedness"}),
        ("--x", {}), ("--y", {}),
    )),
    "stats": (_cmd_stats, "score tables", True, (
        ("--p", {"help": "generator name"}),
        ("--kind", {"choices": [*_SCORES, "affinity"], "default": "sizes"}),
        ("--format", {"choices": ["json", "csv"], "default": "json"}),
        ("--two-witness", _FLAG | {"help": "affinity variant"}),
    )),
    "oracle": (_cmd_oracle, "brute-force reference searches", True, (
        ("--check", _FLAG | {"help": "replay the theorem suite"}),
        ("--dense", _FLAG), ("--connected", _FLAG), _CHAIN, ("--x", {}), ("--y", {}),
        ("--budget-points", {"type": int, "help": "override the oracle point budget"}),
    )),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tts", description="typed-topology queries over finite spaces"
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads_space, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if reads_space:
            p.add_argument("space", help="space JSON file")
        for *flags, keywords in options + _REPORT:
            p.add_argument(*flags, **keywords)
    return top


def run(argv) -> int:
    args = _parser().parse_args(argv)
    handler, _, reads_space, _ = _COMMANDS[args.command]
    started = time.perf_counter()
    try:
        code, sp, result = handler(args, space.load_space(args.space) if reads_space else None)
        if result is None:
            return code
        report = {"command": args.command, "space": _space_digest(sp), "result": result}
        if not args.stable:
            report["timing"] = {"seconds": time.perf_counter() - started}
        # build writes the space itself to -o, so its report goes to stdout
        _write(_json_text(report), None if args.command == "build" else args.output)
    except (TypedTopoError, *_READ_ERRORS) as err:
        detail = f"not JSON: {err}" if isinstance(err, json.JSONDecodeError) else err
        print(f"tts {args.command}: {detail}", file=sys.stderr)
        return _exit_code_for(err)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
