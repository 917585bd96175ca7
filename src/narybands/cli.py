"""Command-line front end: axiom checks and analysis reports, structural
decomposition and composition, reducibility, extension, enumeration,
brute-force oracles, and isomorphism testing over JSON table files.

Exit codes: 0 success / property holds, 1 property fails on well-formed
input, 2 malformed input or exceeded resource budget or memory.  A
ConsistencyError (a failed internal cross-check) also exits 1: it is what
a non-band run with --no-verify raises, and that input fails the property.
"""

import argparse
import json
import sys

from . import __version__
from .errors import (
    ConsistencyError,
    DomainError,
    InputError,
    ResourceError,
)
from .optable import (
    OpTable,
    _band_laws,
    _canonical_forms,
    _orbit_rows_to_json,
    extend,
    table_from_json,
    table_to_json,
)
from .bandcore import _classification
from .structure import decompose, system_from_json, system_to_json
from .compose import BRUTE_CANDIDATE_BUDGET, brute_force_bands, compose, enumerate_bands
from .reduce import (
    REDUCTION_CANDIDATE_BUDGET,
    Reduction,
    brute_force_reductions,
    decide_reducible,
    reduction_result_to_doc,
)


def _witness_doc(witness) -> dict:
    if isinstance(witness, int):
        return {"element": witness}
    return {key: list(v) if isinstance(v, tuple) else v for key, v in witness._asdict().items()}


def analyze(t: OpTable) -> dict:
    """The check report as a JSON-ready document: the axioms, with a witness
    for each failing law, and the structure only when all three hold."""
    laws = _band_laws(t)
    doc = {
        "size": t.size,
        "arity": t.arity,
        "axioms": {law: witness is None for law, witness in laws},
    }
    witnesses = {law: _witness_doc(witness) for law, witness in laws if witness is not None}
    if witnesses:
        doc["witnesses"] = witnesses
        return doc
    system = decompose(t, verify=False)
    doc["classification"] = _classification(system.partition.size, t.size).value
    doc["classes"] = [list(c) for c in system.partition.classes]
    doc["meet"] = system._meet.tolist()
    doc["groups"] = [
        {"class": g.class_index, "neutral": g.neutral, "signature": list(g.factor_signature)}
        for g in system.groups
    ]
    outcome = reduction_result_to_doc(decide_reducible(system, verify=False))
    outcome.pop("table", None)
    doc.update(outcome)
    return doc


def report_to_text(doc: dict, labels) -> str:
    """The text report of an analyze document, elements shown by label."""

    def names(xs, sep=" "):
        return sep.join(labels[x] for x in xs)

    failures = {
        "associative": lambda w: f"FAIL on ({names(w['args'])}), nestings {w['position']} "
        f"and {w['position'] + 1} differ",
        "symmetric": lambda w: f"FAIL on ({names(w['args'])}) vs ({names(w['swapped'])})",
        "idempotent": lambda w: f"FAIL at {labels[w['element']]}",
    }
    lines = [f"table: {doc['size']} elements, arity {doc['arity']}"]
    for law, holds in doc["axioms"].items():
        lines.append(f"{law}: " + ("pass" if holds else failures[law](doc["witnesses"][law])))
    if "witnesses" in doc:
        return "\n".join(lines)
    lines.append(f"classification: {doc['classification']}")
    shown = " ".join(f"[{i}]={{{names(c, ',')}}}" for i, c in enumerate(doc["classes"]))
    lines.append(f"classes: {shown}")
    for i, row in enumerate(doc["meet"]):
        lines.append(f"meet[{i}]: " + " ".join(str(v) for v in row))
    for g in doc["groups"]:
        desc = "x".join(str(d) for d in g["signature"]) or "trivial"
        lines.append(f"group[{g['class']}]: {desc} (neutral {labels[g['neutral']]})")
    if doc["reducible"]:
        sel = " ".join(f"[{c}]={labels[e]}" for c, e in doc["selection"].items())
        lines.append("reducible: yes")
        lines.append(f"selection: {sel}")
    else:
        w = doc["witness"]
        sources = ", ".join(f"[{c}] chose {labels[e]}" for c, e in w["sources"])
        lines.append("reducible: no")
        lines.append(
            f"conflict: class [{w['class']}] forced images {{{names(w['images'], ',')}}} by {sources}"
        )
    return "\n".join(lines)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_table(path: str):
    return table_from_json(_read_text(path))


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(", ", ": "))


def cmd_check(args) -> int:
    t, labels = _load_table(args.file)
    doc = analyze(t)
    _emit(_dumps(doc) if args.report == "json" else report_to_text(doc, labels), args.output)
    return 1 if "witnesses" in doc else 0


def cmd_decompose(args) -> int:
    t, labels = _load_table(args.file)
    system = decompose(t, verify=not args.no_verify)
    _emit(system_to_json(system, labels), args.output)
    return 0


def cmd_compose(args) -> int:
    system, labels = system_from_json(_read_text(args.file))
    t = compose(system, args.arity, verify=not args.no_verify)
    _emit(table_to_json(t, labels), args.output)
    return 0


def cmd_reduce(args) -> int:
    t, labels = _load_table(args.file)
    system = decompose(t, verify=not args.no_verify)
    outcome = decide_reducible(system, verify=False)
    _emit(_dumps(reduction_result_to_doc(outcome, labels)), args.output)
    return 0 if isinstance(outcome, Reduction) else 1


def cmd_extend(args) -> int:
    t, labels = _load_table(args.file)
    step = t.arity - 1
    if args.arity < t.arity or (args.arity - 1) % step != 0:
        raise InputError(
            f"target arity {args.arity} is not reachable from arity {t.arity}"
        )
    result = extend(t, (args.arity - 1) // step)
    _emit(table_to_json(result, labels), args.output)
    return 0


def _emit_catalog(catalog, count_only: bool, out: str | None) -> int:
    lines = []
    if not count_only and catalog.rows:
        lines.append(_orbit_rows_to_json(catalog.rows, catalog.size, catalog.arity))
    lines.append(_dumps({"labeled": catalog.labeled, "iso": catalog.iso}))
    _emit("\n".join(lines), out)
    return 0


def cmd_enumerate(args) -> int:
    catalog = enumerate_bands(args.size, args.arity, up_to_iso=args.up_to_iso)
    return _emit_catalog(catalog, args.count_only, args.output)


def cmd_oracle_bands(args) -> int:
    catalog = brute_force_bands(args.size, args.arity)
    return _emit_catalog(catalog, args.count_only, args.output)


def cmd_oracle_reductions(args) -> int:
    t, labels = _load_table(args.file)
    found = brute_force_reductions(t, symmetric_only=not args.all_tables)
    lines = [table_to_json(g, labels) for g in found]
    lines.append(_dumps({"count": len(found)}))
    _emit("\n".join(lines), args.output)
    return 0 if found else 1


def cmd_isomorphic(args) -> int:
    ta, _ = _load_table(args.file_a)
    tb, _ = _load_table(args.file_b)
    if ta.size != tb.size or ta.arity != tb.arity:
        print("not isomorphic")
        return 1
    # one scan when the tables are isomorphic: tb is among ta's relabelings
    form_a, form_b = _canonical_forms([ta, tb])
    if form_a == form_b:
        print("isomorphic")
        return 0
    print("not isomorphic")
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narybands",
        description="Analyze, decompose, synthesize, and enumerate finite "
        "symmetric n-ary bands stored as JSON operation tables.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")
    verify_flag = argparse.ArgumentParser(add_help=False)
    verify_flag.add_argument(
        "--no-verify",
        action="store_true",
        help="skip redundant axiom/system re-checks (for pipelines)",
    )

    p = sub.add_parser("check", parents=[out_flag], help="check the band axioms and report")
    p.add_argument("file", help="operation table JSON ('-' for stdin)")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "decompose", parents=[out_flag, verify_flag], help="write the strong-system JSON"
    )
    p.add_argument("file", help="operation table JSON ('-' for stdin)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "compose", parents=[out_flag, verify_flag], help="build the table of a strong system"
    )
    p.add_argument("file", help="strong-system JSON ('-' for stdin)")
    p.add_argument("--arity", type=int, default=None, help="override the system's arity")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser(
        "reduce", parents=[out_flag, verify_flag], help="decide reducibility to a semigroup"
    )
    p.add_argument("file", help="operation table JSON ('-' for stdin)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("extend", parents=[out_flag], help="iterate the table to a higher arity")
    p.add_argument("file", help="operation table JSON ('-' for stdin)")
    p.add_argument("--arity", type=int, required=True, help="target arity")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser(
        "enumerate", parents=[out_flag], help="list all symmetric n-ary bands on a carrier"
    )
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true", help="one table per isomorphism class")
    p.add_argument("--count-only", action="store_true", help="print only the summary line")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="brute-force cross-checks")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)
    nodes = f"2^{REDUCTION_CANDIDATE_BUDGET.bit_length() - 1} nodes"
    q = oracle_sub.add_parser(
        "reductions", parents=[out_flag], help=f"find reductions by a forcing search ({nodes})"
    )
    q.add_argument("file", help="operation table JSON ('-' for stdin)")
    q.add_argument(
        "--all-tables",
        action="store_true",
        help="search non-symmetric tables too (same node budget)",
    )
    q.set_defaults(func=cmd_oracle_reductions)
    nodes = f"2^{BRUTE_CANDIDATE_BUDGET.bit_length() - 1} nodes"
    q = oracle_sub.add_parser(
        "bands", parents=[out_flag], help=f"find every band by backtracking search ({nodes})"
    )
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--arity", type=int, required=True)
    q.add_argument("--count-only", action="store_true", help="print only the summary line")
    q.set_defaults(func=cmd_oracle_bands)

    p = sub.add_parser("isomorphic", help="compare two tables up to relabeling")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_isomorphic)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except (InputError, ResourceError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (DomainError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
