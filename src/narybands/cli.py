"""Command-line front end: axiom checks and analysis reports, structural
decomposition and composition, reducibility, extension, enumeration,
brute-force oracles, and isomorphism testing over JSON table files.

Exit codes: 0 success / property holds, 1 property fails on well-formed
input, 2 malformed input or exceeded resource budget.  A ConsistencyError
(a failed internal cross-check) also exits 1: it is what a non-band run
with --no-verify raises, and that input fails the property.
"""

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__
from .errors import (
    ConsistencyError,
    DomainError,
    InputError,
    ResourceError,
)
from .optable import (
    AssociativityWitness,
    OpTable,
    SymmetryWitness,
    canonical_form,
    check_associative,
    check_idempotent,
    check_symmetric,
    extend,
    table_from_json,
    table_to_json,
)
from .bandcore import classify
from .structure import decompose, system_from_json, system_to_json
from .compose import brute_force_bands, compose, enumerate_bands
from .reduce import (
    Irreducible,
    Reduction,
    brute_force_reductions,
    decide_reducible,
    reduction_result_to_doc,
)


@dataclass
class AnalysisReport:
    """Everything cmd_check reports about one table."""

    size: int
    arity: int
    associative: AssociativityWitness | None
    symmetric: SymmetryWitness | None
    idempotent: int | None
    classification: str | None = None
    classes: tuple[tuple[int, ...], ...] | None = None
    meet: tuple[tuple[int, ...], ...] | None = None
    groups: tuple[tuple[int, int, tuple[int, ...]], ...] | None = None
    reducible: bool | None = None
    selection: tuple[int, ...] | None = None
    witness: Irreducible | None = None

    @property
    def is_band(self) -> bool:
        return self.associative is None and self.symmetric is None and self.idempotent is None


def analyze(t: OpTable) -> AnalysisReport:
    """Axioms first; the structural fields only when all three hold."""
    sym = check_symmetric(t)
    assoc = check_associative(t, use_symmetry=sym is None)
    idem = check_idempotent(t)
    report = AnalysisReport(t.size, t.arity, assoc, sym, idem)
    if not report.is_band:
        return report
    report.classification = classify(t, verify=False).value
    system = decompose(t, verify=False)
    report.classes = system.partition.classes
    k = system.quotient.size
    report.meet = tuple(
        tuple(system.quotient.meet_of(a, b) for b in range(k)) for a in range(k)
    )
    report.groups = tuple(
        (g.class_index, g.neutral, g.factor_signature) for g in system.groups
    )
    outcome = decide_reducible(system, verify=False)
    if isinstance(outcome, Reduction):
        report.reducible = True
        report.selection = outcome.selection.by_class
    else:
        report.reducible = False
        report.witness = outcome
    return report


def report_to_doc(report: AnalysisReport) -> dict:
    doc = {
        "size": report.size,
        "arity": report.arity,
        "axioms": {
            "associative": report.associative is None,
            "symmetric": report.symmetric is None,
            "idempotent": report.idempotent is None,
        },
    }
    witnesses = {}
    if report.associative is not None:
        witnesses["associative"] = {
            "args": list(report.associative.args),
            "position": report.associative.position,
        }
    if report.symmetric is not None:
        witnesses["symmetric"] = {
            "args": list(report.symmetric.args),
            "swapped": list(report.symmetric.swapped),
        }
    if report.idempotent is not None:
        witnesses["idempotent"] = {"element": report.idempotent}
    if witnesses:
        doc["witnesses"] = witnesses
    if not report.is_band:
        return doc
    doc["classification"] = report.classification
    doc["classes"] = [list(c) for c in report.classes]
    doc["meet"] = [list(row) for row in report.meet]
    doc["groups"] = [
        {"class": c, "neutral": e, "signature": list(sig)} for c, e, sig in report.groups
    ]
    doc["reducible"] = report.reducible
    if report.reducible:
        doc["selection"] = {str(c): e for c, e in enumerate(report.selection)}
    else:
        doc["witness"] = {
            "class": report.witness.witness_class,
            "images": list(report.witness.conflicting_images),
            "sources": [list(p) for p in report.witness.sources],
        }
    return doc


def report_to_text(report: AnalysisReport, labels) -> str:
    def name(x):
        return labels[x]

    lines = [f"table: {report.size} elements, arity {report.arity}"]
    if report.associative is None:
        lines.append("associative: pass")
    else:
        args = " ".join(name(a) for a in report.associative.args)
        lines.append(
            f"associative: FAIL on ({args}), nestings {report.associative.position} "
            f"and {report.associative.position + 1} differ"
        )
    if report.symmetric is None:
        lines.append("symmetric: pass")
    else:
        left = " ".join(name(a) for a in report.symmetric.args)
        right = " ".join(name(a) for a in report.symmetric.swapped)
        lines.append(f"symmetric: FAIL on ({left}) vs ({right})")
    if report.idempotent is None:
        lines.append("idempotent: pass")
    else:
        lines.append(f"idempotent: FAIL at {name(report.idempotent)}")
    if not report.is_band:
        return "\n".join(lines)
    lines.append(f"classification: {report.classification}")
    shown = " ".join(
        "[%d]={%s}" % (i, ",".join(name(x) for x in c)) for i, c in enumerate(report.classes)
    )
    lines.append(f"classes: {shown}")
    for i, row in enumerate(report.meet):
        lines.append(f"meet[{i}]: " + " ".join(str(v) for v in row))
    for c, e, sig in report.groups:
        desc = "trivial" if not sig else "x".join(str(d) for d in sig)
        lines.append(f"group[{c}]: {desc} (neutral {name(e)})")
    if report.reducible:
        sel = " ".join(f"[{c}]={name(e)}" for c, e in enumerate(report.selection))
        lines.append("reducible: yes")
        lines.append(f"selection: {sel}")
    else:
        w = report.witness
        images = ",".join(name(x) for x in w.conflicting_images)
        sources = ", ".join(f"[{c}] chose {name(e)}" for c, e in w.sources)
        lines.append("reducible: no")
        lines.append(f"conflict: class [{w.witness_class}] forced images {{{images}}} by {sources}")
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
    report = analyze(t)
    if args.report == "json":
        _emit(_dumps(report_to_doc(report)), args.output)
    else:
        _emit(report_to_text(report, labels), args.output)
    return 0 if report.is_band else 1


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
    if not count_only:
        lines.extend(table_to_json(t) for t in catalog.entries)
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
    if canonical_form(ta).values == canonical_form(tb).values:
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
    q = oracle_sub.add_parser(
        "reductions", parents=[out_flag], help="scan every binary table for reductions"
    )
    q.add_argument("file", help="operation table JSON ('-' for stdin)")
    q.add_argument(
        "--all-tables",
        action="store_true",
        help="scan non-symmetric tables too (small sizes only)",
    )
    q.set_defaults(func=cmd_oracle_reductions)
    q = oracle_sub.add_parser(
        "bands", parents=[out_flag], help="find every band by backtracking search"
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
    except (InputError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
