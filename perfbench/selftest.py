"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a tiny slice of every workload on the current code and requires that
no op fails, then corrupts one expected answer per workload and requires
that exactly that op counts as failed.  Also pins the oracle's witness
order to acceptance 01 and checks that a tiny traced run sees the layers.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import sys

import numpy as np

import oracle
import run


def check(name: str, ok: bool, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}", flush=True)
    if not ok:
        failures.append(name)


def in_process(workload: str, workdir, failures: list) -> None:
    bench = run.InProcess(workload, 7, workdir)
    bench.spawn(1.0, 1, trace=False)
    outcomes = bench.outcomes()
    check(f"{workload}: one round, no failed op", all(ok for _, _, ok in outcomes), failures)
    op = bench.batches[0][0][0]
    if "reducible" in op.expected:
        op.expected["reducible"] = not op.expected["reducible"]
    else:
        op.expected["position"] += 1
    failed = sum(not ok for _, _, ok in bench.outcomes())
    check(f"{workload}: a corrupted expected answer fails", failed == 1, failures)


def catalog(failures: list) -> None:
    runs = run.catalog_cycle(0)
    check("catalog: one cycle, no failed command", all(ok for _, _, ok, _ in runs), failures)
    name, args = run.CATALOG[0]
    _, code, stdout = run.cli_command(args)
    saved = run.CATALOG_SUMMARY[name]
    run.CATALOG_SUMMARY[name] = dict(saved, labeled=saved["labeled"] + 1)
    try:
        check("catalog: a corrupted summary fails", not run.check_catalog(name, code, stdout), failures)
    finally:
        run.CATALOG_SUMMARY[name] = saved
    lines = stdout.splitlines()
    repeated = "\n".join([lines[0]] + lines[:-2] + lines[-1:])
    check("catalog: a repeated iso class fails", not run.check_catalog(name, code, repeated), failures)


def main() -> int:
    failures: list = []
    maj2 = np.array([int(a + b + c >= 2) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    witness = oracle.associativity_witness(maj2.reshape((2, 2, 2)))
    check("oracle: maj2 witness is ((0, 0, 1, 1, 1), 2)", witness == ((0, 0, 1, 1, 1), 2), failures)
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir()
    try:
        for workload in ("analyze", "reduce-wide"):
            sub = workdir / workload
            sub.mkdir()
            in_process(workload, sub, failures)
        catalog(failures)
        sub = workdir / "trace"
        sub.mkdir()
        attempted, failed, layers, _ = run.trace_in_process("analyze", 7, 0.5, sub)
        check("trace: traced run has no failed op", attempted > 0 and failed == 0, failures)
        seen = {k: v["value"] for k, v in layers.items()}
        check(
            "trace: axioms, decompose and decide spans recorded",
            all(seen[f"{s}.calls"] > 0 for s in ("optable.axioms", "structure.decompose", "reduce.decide")),
            failures,
        )
        check("trace: every per-layer metric reported", set(seen) == {n for n, _ in run.per_layer_names()}, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"failures": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
