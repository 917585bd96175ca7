"""Benchmark driver for narybands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/workloads.json records each one's loop, op, reason
and the layers it is meant to move):

  analyze      one table per op, in process: axioms, then decompose,
               validate, compose, reduce on bands
  reduce-wide  one strong system per op, in process: parse, validate,
               decide reducibility
  catalog      one `narybands enumerate` command per op, each in a fresh
               interpreter

One driver, one client, closed loop.  The driver makes every input from the
seed, hands the program only the input JSON text, and checks every output
against an answer it derived without narybands (gen.py, oracle.py).  With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries per-layer calls, self time and counts from a separate
traced pass over the same inputs.  The line before it is a JSON record of
the run: versions, op counts, tail percentile and every metric by name.
Memory and time come only from this driver's own child processes.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import oracle
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))

# Fresh worker processes per in-process run; setup_s is their median.
WORKERS = 3
# Fresh `import narybands` processes per catalog run; setup_s is their median.
IMPORTS = 5
# Rounds handed to a worker, as a multiple of what its warm-up rate predicts.
ROUND_MARGIN = 2.0
# A worker or CLI command that runs longer than this has hung.
CHILD_TIMEOUT_S = 150

CATALOG = (
    ("enum_4_3_iso_s", ("enumerate", "--size", "4", "--arity", "3", "--up-to-iso")),
    ("enum_4_5_s", ("enumerate", "--size", "4", "--arity", "5", "--count-only")),
    ("enum_5_3_s", ("enumerate", "--size", "5", "--arity", "3", "--count-only")),
)
CATALOG_SUMMARY = {
    "enum_4_3_iso_s": {"labeled": 197, "iso": 14},
    "enum_4_5_s": {"labeled": 200, "iso": 15},
    "enum_5_3_s": {"labeled": 3225, "iso": 45},
}

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, crashed child)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def stamp() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def with_units(metrics: dict) -> dict:
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}


def peak_rss_mb() -> float:
    """Largest resident set of any child waited for so far (own processes)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def tail(latencies, percentile: float) -> dict:
    """Nearest-rank percentile, with the sample count and how many lie beyond."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return {
        "percentile": percentile,
        "samples": len(ordered),
        "beyond": len(ordered) - rank,
        "value": ordered[rank - 1],
    }


def finish(proc: subprocess.Popen) -> None:
    """Stop a child that is still running and reap it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


# --- in-process workloads --------------------------------------------------


class InProcess:
    """analyze and reduce-wide: inputs from gen.py, ops run by worker.py."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.make_rounds = gen.analyze_rounds if workload == "analyze" else gen.reduce_rounds
        seen: set = set()
        self.warm_stream = gen.Stream(f"{workload}:warmup:{seed}", seen)
        self.stream = gen.Stream(f"{workload}:timed:{seed}", seen)
        self.warm = [op for r in self.make_rounds(self.warm_stream, 1) for op in r]
        self.warm_path = workdir / "warmup.json"
        self.warm_path.write_text(json.dumps([op.text for op in self.warm]), encoding="utf-8")
        self.batches = []  # per worker: its rounds of Op
        self.unrun = []  # rounds handed out but not reached, for the next worker
        self.results = []  # per worker: the worker's result document
        self.setups = []

    def spawn(self, budget: float, max_rounds: int, trace: bool, reuse=None) -> None:
        """One worker: setup, then a timed loop over fresh (or reused) rounds."""
        index = len(self.results)
        ops_path = self.workdir / f"ops{index}.json"
        result_path = self.workdir / f"result{index}.json"
        argv = [
            sys.executable, str(BENCH / "worker.py"), self.workload, str(self.warm_path),
            str(ops_path), str(result_path), repr(budget), str(max_rounds), "1" if trace else "0",
        ]
        launched = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env()
        )
        try:
            line = proc.stdout.readline().split()
            ready = time.perf_counter()
            if line[:1] != ["ready"]:
                raise BenchError(f"{self.workload} worker did not start")
            if reuse is None:
                # rounds an earlier worker left unrun come first, so the
                # stream stays contiguous and no input is generated twice
                warm_round_s = max(float(line[1]), 1e-3)
                count = math.ceil(ROUND_MARGIN * budget / warm_round_s) + 1
                rounds = self.unrun + self.make_rounds(self.stream, count - len(self.unrun))
            else:
                rounds = reuse
            ops_path.write_text(
                "".join(json.dumps([op.text for op in r]) + "\n" for r in rounds), encoding="utf-8"
            )
            proc.stdin.write("go\n")
            proc.stdin.flush()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            finish(proc)
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} worker exited with {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.setups.append(ready - launched)
        self.batches.append(rounds)
        self.results.append(result)
        if reuse is None:
            self.unrun = rounds[result["rounds"] :]

    def outcomes(self):
        """(latency s, kind, ok) for every op any worker ran."""
        out = []
        for rounds, result in zip(self.batches, self.results):
            for r, i, latency, got in result["records"]:
                op = rounds[r][i]
                out.append((latency, op.kind, got == op.expected))
        return out

    def round_rates(self):
        """Correct ops per second of each round any worker ran."""
        rates = []
        for rounds, result in zip(self.batches, self.results):
            correct = [0] * result["rounds"]
            for r, i, _, got in result["records"]:
                correct[r] += got == rounds[r][i].expected
            rates += [c / s for c, s in zip(correct, result["round_s"])]
        return rates

    def info(self) -> dict:
        ran = [
            op
            for rounds, result in zip(self.batches, self.results)
            for r in rounds[: result["rounds"]]
            for op in r
        ]
        return {
            "op_kinds": _count_kinds(ran),
            "warmup_op_kinds": _count_kinds(self.warm),
            "rounds": sum(r["rounds"] for r in self.results),
            "repeated_inputs": self.stream.repeats + self.warm_stream.repeats,
            "inputs_ran_out": any(r["exhausted"] for r in self.results),
        }


def _count_kinds(ops) -> dict:
    """Ops per kind; bands are also counted as reducible or irreducible."""
    kinds: dict = {}
    for op in ops:
        names = [op.kind]
        if op.kind == "band":
            names.append("reducible" if op.expected["reducible"] else "irreducible")
        for name in names:
            kinds[name] = kinds.get(name, 0) + 1
    return kinds


def run_in_process(workload: str, seed: int, seconds: float, workdir: Path):
    bench = InProcess(workload, seed, workdir)
    for _ in range(WORKERS):
        bench.spawn(seconds / WORKERS, 0, trace=False)
    outcomes = bench.outcomes()
    latencies = [lat for lat, _, _ in outcomes]
    correct = sum(ok for _, _, ok in outcomes)
    spec = WORKLOADS[workload]["latency_tail"]
    tail_stats = tail(latencies, spec["percentile"])
    metrics = {
        "setup_s": statistics.median(bench.setups),
        "throughput_ops_s": statistics.median(bench.round_rates()),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_stats["value"] * 1000,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = bench.info()
    witness_kind = WORKLOADS[workload].get("witness_kind")
    if witness_kind:
        witness = [lat for lat, kind, _ in outcomes if kind == witness_kind]
        info["extra"] = {"witness_p50_ms": {"value": statistics.median(witness) * 1000, "unit": "ms"}}
    info["latency_tail"] = {k: v for k, v in tail_stats.items() if k != "value"}
    info["setups_s"] = bench.setups
    return len(outcomes), len(outcomes) - correct, with_units(metrics), info


def trace_in_process(workload: str, seed: int, seconds: float, workdir: Path):
    """Untraced worker for half the time, then a traced one on the same rounds."""
    bench = InProcess(workload, seed, workdir)
    bench.spawn(seconds / 2, 0, trace=False)
    done = bench.results[0]["rounds"]
    bench.spawn(math.inf, done, trace=True, reuse=bench.batches[0][:done])
    untraced, traced = bench.results
    stages, traced_ms, by_caller = tracing.aggregate(traced["spans"])
    outcomes = bench.outcomes()
    failed = sum(not ok for _, _, ok in outcomes)
    layers = layer_metrics(
        stages, traced_ms, [traced["import_ms"]], traced["loop_s"], untraced["loop_s"]
    )
    info = bench.info()
    info["self_ms_by_caller"] = by_caller
    return len(outcomes), failed, layers, info


# --- catalog ---------------------------------------------------------------


def check_catalog(name: str, code: int, stdout: str) -> bool:
    """Exit 0, the pinned summary line and, with --up-to-iso, one canonical
    band per isomorphism class, checked by oracle.py."""
    lines = stdout.strip().splitlines()
    try:
        docs = [json.loads(line) for line in lines]
    except ValueError:
        return False
    if code != 0 or not docs or docs[-1] != CATALOG_SUMMARY[name]:
        return False
    tables = docs[:-1]
    if name != "enum_4_3_iso_s":
        return not tables
    seen = set()
    for doc in tables:
        values = tuple(doc["values"])
        if doc["arity"] != 3 or len(doc["elements"]) != 4 or len(values) != 64:
            return False
        t = np.array(values).reshape((4, 4, 4))
        band = oracle.is_symmetric(t) and oracle.is_idempotent(t)
        if not band or oracle.associativity_witness(t) is not None:
            return False
        if oracle.canonical_values(t) != values or values in seen:
            return False
        seen.add(values)
    return len(seen) == CATALOG_SUMMARY[name]["iso"]


def cli_command(args, spans_path=None):
    """(wall seconds, exit code, stdout) of one CLI run in a fresh interpreter."""
    argv = [sys.executable, str(BENCH / "cli_worker.py")]
    if spans_path is not None:
        argv += ["--trace", str(spans_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv + list(args), stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        finish(proc)
    return time.perf_counter() - start, proc.returncode, stdout


def fresh_import_s() -> float:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import narybands"], env=child_env())
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        finish(proc)
    if proc.returncode != 0:
        raise BenchError("import narybands failed")
    return time.perf_counter() - start


def catalog_cycle(seed: int, spans_dir=None):
    """One pass over the three commands, starting at a seed-chosen one."""
    first = seed % len(CATALOG)
    runs = []
    for name, args in CATALOG[first:] + CATALOG[:first]:
        spans_path = None if spans_dir is None else spans_dir / f"spans-{name}.json"
        wall, code, stdout = cli_command(args, spans_path)
        runs.append((name, wall, check_catalog(name, code, stdout), spans_path))
    return runs


def run_catalog(seed: int, seconds: float):
    setups = [fresh_import_s() for _ in range(IMPORTS)]
    cycles = []
    start = time.perf_counter()
    while True:
        cycles.append(catalog_cycle(seed))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(cycles) > seconds:
            break
    runs = [run for cycle in cycles for run in cycle]
    walls = [wall for _, wall, _, _ in runs]
    correct = sum(ok for _, _, ok, _ in runs)
    rates = [sum(ok for _, _, ok, _ in c) / sum(w for _, w, _, _ in c) for c in cycles]
    # a cycle holds three commands, too few for a percentile with ten
    # samples beyond it: the tail is the median of each cycle's slowest
    slowest = [max(w for _, w, _, _ in c) for c in cycles]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(walls) * 1000,
        "latency_tail_ms": statistics.median(slowest) * 1000,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "op_kinds": {name: len(cycles) for name, _ in CATALOG},
        "cycles": len(cycles),
        "latency_tail": {"statistic": "median of each cycle's slowest command", "samples": len(cycles)},
        "setups_s": setups,
        "extra": {
            name: {"value": statistics.median(w for n, w, _, _ in runs if n == name), "unit": "s"}
            for name, _ in CATALOG
        },
    }
    return len(runs), len(runs) - correct, with_units(metrics), info


def trace_catalog(seed: int, workdir: Path):
    """One untraced cycle, then one traced cycle of the same commands."""
    untraced = catalog_cycle(seed)
    traced = catalog_cycle(seed, spans_dir=workdir)
    spans, imports = [], []
    for _, _, _, path in traced:
        doc = json.loads(path.read_text(encoding="utf-8"))
        # span indices are per process: shift parents into the merged list
        offset = len(spans)
        spans += [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4], s[5]]
                  for s in doc["spans"]]
        imports.append(doc["import_ms"])
    stages, traced_ms, by_caller = tracing.aggregate(spans)
    runs = untraced + traced
    failed = sum(not ok for _, _, ok, _ in runs)
    layers = layer_metrics(
        stages, traced_ms, imports, sum(w for _, w, _, _ in traced), sum(w for _, w, _, _ in untraced)
    )
    return len(runs), failed, layers, {"cycles": 2, "self_ms_by_caller": by_caller}


# --- per-layer metrics -------------------------------------------------------


def per_layer_names() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def layer_metrics(stages, traced_ms, import_ms, traced_wall_s, untraced_wall_s) -> dict:
    """Every per-layer metric named in BENCHMARK.json; idle stages read 0."""
    values = {}
    for stage in tracing.STAGES:
        entry = stages.get(stage, {})
        for key, value in entry.items():
            values[f"{stage}.{key}"] = value
        values.setdefault(f"{stage}.calls", 0)
        values.setdefault(f"{stage}.self_ms", 0.0)
    brute = stages.get("compose.brute", {})
    values["compose.brute.kept_ratio"] = (
        brute.get("kept", 0) / brute["candidates"] if brute.get("candidates") else 0.0
    )
    values["other.self_ms"] = stages.get(tracing.OTHER, {}).get("self_ms", 0.0)
    values["cli.import_ms"] = statistics.median(import_ms)
    values["trace.traced_ms"] = traced_ms
    values["trace.wall_ms"] = traced_wall_s * 1000
    values["trace.untraced_wall_ms"] = untraced_wall_s * 1000
    values["trace.overhead_ms"] = (traced_wall_s - untraced_wall_s) * 1000
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in per_layer_names()}


# --- entry point -------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> dict:
    if not (SRC / "narybands" / "__init__.py").is_file():
        raise BenchError(f"no narybands source under {SRC}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.workload == "catalog":
            outcome = trace_catalog(args.seed, workdir) if args.trace else run_catalog(
                args.seed, args.seconds
            )
        else:
            runner = trace_in_process if args.trace else run_in_process
            outcome = runner(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, metrics, info = outcome
    every = {**metrics, **info.pop("extra", {})}
    every["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp(),
        **info,
        "metrics": every,
    }
    print(json.dumps(record))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
