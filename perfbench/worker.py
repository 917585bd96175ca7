"""One fresh interpreter that runs in-process ops for run.py.

    python3 perfbench/worker.py WORKLOAD WARMUP OPS RESULT BUDGET_S MAX_ROUNDS TRACE

The worker imports narybands, runs the warm-up inputs untimed, prints
"ready <warm-up seconds>" and waits for "go" on stdin while run.py writes
OPS (one JSON list of input texts per line, a round each).  It then runs whole rounds in a
closed loop: a round starts while at least half of one fits in BUDGET_S,
and at most MAX_ROUNDS run (0: no limit).  RESULT gets each op's latency
and a JSON-ready summary of its output, each round's wall time, and with
TRACE=1 the spans.
"""

import json
import os
import sys
import time

T_IMPORT = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
import narybands as nb  # noqa: E402

IMPORT_MS = (time.perf_counter() - T_IMPORT) * 1000

import oracle  # noqa: E402
import tracing  # noqa: E402


def analyze(text):
    """check -> decompose -> validate -> compose -> reduce on one table."""
    t, labels = nb.table_from_json(text)
    found = nb.band_violation(t)
    if found is not None:
        return ("violation", found)
    classification = nb.classify(t, verify=False)
    system = nb.decompose(t, verify=False)
    report = nb.validate_system(system)
    back = nb.compose(system, verify=False)
    system_text = nb.system_to_json(system, labels)
    outcome = nb.decide_reducible(system, verify=False)
    verified = nb.verify_reduction(t, outcome.table) if outcome.reducible else None
    return ("band", t, classification, system, report, back, system_text, outcome, verified)


def analyze_summary(raw) -> dict:
    if raw[0] == "violation":
        law, witness = raw[1]
        if law == "associative":
            return {"violation": law, "args": list(witness.args), "position": witness.position}
        if law == "symmetric":
            return {"violation": law, "args": list(witness.args), "swapped": list(witness.swapped)}
        return {"violation": law, "element": witness}
    _, t, classification, system, report, back, system_text, outcome, verified = raw
    return {
        "classification": classification.value,
        "classes": [list(c) for c in system.partition.classes],
        "validate": len(report),
        "compose": oracle.digest(list(back.values)),
        "json_classes": json.loads(system_text)["classes"],
        "reducible": outcome.reducible,
        "verify": None if verified is None else len(verified),
    }


def reduce_wide(text):
    """parse -> validate -> decide -> result document on one strong system."""
    system, labels = nb.system_from_json(text)
    report = nb.validate_system(system)
    outcome = nb.decide_reducible(system, verify=False)
    return report, outcome, nb.reduction_result_to_doc(outcome, labels)


def reduce_summary(raw) -> dict:
    report, outcome, doc = raw
    return {"validate": len(report), "reducible": outcome.reducible, "result": oracle.digest(doc)}


OPS = {"analyze": (analyze, analyze_summary), "reduce-wide": (reduce_wide, reduce_summary)}


def run_op(op, summary, text, tracer, op_id):
    """(latency seconds, summary); an op that raises reports the error."""
    start = time.perf_counter()
    try:
        raw = tracer.op_span(op_id, op, text) if tracer else op(text)
    except Exception as exc:  # a failed op is counted, the loop goes on
        return time.perf_counter() - start, {"error": repr(exc)}
    latency = time.perf_counter() - start
    return latency, summary(raw)


def main(argv) -> int:
    workload, warm_path, ops_path, result_path = argv[:4]
    budget, max_rounds, trace = float(argv[4]), int(argv[5]), argv[6] == "1"
    op, summary = OPS[workload]
    with open(warm_path, encoding="utf-8") as handle:
        warm = json.load(handle)
    start = time.perf_counter()
    for text in warm:
        summary(op(text))
    print(f"ready {time.perf_counter() - start:.6f}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(nb)
    records = []
    round_s = []
    done = 0
    exhausted = not max_rounds
    loop_start = time.perf_counter()
    with open(ops_path, encoding="utf-8") as handle:
        # one round per line, read as it is reached, so the inputs waiting
        # in the file never count towards the worker's memory
        for r, line in enumerate(handle):
            elapsed = time.perf_counter() - loop_start
            if (max_rounds and r == max_rounds) or (done and elapsed + 0.5 * elapsed / done > budget):
                exhausted = False
                break
            texts = json.loads(line)
            round_start = time.perf_counter()
            for i, text in enumerate(texts):
                latency, result = run_op(op, summary, text, tracer, [r, i])
                records.append([r, i, latency, result])
            round_s.append(time.perf_counter() - round_start)
            done += 1
    loop_s = time.perf_counter() - loop_start
    out = {
        "import_ms": IMPORT_MS,
        "loop_s": loop_s,
        "rounds": done,
        "round_s": round_s,
        "exhausted": exhausted,
        "records": records,
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
