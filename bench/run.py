"""parley benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each operation does what ``parley run --trace`` does minus file I/O:
``parse_scenario(text)``, ``negotiate(..., trace=Trace())``, then
``transcript.realize()`` and ``trace.to_ndjson()``.  Operations run
back to back over inputs generated from ``--seed`` before timing starts.

``--trace 0`` times the operations untraced and reports the end-to-end
metrics.  Operation, import and reference times are CPU times of the
process (``time.process_time``): the engine does no I/O and runs on one
thread, so this is its wall time less the moments the host gives the CPU
to someone else, which otherwise set the tail.  The CPU speed of a shared
host also drifts, by up to 2x over tens of seconds, so the timed loop runs
in slices of ``SLICE_S`` seconds (at least one operation) with a fixed
stdlib reference routine timed between them.  Each slice's operation and import times are scaled by ``REF_S`` over the
reference's mean time just before and just after the slice: the metrics
read as times at the nominal host speed, at which the reference takes
``REF_S``.  The unscaled figures are printed too.

``--trace 1`` alternates untraced and traced blocks over the same
operations and reports the per-layer metrics from the spans (written to
``.bench_out/spans-<workload>.tsv``).  Both modes check every output: a
digest of the transcript lines, outcome and trace NDJSON must repeat across
passes of the same input, and the first default-seed inputs must reproduce
the digests recorded in ``golden.json``; per-workload shape facts must
hold; the traced pass must reproduce the untraced digests and restore
everything it patched.  A failed check counts as a failed operation.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record-golden`` rewrites ``golden.json`` from the current engine.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = SRC / "parley" / "scenarios"
GOLDEN = BENCH / "golden.json"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
# default-seed inputs per workload whose digests golden.json records
GOLDEN_INPUTS = 500
# operations between two calibrations of the host speed, which changes
# within a second; and how often a fresh interpreter imports parley, so that
# the set-up samples span the run
SLICE_S = 0.2
SETUP_EVERY_S = 1.0
# reference timings per calibration, and the reference's time at nominal speed
CAL_SAMPLES = 3
REF_S = 0.003
# the child prints how long ``import parley`` took, leaving out interpreter
# start-up and process creation
IMPORT_CHILD = "from time import process_time as t; s = t(); import parley; print(t() - s)"
# untraced time per block of the traced run; the traced replay follows it
TRACE_BLOCK_S = 0.5
TAIL_BEYOND = 10

SMITH_README = [
    "U: PROPOSE ¬teaches(smith, ai) ⊣ on_sabbatical(smith, next_year)",
    "S: INFORM ¬on_sabbatical(smith, next_year)",
    "S: INFORM postponed_sabbatical(smith, 1997)",
    "U: ACCEPT ¬on_sabbatical(smith, next_year)",
]


class Checks:
    """Attempted and failed operation counts, with the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(note)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


def operation(parley, text: str):
    """One negotiation, as ``parley run --trace`` performs it."""
    scenario = parley.parse_scenario(text)
    trace = parley.Trace()
    transcript = parley.negotiate(
        {agent.id: agent.kb for agent in scenario.agents},
        scenario.proposer.id,
        scenario.proposal,
        parley.NegotiationConfig(tau=scenario.tau, max_depth=scenario.max_depth),
        trace=trace,
    )
    lines = transcript.realize()
    ndjson = trace.to_ndjson()
    return scenario, transcript, trace, lines, ndjson


def digest(transcript, lines: list[str], ndjson: str) -> str:
    body = "\n".join(lines) + "\x00" + transcript.outcome + "\x00" + ndjson
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def input_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def shape_errors(case: workloads.Case, scenario, transcript, trace) -> list[str]:
    shape = case.shape
    errors = []
    if shape.outcome is not None and transcript.outcome != shape.outcome:
        errors.append(f"outcome {transcript.outcome} != {shape.outcome}")
    if shape.ratified is not None:
        got = transcript.ratified_root
        if got is None or got.render(ascii_not=True) != shape.ratified:
            errors.append(f"ratified {got} != {shape.ratified}")
    if len(scenario.evaluator.kb.own) < shape.min_evaluator_beliefs:
        errors.append(f"evaluator holds {len(scenario.evaluator.kb.own)} beliefs")
    if shape.nodes is not None and spans.tree_size(scenario.proposal) != shape.nodes:
        errors.append(f"proposal has {spans.tree_size(scenario.proposal)} nodes")
    if shape.survivors is not None:
        heuristic = trace.by_kind("heuristic")
        got = heuristic[0].payload["candidates"] if heuristic else None
        if got != shape.survivors:
            errors.append(f"first heuristic record has {got} candidates")
    if shape.minset and not trace.by_kind("minset"):
        errors.append("no minset record")
    return errors


def run_case(parley, case, checks: Checks, expected: dict, index: int):
    """Run and check one case; returns (CPU seconds, digest, outputs), or
    None when it raised."""
    started = process_time()
    try:
        out = operation(parley, case.text)
    except Exception as exc:  # a raising operation is a failed operation
        checks.record(False, f"{case.label}: {type(exc).__name__}: {exc}")
        return None
    elapsed = process_time() - started
    scenario, transcript, trace, lines, ndjson = out
    got = digest(transcript, lines, ndjson)
    errors = shape_errors(case, scenario, transcript, trace)
    first = expected.setdefault(index, got)
    if got != first:
        errors.append("digest differs from an earlier pass over the same input")
    checks.record(not errors, f"{case.label}: {'; '.join(errors)}")
    return elapsed, got, out


def golden_cases(workload: str) -> list[workloads.Case]:
    if workload == "bundled_mix":  # the same first inputs, without drawing the rest
        count = GOLDEN_INPUTS - len(workloads.BUNDLED)
        return workloads.bundled_mix(DEFAULT_SEED, SCENARIOS, count=count)
    return workloads.generate(workload, DEFAULT_SEED, SCENARIOS)[:GOLDEN_INPUTS]


def write_golden(parley) -> None:
    """Record [input digest, output digest] for each workload's first
    default-seed inputs, one entry per line."""
    parts = []
    for workload in workloads.WORKLOADS:
        entries = []
        for case in golden_cases(workload):
            _, transcript, _, lines, ndjson = operation(parley, case.text)
            entries.append(json.dumps([input_digest(case.text), digest(transcript, lines, ndjson)]))
        parts.append(f"{json.dumps(workload)}: [\n" + ",\n".join(entries) + "\n]")
    GOLDEN.write_text("{\n" + ",\n".join(parts) + "\n}\n", encoding="utf-8")


def check_golden(parley, workload: str, checks: Checks) -> None:
    """The first default-seed inputs against their recorded digests, plus
    smith's README transcript."""
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload, [])
    cases = golden_cases(workload)
    checks.record(
        len(recorded) == len(cases), f"golden: {len(recorded)} digests for {len(cases)} inputs"
    )
    for index, (case, entry) in enumerate(zip(cases, recorded)):
        if input_digest(case.text) != entry[0]:
            checks.record(False, f"golden: input {case.label} differs from the recorded one")
            continue
        result = run_case(parley, case, checks, {}, index)
        if result is not None and result[1] != entry[1]:
            checks.fail(f"golden: {case.label} digest differs from the recorded one")

    smith = (SCENARIOS / "smith.scenario").read_text(encoding="utf-8")
    try:
        lines = operation(parley, smith)[3]
    except Exception as exc:
        lines = [f"{type(exc).__name__}: {exc}"]
    checks.record(lines == SMITH_README, "smith transcript differs from the README")


def import_seconds() -> float:
    """How long ``import parley`` takes in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return float(done.stdout)


def reference_work() -> int:
    """Fixed stdlib work with the engine's mix of small tuples, frozensets,
    dict updates, string building and sorting.  It never calls parley, so
    its time follows only the host's speed."""
    counts: dict = {}
    sets = []
    for i in range(3000):
        key = ("p%d" % (i % 97), i % 7)
        counts[key] = counts.get(key, 0) + 1
        sets.append(frozenset((key, i % 5)))
    sets.sort(key=len)
    return len(",".join(str(key) for key in list(counts)[:200])) + len(sets)


def reference_seconds() -> float:
    """Median time of the reference work, with the collector paused so that
    the size of the engine's heap does not change its cost."""
    samples = []
    for _ in range(CAL_SAMPLES):
        gc.disable()
        started = process_time()
        reference_work()
        samples.append(process_time() - started)
        gc.enable()
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    rank.  With ten samples or fewer it is the maximum, and it is never
    below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def sloc() -> dict[str, int]:
    """Non-blank, non-comment lines of each parley module."""
    out = {}
    for path in sorted((SRC / "parley").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        name = path.stem.strip("_")
        out[f"{name}.sloc"] = sum(
            1 for line in lines if line.strip() and not line.lstrip().startswith("#")
        )
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "sloc": sloc(),
    }


def timed_run(parley, cases, seconds: float, checks: Checks) -> dict[str, list[float]]:
    """Operation and import times, raw and scaled to nominal host speed, and
    each slice's speed (``REF_S`` over the reference's time)."""
    expected: dict = {}
    out: dict[str, list[float]] = {
        "ops": [], "ops_scaled": [], "setup": [], "setup_scaled": [], "speed": []
    }
    import_seconds()  # leaves the bytecode cache filled
    gc.collect()
    before = reference_seconds()
    started = perf_counter()
    last_setup = started - SETUP_EVERY_S  # the first slice takes a sample
    i = 0
    while perf_counter() - started < seconds:
        block = []
        block_started = perf_counter()
        while perf_counter() - block_started < SLICE_S:
            index = i % len(cases)
            result = run_case(parley, cases[index], checks, expected, index)
            if result is not None:
                block.append(result[0])
            i += 1
        setup = []
        if perf_counter() - last_setup >= SETUP_EVERY_S:
            setup.append(import_seconds())
            last_setup = perf_counter()
        after = reference_seconds()
        speed = REF_S / ((before + after) / 2)
        before = after
        out["ops"] += block
        out["ops_scaled"] += [elapsed * speed for elapsed in block]
        out["setup"] += setup
        out["setup_scaled"] += [elapsed * speed for elapsed in setup]
        out["speed"].append(speed)
    return out


def traced_run(
    parley, cases, seconds: float, checks: Checks, recorder: spans.Recorder
) -> Counter:
    """Alternate an untraced block with a traced replay of the same
    operations.  Returns totals over the traced operations."""
    expected: dict = {}
    totals: Counter = Counter()
    started = perf_counter()
    i = 0
    while perf_counter() - started < seconds:
        block_started = perf_counter()
        block = []
        while perf_counter() - block_started < TRACE_BLOCK_S:
            index = i % len(cases)
            result = run_case(parley, cases[index], checks, expected, index)
            if result is not None:
                block.append((index, result))
            i += 1
        with spans.instrumented(recorder) as patches:
            for index, (untraced_s, untraced_digest, _) in block:
                before = recorder.nodes
                with recorder.operation():
                    result = run_case(parley, cases[index], checks, expected, index)
                if result is None:
                    continue
                _, traced_digest, (_, transcript, trace, _, ndjson) = result
                totals["ops"] += 1
                totals["untraced_s"] += untraced_s
                totals["traced_s"] += result[0]
                totals["survivors"] += sum(
                    r.payload["candidates"] for r in trace.by_kind("heuristic")
                )
                totals["rounds"] += transcript.rounds
                totals["depth"] += transcript.depth
                totals["records"] += len(trace.records)
                totals["bytes"] += len(ndjson.encode("utf-8"))
                if traced_digest != untraced_digest:
                    checks.fail(f"{cases[index].label}: traced digest differs from untraced")
                nodes = recorder.nodes - before
                expected_nodes = cases[index].shape.nodes
                if expected_nodes is not None and nodes != expected_nodes:
                    checks.fail(
                        f"{cases[index].label}: evaluation.nodes {nodes} != {expected_nodes}"
                    )
        left = spans.unrestored(patches)
        checks.record(not left, f"wrappers left in place: {left}")
    return totals


def end_to_end(samples: list[float], setup: list[float]) -> dict[str, tuple[float, str]]:
    """Throughput is completed operations per second of operation time,
    so the checks between operations do not count against it."""
    tail_s = tail(samples)[0] if samples else 0.0
    return {
        "throughput_nps": (len(samples) / sum(samples) if samples else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(samples) * 1e3 if samples else 0.0, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(args, checks: Checks, metrics: dict, notes: dict) -> None:
    env = environment()
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  python {env['python']}  nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        extra = notes.get(name, "")
        print(f"#   {name:32s} {value:14.6f} {unit:6s} {extra}")
    ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"#   {'failed_ratio':32s} {ratio:14.6f} {'ratio':6s} "
          f"({checks.failed}/{checks.attempted})")
    for note in checks.notes:
        print(f"# FAILED {note}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help=f"rewrite {GOLDEN.name} from the default seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "parley" / "__init__.py").is_file():
        print(f"bench: no parley package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import parley

    if args.record_golden:
        write_golden(parley)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    checks = Checks()
    cases = workloads.generate(args.workload, args.seed, SCENARIOS)
    inputs_rss_mb = peak_rss_mb()
    # Move the inputs out of the collector's reach: a full collection then
    # walks only what the engine holds, as in ``parley run``, and not the
    # benchmark's thousands of pre-generated cases.
    gc.collect()
    gc.freeze()
    check_golden(parley, args.workload, checks)
    if args.workload == "bundled_mix":
        labels = {case.label for case in cases}
        missing = [name for name in workloads.BUNDLED if f"bundled:{name}" not in labels]
        checks.record(not missing, f"bundled files missing: {missing}")

    if args.trace == 0:
        timed = timed_run(parley, cases, args.seconds, checks)
        samples = timed["ops_scaled"]
        metrics = end_to_end(samples, timed["setup_scaled"])
        raw = end_to_end(timed["ops"], timed["setup"])
        rank = tail(samples)[1] if samples else 0.0
        n = f"n={len(samples)}"
        notes = {
            name: f"{n} unscaled {raw[name][0]:.6f}"
            for name in ("throughput_nps", "latency_p50_ms", "latency_tail_ms")
        }
        notes["latency_tail_ms"] += f" p{rank:.1f}"
        notes["setup_s"] = f"median of n={len(timed['setup'])} unscaled {raw['setup_s'][0]:.6f}"
        notes["peak_rss_mb"] = f"n=1, {inputs_rss_mb:.1f} MB once inputs were generated"
        speed = timed["speed"]
        print(f"# host speed over {len(speed)} slices: median {statistics.median(speed):.3f}, "
              f"min {min(speed):.3f}, max {max(speed):.3f} (1 = nominal)")
    else:
        recorder = spans.Recorder()
        totals = traced_run(parley, cases, args.seconds, checks, recorder)
        ops = max(totals["ops"], 1)
        metrics = spans.layer_metrics(recorder, ops, totals["survivors"])
        metrics.update({
            "negotiation.rounds": (totals["rounds"] / ops, "count"),
            "negotiation.depth": (totals["depth"] / ops, "count"),
            "trace.records": (totals["records"] / ops, "count"),
            "trace.bytes": (totals["bytes"] / ops, "B"),
            "bench.trace_overhead_ratio": (
                totals["traced_s"] / totals["untraced_s"] if totals["untraced_s"] else 0.0,
                "ratio",
            ),
        })
        notes = {name: f"over n={totals['ops']} traced operations" for name in metrics}
        metrics.update({name: (float(lines), "lines") for name, lines in sloc().items()})
        OUT.mkdir(exist_ok=True)
        recorder.write_tsv(OUT / f"spans-{args.workload}.tsv")
    report(args, checks, metrics, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
