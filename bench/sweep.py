"""Scaling sweep over the heavy workloads' size knobs (not gated).

    python3 bench/sweep.py [--seed N]

For each store size N (``wide_store``), justification fan-out k
(``search_fanout``) and proposal depth d (``deep_chain``) it times REPEAT
untraced operations (process CPU time, unscaled) and reports their median,
then runs one traced operation for the work counts.  Prints one JSON line
per size.

Left out for run time, not hidden: k >= 14 (8.7 s at k=14, 37 s at k=16)
and d around 1200, where ``negotiate`` raises ``RecursionError``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys

import run
import spans
import workloads

FAMILIES = {
    "wide_store": ("n", (500, 1000, 1500, 2000, 3000), workloads.wide_store_case),
    "search_fanout": ("k", (6, 8, 10, 12), workloads.search_fanout_case),
    "deep_chain": ("d", (25, 50, 100, 150), workloads.deep_chain_case),
}
COUNTS = (
    "beliefs.kb_writes",
    "beliefs.evidence_calls",
    "beliefs.revise_calls",
    "focus.predict_calls",
    "justification.subsets_tried",
    "evaluation.nodes",
)
REPEAT = 3


def measure(parley, case) -> dict:
    checks = run.Checks()
    expected: dict = {}
    samples = []
    for _ in range(REPEAT):
        result = run.run_case(parley, case, checks, expected, 0)
        if result is not None:
            samples.append(result[0])
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        with recorder.operation():
            result = run.run_case(parley, case, checks, expected, 0)
    survivors = 0
    if result is not None:
        survivors = sum(r.payload["candidates"] for r in result[2][2].by_kind("heuristic"))
    layers = spans.layer_metrics(recorder, 1, survivors)
    return {
        "median_ms": statistics.median(samples) * 1e3 if samples else None,
        "samples": len(samples),
        "failed": checks.failed,
        "counts": {name: layers[name][0] for name in COUNTS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    if not (run.SRC / "parley" / "__init__.py").is_file():
        print(f"sweep: no parley package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import parley

    env = run.environment()
    print(json.dumps({"environment": env, "seed": args.seed, "repeat": REPEAT}))
    failed = 0
    for workload, (knob, sizes, make) in FAMILIES.items():
        for size in sizes:
            case = make(random.Random(f"{workload}:{args.seed}"), size)
            row = measure(parley, case)
            failed += row["failed"]
            print(json.dumps({"workload": workload, knob: size, **row}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
