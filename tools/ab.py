"""Compare two parley source trees in one process: first their outputs, then
their speed.

    python3 tools/ab.py BASE_SRC CHANGE_SRC --diff [--workload W ...] [--limit N] [--seed N]
    python3 tools/ab.py BASE_SRC CHANGE_SRC --time --workload W [--workload W ...] --blocks N
        [--aa] [--seed N]

``BASE_SRC`` and ``CHANGE_SRC`` are directories that each hold a ``parley``
package, such as the ``src`` of two checkouts.  Each is loaded under its own
package name, which works because the package imports itself only
relatively.  The inputs are those ``bench/workloads.py`` draws for
``--seed`` (default 0), read-only, so a gain can be checked on a seed other
than the one a change was tuned on; ``--limit N`` takes the first N of each
workload without drawing the rest, as ``bench/run.py`` does for its golden
inputs.  Three more input sets do not depend on ``--seed``.
``disputed_correction`` is ``tests/conftest.py:disputed_correction_scenario``
at seeds 0-999, each rendered once by the checkout's own ``parley`` and fed
to both trees as text: these reach the round in which a disputed correction
is proposed by its corrector, which no workload does.  ``rejected_chain`` is
``tests/conftest.py:rejected_chain_document`` at depths 5-40, each depth
once with the proposer holding nothing and once holding every node: every
node is rejected, so each reaches the focus walk's removal predictions
node by node, which the workloads reach only a few times per input.
``wide_dispute`` is ``bench/workloads.py:search_fanout_case`` at 2-10
disputed children, one input each: only removing every child flips the
proposer, so a minimal-set search run from size 1 tries up to 1,023
subsets, where the search_fanout workload has at most 6 children.

``--diff`` runs every input on both trees with ``bench/run.py``'s
``operation``, as ``parley run --trace`` does, and compares the transcript
lines, outcome, depth, rounds, ratified root, conceder, trace NDJSON and
``render_scenario`` of the two final stores (a refusal is compared by its
message): every field the CLI's JSON prints.  It prints per-workload counts and the first
input that differs, with the part that differs, and exits 1 on any
difference.  Its last line gives each tree's source lines and, for each
module whose count differs, both counts.  It counts as ``bench/run.py``'s
``sloc`` does (non-blank lines not starting with ``#``), with that one-line
rule repeated here, since ``run.sloc`` reads only its own checkout.

``--time`` first checks that the outputs of every named workload are
identical, as ``--diff`` does.  It then times each workload in turn:
``--blocks`` pairs of blocks, each block the same passes over the inputs,
with the tree that runs first alternating from pair to pair.  It prints one
line per workload with the median change/base ratio of CPU time, its
quartiles and in how many pairs the change was faster.  ``--aa`` loads the
base tree a second time in place of the change, which shows the spread of
identical code.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]
import conftest  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from parley import render_scenario  # noqa: E402

SCENARIOS = ROOT / "src" / "parley" / "scenarios"
DISPUTED = "disputed_correction"
REJECTED = "rejected_chain"
WIDE = "wide_dispute"
NAMES = (*workloads.WORKLOADS, DISPUTED, REJECTED, WIDE)
# CPU seconds the base tree should take per block; the passes per block are
# set from one timed pass
BLOCK_S = 0.2


def load(src: Path, name: str):
    """The ``parley`` package under ``src``, imported as ``name``."""
    init = src / "parley" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab: no parley package in {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def inputs(workload: str, seed: int, limit: int | None) -> list:
    if workload == DISPUTED:
        seeds = range(min(limit or 1000, 1000))
        drawn = (conftest.disputed_correction_scenario(random.Random(i)) for i in seeds)
        return [workloads.Case(f"disputed:{i}", render_scenario(s)) for i, s in enumerate(drawn)]
    if workload == REJECTED:
        shapes = [(d, held) for d in range(5, 41) for held in (False, True)][:limit]
        return [
            workloads.Case(
                f"rejected:d{d}{'held' if held else ''}", conftest.rejected_chain_document(d, held)
            )
            for d, held in shapes
        ]
    if workload == WIDE:
        widths = range(2, 11)[:limit]
        return [workloads.search_fanout_case(random.Random(c), children=c) for c in widths]
    if limit is None:
        return workloads.generate(workload, seed, SCENARIOS)
    if workload == "bundled_mix":
        count = max(limit - len(workloads.BUNDLED), 0)
        return workloads.bundled_mix(seed, SCENARIOS, count=count)[:limit]
    return workloads.generate(workload, seed, SCENARIOS)[:limit]


def outputs(parley, text: str) -> dict[str, str]:
    """Every output of one input that the comparison reads, as text."""
    try:
        scenario, transcript, _, lines, ndjson = run.operation(parley, text)
    except Exception as exc:  # a raising input is compared by what it raised
        return {"raised": f"{type(exc).__name__}: {exc}"}
    final = parley.Scenario(
        tuple(
            parley.AgentSpec(agent.id, transcript.final_beliefs[agent.id])
            for agent in scenario.agents
        ),
        scenario.proposal,
        scenario.tau,
        scenario.max_depth,
    )
    try:
        stores = parley.render_scenario(final)
    except parley.ScenarioError as exc:
        stores = f"refused: {exc}"
    root = transcript.ratified_root
    return {
        "transcript": "\n".join(lines),
        "outcome": transcript.outcome,
        "depth": str(transcript.depth),
        "rounds": str(transcript.rounds),
        "ratified": "" if root is None else root.render(),
        "conceded_by": transcript.conceded_by or "",
        "trace": ndjson,
        "stores": stores,
    }


def first_difference(base: dict, change: dict) -> str | None:
    """The first part that differs, with its first differing line on each
    side; None when every part is equal."""
    for part in sorted(base.keys() | change.keys()):
        a, b = base.get(part), change.get(part)
        if a == b:
            continue
        if a is None or b is None:
            return f"{part}: only the {'change' if a is None else 'base'} has it"
        a_lines, b_lines = a.splitlines(), b.splitlines()
        n = next(
            (i for i, pair in enumerate(zip(a_lines, b_lines)) if pair[0] != pair[1]),
            min(len(a_lines), len(b_lines)),
        )
        a_line = a_lines[n] if n < len(a_lines) else "<end>"
        b_line = b_lines[n] if n < len(b_lines) else "<end>"
        return f"{part}, line {n + 1}:\n  base:   {a_line}\n  change: {b_line}"
    return None


def diff(base, change, names: list[str], seed: int, limit: int | None) -> int:
    """Print per-workload counts and the first difference; 1 on any."""
    status = 0
    for workload in names:
        cases = inputs(workload, seed, limit)
        differing = 0
        for index, case in enumerate(cases):
            found = first_difference(outputs(base, case.text), outputs(change, case.text))
            if found is None:
                continue
            if not differing:
                print(f"{workload}: input {index} ({case.label}) differs in {found}")
            differing += 1
        print(f"{workload}: {len(cases)} inputs, {differing} differ")
        status |= differing > 0
    return status


def sloc(src: Path) -> dict[str, int]:
    """Non-blank lines not starting with ``#`` of each module under ``src``."""
    return {
        path.stem.strip("_"): sum(
            1 for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        )
        for path in sorted((src / "parley").glob("*.py"))
    }


def sloc_line(base: Path, change: Path) -> str:
    """``sloc: base N, change M``, then each module whose count differs."""
    a, b = sloc(base), sloc(change)
    moved = ", ".join(
        f"{name} {a.get(name, 0)} -> {b.get(name, 0)}"
        for name in sorted(a.keys() | b.keys())
        if a.get(name) != b.get(name)
    )
    line = f"sloc: base {sum(a.values())}, change {sum(b.values())}"
    return f"{line} ({moved})" if moved else line


def block(parley, texts: list[str], passes: int) -> float:
    """CPU seconds of ``passes`` passes over ``texts``."""
    gc.collect()
    started = process_time()
    for _ in range(passes):
        for text in texts:
            run.operation(parley, text)
    return process_time() - started


def time_pairs(base, change, workload: str, blocks: int, seed: int, limit: int | None) -> None:
    texts = [case.text for case in inputs(workload, seed, limit)]
    block(base, texts, 1)  # warms both trees' caches and bytecode
    block(change, texts, 1)
    passes = max(1, round(BLOCK_S / max(block(base, texts, 1), 1e-9)))
    ratios = []
    for pair in range(blocks):
        if pair % 2:
            changed = block(change, texts, passes)
            based = block(base, texts, passes)
        else:
            based = block(base, texts, passes)
            changed = block(change, texts, passes)
        ratios.append(changed / based)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    faster = sum(r < 1 for r in ratios)
    print(
        f"{workload}: {blocks} pairs of {passes} passes over {len(texts)} inputs, "
        f"median change/base {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
        f"change faster in {faster} of {blocks}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, metavar="BASE_SRC")
    parser.add_argument("change", type=Path, metavar="CHANGE_SRC")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--diff", action="store_true")
    mode.add_argument("--time", action="store_true")
    parser.add_argument("--workload", action="append", choices=NAMES)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    if args.blocks < 2:
        parser.error("--blocks must be at least 2, so that quartiles exist")
    change_src = args.base if args.aa else args.change
    base = load(args.base, "parley_base")
    change = load(change_src, "parley_change")
    if args.diff:
        names = args.workload or list(NAMES)
        status = diff(base, change, names, args.seed, args.limit)
        print(sloc_line(args.base, change_src))
        return status
    if args.workload is None:
        parser.error("--time takes at least one --workload")
    if diff(base, change, args.workload, args.seed, args.limit):
        return 1
    for workload in args.workload:
        time_pairs(base, change, workload, args.blocks, args.seed, args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
