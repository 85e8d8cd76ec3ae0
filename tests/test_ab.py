"""The in-process comparator of two source trees, ``tools/ab.py``."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import parley

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def ab(monkeypatch):
    """The comparator, loaded in-process."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ab_diff(base: Path, change: Path, limit=20, seed=0) -> subprocess.CompletedProcess:
    command = [sys.executable, str(ROOT / "tools" / "ab.py"), str(base), str(change), "--diff"]
    return subprocess.run(
        [*command, "--limit", str(limit), "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_ab_diff_passes_a_tree_against_itself_and_names_a_renamed_trace_key(tmp_path, ab):
    # the source lines are counted by the benchmark's rule
    counts = ab.run.sloc()
    total, in_beliefs = sum(counts.values()), counts["beliefs.sloc"]
    src = ROOT / "src"
    same = ab_diff(src, src)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.splitlines() == [
        "bundled_mix: 20 inputs, 0 differ",
        "wide_store: 5 inputs, 0 differ",
        "deep_chain: 5 inputs, 0 differ",
        "search_fanout: 5 inputs, 0 differ",
        "disputed_correction: 20 inputs, 0 differ",
        "rejected_chain: 20 inputs, 0 differ",
        "wide_dispute: 9 inputs, 0 differ",
        f"sloc: base {total}, change {total}",
    ]

    shutil.copytree(src / "parley", tmp_path / "parley", ignore=shutil.ignore_patterns("*.pyc"))
    beliefs = tmp_path / "parley" / "beliefs.py"
    text = beliefs.read_text(encoding="utf-8")
    assert text.count('"supportScore"') == 1
    text = text.replace('"supportScore"', '"supportScores"') + "\n# unread\nUNREAD = 0\n"
    beliefs.write_text(text, encoding="utf-8")
    renamed = ab_diff(src, tmp_path)
    assert renamed.returncode == 1, renamed.stdout + renamed.stderr
    first, *_, last = renamed.stdout.splitlines()
    assert first.startswith("bundled_mix: input 0 (bundled:both) differs in trace, line 2:")
    assert "bundled_mix: 20 inputs, 20 differ" in renamed.stdout
    assert last == (
        f"sloc: base {total}, change {total + 1} (beliefs {in_beliefs} -> {in_beliefs + 1})"
    )


def test_ab_seed_draws_other_inputs_and_a_tree_still_matches_itself(ab):
    src = ROOT / "src"
    same = ab_diff(src, src, limit=5, seed=1)
    assert same.returncode == 0, same.stdout + same.stderr
    total = sum(ab.sloc(src).values())
    assert same.stdout.splitlines() == [
        "bundled_mix: 5 inputs, 0 differ",
        "wide_store: 5 inputs, 0 differ",
        "deep_chain: 5 inputs, 0 differ",
        "search_fanout: 5 inputs, 0 differ",
        "disputed_correction: 5 inputs, 0 differ",
        "rejected_chain: 5 inputs, 0 differ",
        "wide_dispute: 5 inputs, 0 differ",
        f"sloc: base {total}, change {total}",
    ]
    # the comparator's own draw: the bundled files lead bundled_mix at every
    # seed, and every drawn input after them differs; the disputed
    # corrections, the rejected chains and the wide disputes are the same
    # whatever the seed
    for workload, limit, kept in [
        ("bundled_mix", 10, 6), ("wide_store", 5, 0), ("deep_chain", 5, 0), ("search_fanout", 5, 0),
        ("disputed_correction", 5, 5), ("rejected_chain", 5, 5), ("wide_dispute", 5, 5),
    ]:
        seed0, seed1 = ([case.text for case in ab.inputs(workload, seed, limit)] for seed in (0, 1))
        assert len(seed0) == len(seed1) == limit
        assert [a == b for a, b in zip(seed0, seed1)] == [True] * kept + [False] * (limit - kept)


def test_ab_rejected_chains_predict_every_node_with_a_removal(ab):
    # both shapes at every depth, and a removal predicted at each internal
    # node of a rejected chain: d - 1 of them when the proposer holds
    # nothing, and more over the rounds of a held chain.  The workloads
    # reach such a prediction only a few times per input.
    cases = ab.inputs("rejected_chain", 0, None)
    assert len(cases) == 72
    assert [case.label for case in cases[:3]] == ["rejected:d5", "rejected:d5held", "rejected:d6"]
    assert cases[-1].label == "rejected:d40held"
    predicted = []
    for case in cases[:2]:
        records = map(json.loads, ab.outputs(parley, case.text)["trace"].splitlines())
        predicted.append(sum(r["kind"] == "predict" and r["payload"]["removed"] != [] for r in records))
    assert predicted == [4, 10]


def test_ab_wide_disputes_run_two_to_ten_children(ab):
    # one input per width, whatever the seed: a search from size 1 over
    # the widest tries 2^10 - 1 subsets
    cases = ab.inputs("wide_dispute", 0, None)
    assert [case.label for case in cases] == [f"search_fanout:k10c{c}" for c in range(2, 11)]


def test_ab_time_checks_every_workload_once_then_times_each(ab, capsys, monkeypatch):
    # one output check over all the named workloads, then one result line
    # per workload, in the order given; the timing itself is stubbed
    # the two trees are loaded under these names; they leave with the test
    for name in ("parley_base", "parley_change"):
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(
        ab, "time_pairs", lambda base, change, workload, *rest: print(f"{workload}: timed")
    )
    src = str(ROOT / "src")
    names = ["deep_chain", "search_fanout", "wide_dispute"]
    argv = [src, src, "--time", "--aa", "--limit", "1", "--blocks", "2"]
    assert ab.main(argv + [arg for name in names for arg in ("--workload", name)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        *(f"{name}: 1 inputs, 0 differ" for name in names),
        *(f"{name}: timed" for name in names),
    ]
