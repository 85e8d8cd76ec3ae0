"""The in-process comparator of two source trees, ``tools/ab.py``."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def ab_diff(base: Path, change: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, str(ROOT / "tools" / "ab.py"), str(base), str(change)]
    return subprocess.run(
        [*command, "--diff", "--limit", "20"], capture_output=True, text=True, timeout=60
    )


def test_ab_diff_passes_a_tree_against_itself_and_names_a_renamed_trace_key(tmp_path):
    src = ROOT / "src"
    same = ab_diff(src, src)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.splitlines() == [
        "bundled_mix: 20 inputs, 0 differ",
        "wide_store: 5 inputs, 0 differ",
        "deep_chain: 5 inputs, 0 differ",
        "search_fanout: 5 inputs, 0 differ",
    ]

    shutil.copytree(src / "parley", tmp_path / "parley", ignore=shutil.ignore_patterns("*.pyc"))
    beliefs = tmp_path / "parley" / "beliefs.py"
    text = beliefs.read_text(encoding="utf-8")
    assert text.count('"supportScore"') == 1
    beliefs.write_text(text.replace('"supportScore"', '"supportScores"'), encoding="utf-8")
    renamed = ab_diff(src, tmp_path)
    assert renamed.returncode == 1, renamed.stdout + renamed.stderr
    first = renamed.stdout.splitlines()[0]
    assert first.startswith("bundled_mix: input 0 (bundled:both) differs in trace, line 2:")
    assert "bundled_mix: 20 inputs, 20 differ" in renamed.stdout
