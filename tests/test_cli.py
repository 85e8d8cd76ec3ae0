import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parley import cli
from parley.trace import TRACE_KINDS

from conftest import flat_chain

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "parley" / "scenarios"

SMITH_LINES = [
    "U: PROPOSE ¬teaches(smith, ai) ⊣ on_sabbatical(smith, next_year)",
    "S: INFORM ¬on_sabbatical(smith, next_year)",
    "S: INFORM postponed_sabbatical(smith, 1997)",
    "U: ACCEPT ¬on_sabbatical(smith, next_year)",
]


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "parley", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, **(env_extra or {})),
    )


def scenario(name: str) -> str:
    return str(SCENARIO_DIR / f"{name}.scenario")


def test_text_output_is_the_dialogue():
    result = run_cli("run", scenario("smith"))
    assert result.returncode == 0
    assert result.stdout.splitlines() == SMITH_LINES
    assert result.stderr == ""


def test_json_output_fields():
    result = run_cli("run", scenario("smith"), "--format", "json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["acts"] == SMITH_LINES
    assert doc["outcome"] == "agreement"
    assert doc["ratifiedRoot"] == "teaches(smith, ai)"
    assert (doc["depth"], doc["rounds"], doc["concededBy"]) == (1, 2, None)


def test_unresolved_exit_code():
    result = run_cli("run", scenario("tie"))
    assert result.returncode == 2
    assert result.stdout.splitlines()[-1] == "S: INFOSHARE relocate(hq)"


def test_trace_file_is_well_formed_ndjson(tmp_path):
    out = tmp_path / "trace.ndjson"
    result = run_cli("run", scenario("smith"), "--trace", str(out))
    assert result.returncode == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["step"] for r in records] == list(range(len(records)))
    assert all(r["kind"] in TRACE_KINDS for r in records)
    assert records[0]["kind"] == "act"
    assert records[0]["payload"]["act"] == "propose"


@pytest.mark.parametrize("value", ["9", "lots"])
def test_environment_does_not_change_the_dialogue(value):
    # the threshold comes from the file or --tau only
    result = run_cli("run", scenario("smith"), env_extra={"PARLEY_TAU": value})
    assert result.returncode == 0
    assert result.stdout.splitlines() == SMITH_LINES


def test_max_depth_flag():
    result = run_cli("run", scenario("nest"), "--max-depth", "1")
    assert result.returncode == 1
    assert "nesting" in result.stderr


def test_missing_file():
    result = run_cli("run", "no-such.scenario")
    assert result.returncode == 1
    assert "no-such.scenario" in result.stderr
    assert result.stdout == ""


def test_malformed_scenario_diagnostic(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text('{"v": 1, "agents": [], "proposal": {}}')
    result = run_cli("run", str(bad))
    assert result.returncode == 1
    assert "$.agents" in result.stderr


def test_deeply_nested_scenario_diagnostic(tmp_path):
    # built by concatenation: json.dumps itself recurses at this depth
    depth = 1200
    proposal = (
        "".join(
            f'{{"prop": "p{i}", "assertedLevel": "strong", "children": [' for i in range(depth)
        )
        + '{"prop": "q", "assertedLevel": "strong"}'
        + "]}" * depth
    )
    agents = (
        '[{"id": "U", "expertise": "expert", "beliefs": []}, '
        '{"id": "S", "expertise": "expert", "beliefs": []}]'
    )
    deep = tmp_path / "deep.scenario"
    deep.write_text(f'{{"v": 1, "agents": {agents}, "proposal": {proposal}}}')
    result = run_cli("run", str(deep))
    assert result.returncode == 1
    assert result.stderr.startswith("parley:")
    assert "$: document nested too deeply" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("flag", ["--tau", "--max-depth"])
def test_nonpositive_knobs_rejected(flag):
    result = run_cli("run", scenario("smith"), flag, "0")
    assert result.returncode == 1
    assert "at least 1" in result.stderr


@pytest.mark.parametrize(
    "args",
    [("run", scenario("smith"), "--bogus"), ("run", scenario("smith"), "--tau", "x"), ()],
    ids=["unknown-flag", "bad-flag-value", "no-subcommand"],
)
def test_usage_errors_exit_1(args):
    # exit code 2 is reserved for a stalled dialogue
    result = run_cli(*args)
    assert result.returncode == 1
    assert "usage:" in result.stderr
    assert "Traceback" not in result.stderr


def test_help_exits_0():
    result = run_cli("run", "--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage:")


def test_non_utf8_scenario_diagnostic(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_bytes(b"\xff\xfe{}")
    result = run_cli("run", str(bad))
    assert result.returncode == 1
    assert result.stderr.startswith(f"parley: {bad}: ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


def test_deeply_nested_proposition_diagnostic(tmp_path):
    prop = "p"
    for _ in range(500):
        prop = f"supports({prop}, q)"
    doc = {
        "v": 1,
        "agents": [
            {
                "id": "U",
                "expertise": "expert",
                "beliefs": [{"prop": prop, "level": "strong", "source": "kb-record"}],
            },
            {"id": "S", "expertise": "expert", "beliefs": []},
        ],
        "proposal": {"prop": "q", "assertedLevel": "strong"},
    }
    deep = tmp_path / "deep.scenario"
    deep.write_text(json.dumps(doc))
    result = run_cli("run", str(deep))
    assert result.returncode == 1
    assert result.stderr.startswith(f"parley: {deep}: $.agents[0].beliefs[0].prop: ")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("n", [500, 2000])
def test_long_flat_justification_chain(tmp_path, n):
    # at n=2,000 the chain is longer than one self-call per link could reach
    # under Python's recursion limit
    path = tmp_path / "flat.scenario"
    path.write_text(json.dumps(flat_chain(n)))
    result = run_cli("run", str(path))
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2 * n + 3
    assert lines[1] == "S: INFORM ¬s0"
    assert lines[-2:] == [f"S: INFORM supports(¬s{n}, ¬s{n - 1})", "U: ACCEPT ¬s0"]


def test_recursion_in_negotiation_is_a_diagnostic(monkeypatch, capsys):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "negotiate", too_deep)
    assert cli.main(["run", scenario("smith")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parley: {scenario('smith')}: too deep to negotiate: "
        "maximum recursion depth exceeded\n"
    )
