"""The same bytes on every interpreter the package accepts.

Each other ``python3.X`` on ``PATH``, X at least 11, runs the bundled
scenarios through ``python -m parley run FILE --trace PATH`` under two hash
seeds.  Its exit code, stdout, stderr and trace bytes must equal what the
running interpreter's command line gives.  The engine builds some values
without their dataclass's generated ``__init__``, and that code, like
``re``, ``json`` and dict order, belongs to the interpreter.
"""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import parley
from parley import cli

PACKAGE = Path(parley.__file__).resolve().parent
SCENARIOS = sorted((PACKAGE / "scenarios").glob("*.scenario"))


def other_interpreters() -> list[str]:
    """The name of each ``python3.X`` on ``PATH`` with X at least 11, but
    not the running interpreter's minor version, in version order."""
    found = set()
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        with contextlib.suppress(OSError):
            for entry in os.listdir(directory or "."):
                m = re.fullmatch(r"python3\.(\d+)", entry)
                if m and int(m[1]) >= 11 and int(m[1]) != sys.version_info.minor:
                    found.add(int(m[1]))
    return [f"python3.{minor}" for minor in sorted(found)]


def run_here(scenario: Path, trace: Path) -> tuple:
    """Exit code, stdout, stderr and trace bytes of the running
    interpreter's command line on ``scenario``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(scenario), "--trace", str(trace)])
    return code, out.getvalue().encode(), err.getvalue().encode(), trace.read_bytes()


def test_every_bundled_scenario_is_run():
    assert [path.stem for path in SCENARIOS] == [
        "both", "evidence", "nest", "smith", "tie", "visit"
    ]


@pytest.mark.parametrize("name", other_interpreters() or [None])
def test_bundled_outputs_are_the_same_on_every_interpreter(name, tmp_path):
    if name is None:
        pytest.skip("no other python3.X with X >= 11 on PATH")
    launcher = shutil.which(name)
    if launcher is None:
        pytest.skip(f"{name} is on PATH but not executable")
    # the interpreter itself, not a launcher that finds it on every run
    probe = subprocess.run(
        [launcher, "-c", "import sys; print(sys.executable)"],
        capture_output=True, text=True, timeout=30,
    )
    if probe.returncode != 0 or not probe.stdout.strip():
        reason = (probe.stderr or probe.stdout).strip().splitlines()[:1]
        pytest.skip(f"{name} does not start: {reason}")
    executable = probe.stdout.strip()
    expected = {path: run_here(path, tmp_path / f"{path.stem}.ndjson") for path in SCENARIOS}
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONIOENCODING="utf-8")
    for seed in ("0", "1"):
        for path in SCENARIOS:
            trace = tmp_path / f"{path.stem}-{seed}.ndjson"
            result = subprocess.run(
                [executable, "-m", "parley", "run", str(path), "--trace", str(trace)],
                capture_output=True, env=dict(env, PYTHONHASHSEED=seed), timeout=60,
            )
            found = (result.returncode, result.stdout, result.stderr, trace.read_bytes())
            assert found == expected[path], (name, seed, path.name)
