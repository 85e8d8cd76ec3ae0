"""The line census of the engine, ``tools/census.py``."""

import ast
import importlib.util
import sys
import time
from pathlib import Path

from parley import cli, negotiation

ROOT = Path(__file__).resolve().parents[1]


def test_bundled_census_is_repeatable_and_counts_what_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    outputs = []
    for _ in range(2):
        start = time.process_time()
        assert census.main(["--corpus", "bundled"]) == 0
        assert time.process_time() - start < 1.0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    header, *modules = outputs[0].splitlines()
    assert header.startswith("bundled: 6 inputs, ")
    listed = {line.split(": ")[0].strip(): line.split(": ")[1].split() for line in modules}
    # every input runs through the CLI, so ``cli.py`` is counted and its
    # failure paths are listed; every run reaches the first statement after
    # the docstring of ``negotiate``, and the first of the CLI's ``_run``
    assert "cli.py" in listed
    for module, name, after in ((negotiation, "negotiate", 1), (cli, "_run", 0)):
        source = Path(module.__file__).read_text(encoding="utf-8")
        (fn,) = (
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == name
        )
        first = fn.body[after].lineno
        assert str(first) not in listed.get(Path(module.__file__).name, [])
