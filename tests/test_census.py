"""The line census of the engine, ``tools/census.py``."""

import ast
import importlib.util
import sys
import time
from pathlib import Path

from parley import negotiation

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
    # every negotiation runs ``negotiate``'s first statement after its docstring
    source = Path(negotiation.__file__).read_text(encoding="utf-8")
    (fn,) = (
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "negotiate"
    )
    first = fn.body[1].lineno
    listed = [line.split(": ")[1].split() for line in modules if "negotiation.py:" in line]
    assert str(first) not in [n for lines in listed for n in lines]
