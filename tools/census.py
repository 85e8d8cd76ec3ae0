"""List the engine's function-body statements that no input of a corpus
reaches.

    python3 tools/census.py [--corpus NAME ...]

The corpora, all run by default in this order:

- ``bundled``: the six bundled scenarios;
- ``bench``: the seed-0 inputs of the four benchmark workloads, as
  ``tools/ab.py`` draws them;
- ``random``: ``tests/conftest.py:random_scenario`` at seeds 0-999;
- ``disputed``: ``tests/conftest.py:disputed_correction_scenario`` at seeds
  0-999.

Each input is drawn as scenario text first, written to a temporary file and
run in-process as ``parley run FILE --trace PATH`` through
``parley.cli.main``, its output captured, under ``sys.settrace``; an input
the engine refuses still counts what it reached.  The engine is every
``parley`` module but ``__main__``, which only calls ``main``.  A statement
owns the lines it spans less those of the statements nested in it, so the
lines of a multi-line condition count as one statement, and it is reached
when any line it owns runs.  A statement that owns no bytecode, such as a
docstring, is not counted.

For each corpus the output is one header line, then one line per module with
the first line of each statement no input reached, in line order.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

import ab
import parley
import parley.cli

# the files the imported package runs from, so that code objects name them
PACKAGE = Path(parley.__file__).parent
NOT_ENGINE = ("__main__.py",)
SEEDS = range(1000)


def statements(path: Path) -> dict[int, frozenset[int]]:
    """The first line of each function-body statement in ``path`` that owns
    bytecode, with the lines it owns that carry bytecode."""
    source = path.read_text(encoding="utf-8")
    executable = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        executable.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    out: dict[int, frozenset[int]] = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(fn):
            if not isinstance(stmt, ast.stmt) or stmt is fn:
                continue
            owned = set(range(stmt.lineno, stmt.end_lineno + 1)) & executable
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.stmt) and inner is not stmt:
                    owned -= set(range(inner.lineno, inner.end_lineno + 1))
            if owned:
                out[stmt.lineno] = out.get(stmt.lineno, frozenset()) | owned
    return out


def reached_lines(texts: list[str], counted: dict[str, set[int]]) -> set[tuple[str, int]]:
    """Each ``(file, line)`` that a line event reached while ``texts`` were
    run, of the lines ``counted`` lists by file path."""
    reached: set[tuple[str, int]] = set()
    # the counted lines of each code object that no line event has reached;
    # a code object with none left runs untraced, which keeps a large
    # corpus fast
    left: dict = {}

    def on_line(frame, event, arg):
        if event == "line":
            left[frame.f_code].discard(frame.f_lineno)
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        lines = left.get(code)
        if lines is None:
            own = {line for _, _, line in code.co_lines()}
            lines = left[code] = own & counted.get(code.co_filename, set())
        return on_line if lines else None

    with tempfile.TemporaryDirectory() as tmp:
        path, trace = Path(tmp, "input.scenario"), Path(tmp, "trace.ndjson")
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            for text in texts:
                path.write_text(text, encoding="utf-8")
                # a refused input exits 1 with a diagnostic, having reached
                # what it reached
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    parley.cli.main(["run", str(path), "--trace", str(trace)])
        finally:
            sys.settrace(previous)
    return reached


def rendered(draw) -> list[str]:
    return [parley.render_scenario(draw(random.Random(seed))) for seed in SEEDS]


CORPORA = {
    "bundled": lambda: [
        path.read_text(encoding="utf-8")
        for path in sorted((PACKAGE / "scenarios").glob("*.scenario"))
    ],
    "bench": lambda: [
        case.text for workload in ab.workloads.WORKLOADS for case in ab.inputs(workload, 0, None)
    ],
    "random": lambda: rendered(ab.conftest.random_scenario),
    "disputed": lambda: rendered(ab.conftest.disputed_correction_scenario),
}


def census(name: str) -> list[str]:
    """The report of corpus ``name``: a header, then each module's unreached
    statements by first line."""
    texts = CORPORA[name]()
    modules = {
        path.name: statements(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in NOT_ENGINE
    }
    counted = {
        str(PACKAGE / module): set().union(*owned.values()) for module, owned in modules.items()
    }
    reached = reached_lines(texts, counted)
    report = []
    missed_total = total = 0
    for module, owned in modules.items():
        path = str(PACKAGE / module)
        missed = [
            first for first, lines in sorted(owned.items())
            if not any((path, line) in reached for line in lines)
        ]
        total += len(owned)
        missed_total += len(missed)
        if missed:
            report.append(f"  {module}: {' '.join(map(str, missed))}")
    header = f"{name}: {len(texts)} inputs, {missed_total} of {total} statements unreached"
    return [header, *report]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", action="append", choices=list(CORPORA))
    args = parser.parse_args(argv)
    for name in args.corpus or CORPORA:
        print("\n".join(census(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
