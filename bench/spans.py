"""Span recording around parley's public functions, from outside the package.

``instrumented`` swaps each target for a wrapper in every parley module
that holds it (and on the class, for methods), and puts the originals back
on exit.  Each wrapped call becomes a span: name, parent span, operation
id, start and end.  Spans live in flat arrays until the run ends; the
per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# (module, class or None, attribute, span name)
TARGETS = (
    ("parley.scenario", None, "parse_scenario", "scenario.parse"),
    ("parley.beliefs", "KnowledgeBase", "own_add", "beliefs.kb_write"),
    ("parley.beliefs", "KnowledgeBase", "own_remove", "beliefs.kb_write"),
    ("parley.beliefs", "KnowledgeBase", "model_add", "beliefs.kb_write"),
    ("parley.beliefs", "KnowledgeBase", "model_remove", "beliefs.kb_write"),
    ("parley.beliefs", None, "build_evidence_set", "beliefs.evidence"),
    ("parley.beliefs", None, "revise", "beliefs.revise"),
    ("parley.beliefs", None, "revise_detail", "beliefs.revise"),
    ("parley.beliefs", None, "assimilate", "beliefs.assimilate"),
    ("parley.evaluation", None, "record_proposal", "evaluation.record"),
    ("parley.evaluation", None, "evaluate_proposal", "evaluation.evaluate"),
    ("parley.evaluation", None, "assimilate_evaluated", "evaluation.assimilate"),
    ("parley.focus", None, "select_focus_modification", "focus.select"),
    ("parley.focus", None, "predict", "focus.predict"),
    ("parley.focus", None, "select_min_set", "focus.minset"),
    ("parley.justification", None, "build_justification_chains", "justification.build"),
    ("parley.justification", None, "select_justification", "justification.select"),
    ("parley.negotiation", None, "negotiate", "negotiation.negotiate"),
    ("parley.trace", "Trace", "to_ndjson", "trace.serialize"),
)
ROOT_SPAN = "bench.op"


def tree_size(tree) -> int:
    return 1 + sum(tree_size(child) for child in tree.children)


class Recorder:
    """Flat, append-only span store.

    Span ids are assigned in start order, so a parent always precedes its
    children; ``self_times`` relies on that.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        # proposal nodes passed to evaluate_proposal (evaluation.nodes)
        self.nodes = 0
        self.op_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self) -> Iterator[int]:
        """The root span of one benchmark operation."""
        self.op_id += 1
        span = self.open(self.name_id(ROOT_SPAN))
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def count_nodes(self, evaluate: Callable) -> Callable:
        @functools.wraps(evaluate)
        def wrapper(kb, tree, *args, **kwargs):
            self.nodes += tree_size(tree)
            return evaluate(kb, tree, *args, **kwargs)

        return wrapper

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self)):
                out.write(
                    f"{i}\t{self.op[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )


def self_times(parent, start, end) -> array:
    """Each span's duration minus the part of it that its children cover.

    Spans must be listed in start order.  Children are clipped to their
    parent's interval and overlapping children are counted once.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def _parley_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "parley" or name.startswith("parley.")
    ]


def install(recorder: Recorder, targets=TARGETS) -> list[tuple]:
    """Replace every target by a recording wrapper.

    A function is replaced under every name that refers to it in any
    loaded parley module, so calls between modules are seen too.  Returns
    the (owner, attribute, original) patches for ``restore``.
    """
    for module_name, _, _, _ in targets:
        importlib.import_module(module_name)
    modules = _parley_modules()
    patches: list[tuple] = []
    for module_name, cls, attr, name in targets:
        owner = sys.modules[module_name]
        if cls is not None:
            owner = getattr(owner, cls)
            original = vars(owner)[attr]
            setattr(owner, attr, recorder.wrap(name, original))
            patches.append((owner, attr, original))
            continue
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original)
        if attr == "evaluate_proposal":
            wrapper = recorder.count_nodes(wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patches.append((module, key, original))
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def unrestored(patches: list[tuple]) -> list[str]:
    """Patched names that no longer hold their original object."""
    return [
        f"{owner.__name__}.{attr}"
        for owner, attr, original in patches
        if vars(owner).get(attr) is not original
    ]


@contextmanager
def instrumented(recorder: Recorder) -> Iterator[list[tuple]]:
    patches = install(recorder)
    try:
        yield patches
    finally:
        restore(patches)


def layer_metrics(recorder: Recorder, ops: int, survivors: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged per operation unless they are ratios.

    A call that nests directly inside a span of its own layer (``revise``
    inside ``revise_detail``, recursive chain building) is not counted
    again.  ``survivors`` is the total of the ``heuristic`` records'
    ``candidates`` over the traced operations.
    """
    names = recorder.names
    self_s = self_times(recorder.parent, recorder.start, recorder.end)
    total: Counter = Counter()
    calls: Counter = Counter()
    under: Counter = Counter()
    for i in range(len(recorder)):
        name = names[recorder.name[i]]
        total[name] += self_s[i]
        p = recorder.parent[i]
        parent = names[recorder.name[p]] if p >= 0 else None
        if parent != name:
            calls[name] += 1
            under[(name, parent)] += 1

    per_op = max(ops, 1)

    def ms(name: str) -> tuple[float, str]:
        return (total[name] * 1e3 / per_op, "ms")

    def count(value: float) -> tuple[float, str]:
        return (value / per_op, "count")

    def ratio(part: float, whole: float) -> tuple[float, str]:
        return (part / whole if whole else 0.0, "ratio")

    subsets = under[("beliefs.revise", "justification.select")]
    return {
        "scenario.parse_ms": ms("scenario.parse"),
        "beliefs.kb_writes": count(calls["beliefs.kb_write"]),
        "beliefs.kb_write_ms": ms("beliefs.kb_write"),
        "beliefs.evidence_calls": count(calls["beliefs.evidence"]),
        "beliefs.evidence_ms": ms("beliefs.evidence"),
        "beliefs.revise_calls": count(calls["beliefs.revise"]),
        "beliefs.revise_ms": ms("beliefs.revise"),
        "beliefs.assimilate_ms": ms("beliefs.assimilate"),
        "evaluation.record_ms": ms("evaluation.record"),
        "evaluation.evaluate_ms": ms("evaluation.evaluate"),
        "evaluation.assimilate_ms": ms("evaluation.assimilate"),
        "evaluation.nodes": count(recorder.nodes),
        "focus.select_ms": ms("focus.select"),
        "focus.predict_calls": count(calls["focus.predict"]),
        "focus.predict_ms": ms("focus.predict"),
        "focus.minset_ms": ms("focus.minset"),
        "focus.minset_ratio": ratio(
            calls["focus.minset"], under[("focus.predict", "focus.minset")]
        ),
        "justification.build_ms": ms("justification.build"),
        "justification.select_ms": ms("justification.select"),
        "justification.subsets_tried": count(subsets),
        "justification.survivor_ratio": ratio(survivors, subsets),
        "negotiation.self_ms": ms("negotiation.negotiate"),
        "trace.serialize_ms": ms("trace.serialize"),
    }
