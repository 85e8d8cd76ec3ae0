"""The trace writer's bytes: each record's line is what ``json.dumps``
writes for it, with sorted keys and without ASCII escapes."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from parley.trace import TRACE_KINDS, Trace

from conftest import load_bundled, random_scenario, run_scenario

BUNDLED = ("both", "evidence", "nest", "smith", "tie", "visit")


def dumped(trace: Trace) -> list[str]:
    """Each record as ``json.dumps`` writes it."""
    return [
        json.dumps(
            {"step": r.step, "kind": r.kind, "payload": r.payload},
            sort_keys=True,
            ensure_ascii=False,
        )
        for r in trace.records
    ]


def assert_written_as_dumped(trace: Trace) -> None:
    written = trace.to_ndjson()
    assert written.endswith("\n") or not trace.records
    assert written.split("\n")[:-1] == dumped(trace)


def test_every_record_of_the_corpora_is_written_as_json_dumps():
    scenarios = [load_bundled(name) for name in BUNDLED]
    scenarios += [random_scenario(random.Random(seed)) for seed in range(300)]
    kinds = set()
    for scenario in scenarios:
        trace = Trace()
        run_scenario(scenario, trace)
        assert_written_as_dumped(trace)
        kinds |= {r.kind for r in trace.records}
    assert kinds == set(TRACE_KINDS)


# text a JSON writer escapes, or must not: quotes, backslashes, control
# characters, non-ASCII letters and the line separators JSON leaves raw,
# which is why the lines are split at "\n" only
TRICKY = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "¬", "é", "€", "\u2028", "😀"]
)
TEXTS = st.text(alphabet=st.one_of(st.characters(), TRICKY), max_size=12)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), TEXTS)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
PAYLOADS = st.dictionaries(TEXTS, VALUES, max_size=4)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(TRACE_KINDS), PAYLOADS), min_size=1, max_size=3))
def test_drawn_payloads_are_written_as_json_dumps(records):
    trace = Trace()
    for kind, payload in records:
        trace.emit(kind, **payload)
    assert [(r.step, r.kind, r.payload) for r in trace.records] == [
        (step, kind, payload) for step, (kind, payload) in enumerate(records)
    ]
    assert_written_as_dumped(trace)
