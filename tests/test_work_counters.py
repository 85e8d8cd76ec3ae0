"""Deterministic work counts of the bundled scenarios.

The benchmark's span recorder wraps the engine's entry points from outside;
its per-operation counts are exact, so pinning them catches an algorithmic
regression without any timing.
"""

import pytest

from parley import beliefs
from parley.trace import Trace

from conftest import load_bench, load_bundled, run_scenario

COUNTERS = (
    "beliefs.kb_writes",
    "beliefs.revise_calls",
    "focus.predict_calls",
    "beliefs.evidence_calls",
    "justification.subsets_tried",
)

# per scenario, in COUNTERS order
PINNED = {
    "both": (22, 18, 5, 21, 1),
    "evidence": (19, 15, 3, 18, 2),
    "nest": (23, 20, 4, 25, 2),
    "smith": (19, 15, 3, 18, 2),
    "tie": (1, 1, 0, 1, 0),
    "visit": (15, 13, 2, 16, 1),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_work_counters(name):
    spans = load_bench("spans")
    scenario = load_bundled(name)
    recorder = spans.Recorder()
    with spans.instrumented(recorder):
        run_scenario(scenario, Trace())
    metrics = spans.layer_metrics(recorder, 1, 0)
    assert tuple(metrics[key][0] for key in COUNTERS) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_negotiation_never_rebuilds_a_store(name, monkeypatch):
    # stores are validated once, when the scenario is parsed; each write
    # during the negotiation patches the store it starts from
    calls = []
    index = beliefs._index
    monkeypatch.setattr(beliefs, "_index", lambda *args: calls.append(args) or index(*args))
    scenario = load_bundled(name)
    assert calls
    calls.clear()
    run_scenario(scenario, Trace())
    assert calls == []


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_negotiation_never_reads_stores_in_text_order(name, monkeypatch):
    # own and user_model sort a side on every read, for output only; the
    # engine reads the stores by proposition
    reads = []
    for view in ("own", "user_model"):
        sort = getattr(beliefs.KnowledgeBase, view).fget
        monkeypatch.setattr(
            beliefs.KnowledgeBase,
            view,
            property(lambda kb, sort=sort, view=view: reads.append(view) or sort(kb)),
        )
    scenario = load_bundled(name)
    run_scenario(scenario, Trace())
    assert reads == []
