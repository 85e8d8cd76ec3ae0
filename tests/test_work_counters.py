"""Deterministic work counts of the bundled scenarios.

The benchmark's span recorder wraps the engine's entry points from outside;
its per-operation counts are exact, so pinning them catches an algorithmic
regression without any timing.
"""

import gc
import json
import random
import re
import sys

import pytest

import parley.scenario
from parley import beliefs, evaluation, focus, parse_scenario
from parley.trace import Trace

from conftest import (
    disputed_correction_scenario,
    load_bench,
    load_bundled,
    random_scenario,
    rejected_chain_document,
    run_scenario,
)

COUNTERS = (
    "beliefs.kb_writes",
    "beliefs.revise_calls",
    "focus.predict_calls",
    "beliefs.evidence_calls",
    "justification.subsets_tried",
)

# per scenario, in COUNTERS order.  A prediction with a removal reads the
# user model in place: the store write of a pruned copy and the revision
# of that copy are not counted for it.  Every prediction weighs a prepared
# pool, so one with nothing removed is no longer a revision (two in both,
# nest and visit, one in evidence and smith), and an undermine stage that
# flips gathers its evidence once for the full-set check and the search,
# not twice (one in both, evidence, nest and smith; visit has none).
PINNED = {
    "both": (11, 13, 5, 20, 1),
    "evidence": (10, 12, 3, 16, 2),
    "nest": (12, 16, 4, 23, 2),
    "smith": (10, 12, 3, 16, 2),
    "tie": (1, 1, 0, 1, 0),
    "visit": (6, 11, 2, 16, 1),
}


def work_counters(scenario) -> dict:
    spans = load_bench("spans")
    recorder = spans.Recorder()
    with spans.instrumented(recorder) as patches:
        run_scenario(scenario, Trace())
    # every wrapper comes out again, which fails if two targets name one function
    assert spans.unrestored(patches) == []
    metrics = spans.layer_metrics(recorder, 1, 0)
    return {key: metrics[key][0] for key in COUNTERS}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_work_counters(name):
    counters = work_counters(load_bundled(name))
    assert tuple(counters[key] for key in COUNTERS) == PINNED[name]


def chain_document(d: int) -> str:
    """A proposal chain of ``d`` nodes, each justified by the next, that S
    has no view on and so accepts node by node; U holds the chain."""

    def belief(prop: str, level: str, source="kb-record") -> dict:
        return {"prop": prop, "level": level, "source": source}

    props = [f"{'~' if i % 3 == 1 else ''}step{i}(x)" for i in range(d)]
    u_beliefs = [belief(props[-1], "warranted")]
    for parent, child in zip(props, props[1:]):
        u_beliefs.append(belief(f"supports({child}, {parent})", "warranted"))
        u_beliefs.append(belief(parent, "strong", {"derived": {"from": [child]}}))
    proposal = {"prop": props[-1], "assertedLevel": "warranted"}
    for prop in reversed(props[:-1]):
        proposal = {"prop": prop, "assertedLevel": "strong", "children": [proposal]}
    doc = {
        "v": 1,
        "agents": [
            {"id": "U", "expertise": "non-expert", "beliefs": u_beliefs},
            {"id": "S", "expertise": "expert", "beliefs": [belief("teaches(x)", "warranted")]},
        ],
        "proposal": proposal,
    }
    return json.dumps(doc)


def test_chain_store_writes_do_not_grow_with_depth():
    # the hearer records the whole proposal, adopts what it accepted and
    # the speaker notes the acceptance, one store write each, however many
    # nodes the chain has
    short, long = (work_counters(parse_scenario(chain_document(d))) for d in (10, 40))
    assert short["beliefs.revise_calls"] < long["beliefs.revise_calls"]
    assert short["beliefs.kb_writes"] == long["beliefs.kb_writes"]


def test_rejected_chain_work_grows_linearly_with_depth(monkeypatch):
    # S rejects every node of U's chain, so the focus walk predicts U's
    # verdict on each node with a member removed.  Each removal test looks
    # up only what the verdict reads: its store lookups about double with
    # the depth, where the closure it replaced scanned the whole user
    # model on every prediction, and the store writes stay the same
    found = {}
    for d in (100, 200):
        with monkeypatch.context() as patch:
            visits = count_calls(patch, beliefs, "_support")
            counters = work_counters(parse_scenario(rejected_chain_document(d)))
        found[d] = (len(visits), counters["beliefs.kb_writes"])
    (short, short_writes), (long, long_writes) = found[100], found[200]
    assert long <= 2.05 * short
    assert short_writes == long_writes


def test_each_traced_prediction_builds_one_pool(monkeypatch):
    # every hypothetical judgement weighs a prepared pool, and a minimal-set
    # search weighs its combinations against the pool of its own traced
    # full-set check; a check made apart from the search would build a
    # second pool for the same record
    scenarios = [load_bundled(name) for name in sorted(PINNED)]
    scenarios += [random_scenario(random.Random(seed)) for seed in range(500)]
    scenarios += [disputed_correction_scenario(random.Random(seed)) for seed in range(300)]
    documents = [rejected_chain_document(d, held) for d in (5, 20) for held in (False, True)]
    scenarios += [parse_scenario(text) for text in documents]
    built = []
    prepare = beliefs._Pool.__init__
    monkeypatch.setattr(
        beliefs._Pool, "__init__", lambda pool, *args: built.append(pool) or prepare(pool, *args)
    )
    differ = []
    for i, scenario in enumerate(scenarios):
        built.clear()
        trace = Trace()
        run_scenario(scenario, trace)
        if len(built) != len(trace.by_kind("predict")):
            differ.append(i)
    assert differ == []


@pytest.mark.parametrize("children", [2, 4, 8])
def test_a_wide_dispute_searches_one_combination(children, monkeypatch):
    # only removing all c disputed children flips the proposer, whose
    # root derives from them, and no removal can reject it: the search
    # starts at size c, so it predicts the traced full set and the one
    # size-c combination, where starting at size 1 made 2^c predictions
    case = load_bench("workloads").search_fanout_case(random.Random(0), children=children)
    scenario = parse_scenario(case.text)
    predicts, searches = [], []
    predict, search = focus.predict, focus.select_min_set

    def counted(*args, **kwargs):
        before = len(predicts)
        chosen = search(*args, **kwargs)
        searches.append((len(predicts) - before, len(chosen)))
        return chosen

    monkeypatch.setattr(focus, "predict", lambda *a, **k: predicts.append(a) or predict(*a, **k))
    monkeypatch.setattr(focus, "select_min_set", counted)
    run_scenario(scenario, Trace())
    assert searches == [(2, children)]


def test_a_negotiation_leaves_no_cyclic_garbage():
    # reference counting frees everything a negotiation makes, so with the
    # collector off the run leaves nothing for it: a removal test written
    # as a closure that called itself left a reference cycle per
    # prediction, and more collections to run
    scenarios = [load_bundled(name) for name in sorted(PINNED)]
    scenarios += [random_scenario(random.Random(seed)) for seed in range(200)]
    scenarios += [disputed_correction_scenario(random.Random(seed)) for seed in range(100)]
    documents = [chain_document(40), filler_document(150)]
    documents += [rejected_chain_document(20, held) for held in (False, True)]
    scenarios += [parse_scenario(text) for text in documents]
    gc.collect()
    gc.disable()
    try:
        for scenario in scenarios:
            run_scenario(scenario, Trace())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_parsed_proposal_is_validated_once(monkeypatch):
    # parsing validates the proposal and marks it, so the negotiation's
    # first evaluation does not walk it again; each walk is counted by its
    # root when validate_tree starts it
    roots = []
    walk = evaluation.walk

    def counted(root, enter=None):
        if sys._getframe(1).f_code is evaluation.validate_tree.__code__:
            roots.append(root)
        return walk(root, enter)

    monkeypatch.setattr(evaluation, "walk", counted)
    scenario = parse_scenario(chain_document(60))
    assert run_scenario(scenario, Trace()).outcome == "agreement"
    assert [root is scenario.proposal for root in roots] == [True]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_negotiation_never_rebuilds_a_store(name, monkeypatch):
    # stores are validated once, when the scenario is parsed; each write
    # during the negotiation patches the store it starts from
    calls = []
    index = beliefs._index
    # the one indexing loop, under both names that call it: the store
    # constructor's and the belief-list reader's in scenario.py
    for module in (beliefs, parley.scenario):
        monkeypatch.setattr(module, "_index", lambda *args: calls.append(args) or index(*args))
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


# Endorsement.__post_init__ calls during one negotiation of each bundled
# scenario: the assertion and derived endorsements the dialogue creates.
# Each agent is one Speaker for the whole negotiation, so everything it
# asserts (its cases, its recorded proposals, its observed acceptances)
# shares one assertion endorsement per level, the focus search's counter-
# cases included.  A derived endorsement is
# built only for a belief actually written, and adoption keeps an
# endorsement already at the winning level.
ENDORSEMENT_CHECKS = {
    "both": 5,
    "evidence": 7,
    "nest": 6,
    "smith": 7,
    "tie": 2,
    "visit": 6,
}


def count_checks(monkeypatch, *classes) -> dict:
    calls = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        check = cls.__post_init__

        def counted(self, check=check, name=cls.__name__):
            calls[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


def filler_document(n: int, seed: int = 0) -> str:
    """A small dispute whose evaluator also holds ``n`` unrelated plain
    beliefs, two thirds literals and one third relations between them."""
    rng = random.Random(seed)
    levels = ("weak", "strong", "warranted")
    literals, beliefs, relations = [], [], set()
    for i in range(n):
        if i % 3 == 2:
            prop = "supports({}, {})".format(*rng.sample(literals, 2))
            while prop in relations:
                prop = "supports({}, {})".format(*rng.sample(literals, 2))
            relations.add(prop)
        else:
            prop = f"{'~' if rng.random() < 0.5 else ''}fact{i}(e{rng.randrange(50)})"
            literals.append(prop)
        source = rng.choice(["kb-record", "stereotype"])
        beliefs.append({"prop": prop, "level": rng.choice(levels), "source": source})
    beliefs.append({"prop": "~teaches(smith, ai)", "level": "strong", "source": "kb-record"})
    doc = {
        "v": 1,
        "agents": [
            {"id": "U", "expertise": "non-expert", "beliefs": []},
            {"id": "S", "expertise": "expert", "beliefs": beliefs},
        ],
        "proposal": {"prop": "teaches(smith, ai)", "assertedLevel": "strong"},
    }
    return json.dumps(doc)


def test_parsing_plain_beliefs_runs_no_constructor_check(monkeypatch):
    text = filler_document(1_500)
    calls = count_checks(monkeypatch, beliefs.Endorsement, beliefs.Proposition)
    scenario = parse_scenario(text)
    assert len(scenario.evaluator.kb.own) == 1_501
    assert calls == {"Endorsement": 0, "Proposition": 0}


def canonical_matches(text: str) -> int:
    """How many times parsing ``text`` calls ``fullmatch`` on a canonical
    pattern of beliefs.py, however many it has, seen by a profile hook, so
    nothing is patched."""
    patterns = {
        id(value)
        for name, value in vars(beliefs).items()
        if name.startswith("_CANONICAL") and isinstance(value, re.Pattern)
    }
    calls = []

    def hook(frame, event, arg):
        if event == "c_call" and arg.__name__ == "fullmatch" and id(arg.__self__) in patterns:
            calls.append(arg)

    sys.setprofile(hook)
    try:
        parse_scenario(text)
    finally:
        sys.setprofile(None)
    return len(calls)


def test_reading_plain_beliefs_matches_each_text_once():
    # one pattern for literals and relations alike matches each plain
    # belief's text once: the filler, the dispute's own belief, and the
    # proposal's text, which the memo parses.  Trying a literal pattern and
    # then a relation pattern made 4n/3 + 2 matches.
    for n in (150, 1_500):
        assert canonical_matches(filler_document(n)) == n + 2


def count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize("document", [lambda: filler_document(1_500), lambda: chain_document(40)])
def test_parsing_valid_input_spells_no_item_path(monkeypatch, document):
    # each reader reports an error at a path relative to what it reads, and
    # a list puts an item's index before that path only as the error leaves
    # it: a valid document spells no belief's, basis text's or child's path
    calls = count_calls(monkeypatch, parley.scenario, "_under")
    parse_scenario(document())
    assert calls == []


def test_bad_basis_text_deep_in_a_chain_is_reported_at_its_full_path(monkeypatch):
    doc = json.loads(chain_document(40))
    beliefs_u = doc["agents"][0]["beliefs"]
    last = max(i for i, b in enumerate(beliefs_u) if isinstance(b["source"], dict))
    beliefs_u[last]["source"]["derived"]["from"].append("Bad(")
    calls = count_calls(monkeypatch, parley.scenario, "_under")
    with pytest.raises(parley.scenario.ScenarioError) as info:
        parse_scenario(json.dumps(doc))
    assert info.value.path == f"$.agents[0].beliefs[{last}].source.derived.from[1]"
    assert str(info.value).startswith(f"{info.value.path}: ")
    # one prefix per list the error leaves: the basis texts, then the beliefs
    prefixes = [".source.derived.from[1]", f"$.agents[0].beliefs[{last}]"]
    assert [args[0] for args in calls] == prefixes


def test_parsing_relations_rebuilds_no_text(monkeypatch):
    # a relation spelled as ``render`` spells it, ``~`` aside, keeps its
    # text: nothing joins it again from its arguments' texts
    calls = count_calls(monkeypatch, beliefs, "_text_of")
    parse_scenario(filler_document(1_500))
    assert calls == []
    # the recursive parser builds each part with the checked constructor
    beliefs.parse_proposition("supports(p ,q)")
    assert [args[1] for args in calls] == ["p", "q", "supports"]


def test_proposal_paths_grow_linearly_with_depth(monkeypatch):
    # a node below the root builds its JSON path only to report an error,
    # so each node hands the checks the same path text; a path repeating
    # every ancestor's made a chain of d nodes cost about 6·d² characters
    built = {}
    for d in (100, 200, 300):
        checks = [
            count_calls(monkeypatch, parley.scenario, name)
            for name in ("_expect_object", "_expect_list", "_parse_str")
        ]
        parse_scenario(chain_document(d))
        built[d] = sum(len(args[1]) for calls in checks for args in calls)
        monkeypatch.undo()
    assert built[300] - built[200] == built[200] - built[100]


def test_evidence_lookup_is_independent_of_store_size(monkeypatch):
    # the consequent index answers from the target's two buckets, so the
    # filler beliefs around the dispute cost no comparisons: a scan of the
    # whole store compares every relation's consequent with the target
    found = {}
    for n in (150, 3_000):
        scenario = parse_scenario(filler_document(n))
        target = scenario.proposal.prop
        case = beliefs.Speaker("U", beliefs.Expertise.NON_EXPERT).case(target)
        calls = {"__eq__": 0, "__hash__": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                method = getattr(beliefs.Proposition, name)

                def counted(*args, method=method, name=name):
                    calls[name] += 1
                    return method(*args)

                patch.setattr(beliefs.Proposition, name, counted)
            pieces = beliefs.build_evidence_set(scenario.evaluator.kb, target, case)
        found[n] = (calls, len(pieces))
    assert found[150] == found[3_000]


def test_unread_plain_beliefs_are_never_built(monkeypatch):
    # a plain belief stays its text until the engine reads it, and the
    # dispute reads none of the filler: parsing and negotiating build as
    # many beliefs, and parse as many texts, whatever the filler's size
    found = {}
    for n in (150, 3_000):
        with monkeypatch.context() as patch:
            built = count_calls(patch, beliefs.Belief, "__init__")
            # the document's parser is the bound lookup of its memo
            parsers = []
            make = parley.scenario.proposition_parser
            patch.setattr(
                parley.scenario, "proposition_parser", lambda: parsers.append(make()) or parsers[-1]
            )
            run_scenario(parse_scenario(filler_document(n)), Trace())
        found[n] = (len(built), len(parsers[0].__self__))
    assert found[150] == found[3_000]


def test_each_plain_belief_is_built_once(monkeypatch):
    # the first read builds a belief and keeps it in place of its text
    kb = parse_scenario(filler_document(150)).evaluator.kb
    built = count_calls(monkeypatch, beliefs.Belief, "__init__")
    assert kb.own == kb.own and len(kb.own) == 151
    assert len(built) == 151


@pytest.mark.parametrize(
    "extra, message",
    [
        # the other spelling of ``~fact1(e32)``, the filler's second belief
        ({"prop": "¬fact1(e32)", "level": "weak", "source": "stereotype"},
         "duplicate belief in own beliefs: ¬fact1(e32)"),
        # a spaced negation of ``fact0(e48)``, its first, read by the recursive parser
        ({"prop": "~ fact0(e48)", "level": "strong", "source": "kb-record"},
         "own beliefs holds both fact0(e48) and ¬fact0(e48)"),
    ],
)
def test_late_duplicate_and_contradiction_are_reported_in_file_terms(extra, message):
    # validation stays eager: an offender after 1,500 unbuilt beliefs is
    # found at parse time, named in canonical text, at the agent's path
    doc = json.loads(filler_document(1_500))
    doc["agents"][1]["beliefs"].append(extra)
    with pytest.raises(parley.ScenarioError) as raised:
        parse_scenario(json.dumps(doc))
    assert (raised.value.path, raised.value.message) == ("$.agents[1]", message)


@pytest.mark.parametrize("name", sorted(ENDORSEMENT_CHECKS))
def test_bundled_negotiation_endorsement_checks(name, monkeypatch):
    scenario = load_bundled(name)
    calls = count_checks(monkeypatch, beliefs.Endorsement)
    run_scenario(scenario, Trace())
    assert calls["Endorsement"] == ENDORSEMENT_CHECKS[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_bundled_negotiation_runs_no_evidence_piece_check(name, monkeypatch):
    # a speaker's case checks each backing tuple once and builds its piece
    # trusted, and every other piece is built from beliefs already held:
    # no piece of a negotiation is checked again by its constructor
    scenario = load_bundled(name)
    calls = count_checks(monkeypatch, beliefs.EvidencePiece)
    run_scenario(scenario, Trace())
    assert calls == {"EvidencePiece": 0}
