import json
import random

import pytest

from parley import (
    AgentSpec,
    KnowledgeBase,
    Proposition,
    Scenario,
    ScenarioError,
    parse_scenario,
    render_scenario,
)
from parley.trace import Trace

from conftest import load_bench, load_bundled, run_scenario

BUNDLED = ("smith", "evidence", "visit", "both", "nest", "tie")


def minimal(**overrides) -> dict:
    doc = {
        "v": 1,
        "agents": [
            {
                "id": "U",
                "expertise": "non-expert",
                "beliefs": [{"prop": "p(a)", "level": "strong", "source": "kb-record"}],
            },
            {"id": "S", "expertise": "expert", "beliefs": []},
        ],
        "proposal": {"prop": "p(a)", "assertedLevel": "strong"},
    }
    doc.update(overrides)
    return doc


def parse(doc) -> Scenario:
    return parse_scenario(json.dumps(doc))


def err(doc) -> ScenarioError:
    with pytest.raises(ScenarioError) as info:
        parse(doc)
    return info.value


@pytest.mark.parametrize("name", BUNDLED)
def test_round_trip_bundled(name):
    scenario = load_bundled(name)
    assert parse_scenario(render_scenario(scenario)) == scenario


def test_minimal_document_defaults():
    s = parse(minimal())
    assert (s.tau, s.max_depth) == (1, 16)
    assert s.proposer.id == "U" and s.evaluator.id == "S"
    assert s.agents[0].kb.expertise.value == "non-expert"


def test_config_overrides():
    s = parse(minimal(config={"tau": 2, "maxDepth": 3}))
    assert (s.tau, s.max_depth) == (2, 3)


def test_negation_spellings_agree():
    doc = minimal()
    doc["proposal"]["prop"] = "~p(a)"
    ascii_form = parse(doc)
    doc["proposal"]["prop"] = "¬p(a)"
    assert parse(doc).proposal == ascii_form.proposal


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ScenarioError) as info:
        parse_scenario('{"v": 1,\n  "agents": }')
    assert "line 2" in str(info.value)
    assert "column 13" in str(info.value)


@pytest.mark.parametrize(
    "mutate, path_hint",
    [
        (lambda d: d.update(v=2), "$.v"),
        pytest.param(lambda d: d.update(v=True), "$.v", id="bool-version"),
        pytest.param(lambda d: d.update(v=1.0), "$.v", id="float-version"),
        (lambda d: d.update(extra=True), "$"),
        (lambda d: d.pop("proposal"), "$"),
        (lambda d: d.update(agents=d["agents"][:1]), "$.agents"),
        (lambda d: d["agents"][1].update(id="U"), "$.agents"),
        (lambda d: d["agents"][0]["beliefs"][0].update(level="severe"), "$.agents[0].beliefs[0].level"),
        pytest.param(
            lambda d: d["agents"][0]["beliefs"][0].update(level="WARRANTED"),
            "$.agents[0].beliefs[0].level",
            id="upper-case-level",
        ),
        (lambda d: d["agents"][0]["beliefs"][0].update(source="hearsay"), "$.agents[0].beliefs[0].source"),
        (lambda d: d["agents"][0]["beliefs"][0].update(prop="Bad("), "$.agents[0].beliefs[0].prop"),
        (lambda d: d.update(config={"tau": 0}), "$.config.tau"),
        (lambda d: d.update(config={"tau": True}), "$.config.tau"),
        (lambda d: d.update(config={"maxDepth": "deep"}), "$.config.maxDepth"),
    ],
)
def test_diagnostics_name_the_offending_path(mutate, path_hint):
    doc = minimal()
    mutate(doc)
    assert err(doc).path == path_hint


def test_derived_source_requires_basis():
    doc = minimal()
    doc["agents"][0]["beliefs"][0]["source"] = {"derived": {"from": []}}
    assert err(doc).path == "$.agents[0].beliefs[0].source.derived.from"


def test_assertion_source_round_trips():
    doc = minimal()
    doc["agents"][0]["beliefs"][0]["source"] = {
        "assertion": {"speaker": "S", "expertise": "expert"}
    }
    s = parse(doc)
    assert parse_scenario(render_scenario(s)) == s


def test_contradictory_store_rejected():
    doc = minimal()
    doc["agents"][0]["beliefs"].append(
        {"prop": "~p(a)", "level": "weak", "source": "kb-record"}
    )
    assert err(doc).path == "$.agents[0]"


def test_cyclic_proposal_rejected():
    doc = minimal()
    doc["proposal"]["children"] = [{"prop": "~p(a)", "assertedLevel": "weak"}]
    assert err(doc).path == "$.proposal"


def test_render_is_stable():
    scenario = load_bundled("smith")
    text = render_scenario(scenario)
    assert text.endswith("\n")
    assert render_scenario(parse_scenario(text)) == text
    assert "¬" not in text  # files stay plain ASCII


@pytest.mark.parametrize("name", BUNDLED)
def test_belief_order_never_reaches_output(name):
    # the same stores, entered in reverse and reached through writes in
    # reverse, give the same views, the same file and the same dialogue
    scenario = load_bundled(name)
    agents = []
    for agent in scenario.agents:
        kb = agent.kb
        reversed_kb = KnowledgeBase(kb.own[::-1], kb.user_model[::-1], kb.expertise)
        written = KnowledgeBase((), (), kb.expertise)
        for belief in reversed(kb.own):
            written = written.own_add(belief)
        for belief in reversed(kb.user_model):
            written = written.model_add(belief)
        for other in (reversed_kb, written):
            assert other == kb
            assert other.own == kb.own and other.user_model == kb.user_model
        agents.append(AgentSpec(agent.id, written))
    reordered = Scenario(tuple(agents), scenario.proposal, scenario.tau, scenario.max_depth)
    assert render_scenario(reordered) == render_scenario(scenario)
    runs = []
    for s in (scenario, reordered):
        trace = Trace()
        runs.append((run_scenario(s, trace).realize(), trace.to_ndjson()))
    assert runs[0] == runs[1]


def parsed_propositions(scenario: Scenario) -> list[Proposition]:
    """Every proposition a parsed scenario holds: belief props, derived
    support, proposal nodes, and the arguments of each relation among them."""
    props = []
    for agent in scenario.agents:
        for belief in agent.kb.own + agent.kb.user_model:
            props.append(belief.prop)
            props.extend(belief.endorsement.support)
    nodes = [scenario.proposal]
    while nodes:
        node = nodes.pop()
        props.append(node.prop)
        nodes.extend(node.children)
    todo = list(props)
    while todo:
        args = [a for a in todo.pop().args if isinstance(a, Proposition)]
        props.extend(args)
        todo.extend(args)
    return props


@pytest.mark.parametrize("which", ["smith", "wide_store"])
def test_one_object_per_text(which):
    if which == "smith":
        scenario = load_bundled("smith")
    else:
        case = load_bench("workloads").wide_store_case(random.Random(0))
        scenario = parse_scenario(case.text)
    props = parsed_propositions(scenario)
    assert len({id(p) for p in props}) == len({p.render() for p in props})
