import json
import random

import pytest

from parley import (
    AgentSpec,
    Belief,
    Endorsement,
    Expertise,
    KnowledgeBase,
    NegotiationConfig,
    ProposalNode,
    Proposition,
    Scenario,
    ScenarioError,
    StrengthLevel,
    parse_scenario,
    render_scenario,
)
from parley.beliefs import proposition_parser
from parley.scenario import (
    _expect_list,
    _expect_object,
    _expect_str,
    _parse_belief,
    _parse_str,
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
    # a file, a Scenario and a run all default to one config
    default = NegotiationConfig()
    assert (s.tau, s.max_depth) == (default.tau, default.max_depth)
    assert Scenario(s.agents, s.proposal) == s
    assert parse(minimal(config={"tau": 2})).max_depth == default.max_depth
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
        (lambda d: d.update(config={"maxDepth": 0, "tau": 0}), "$.config.tau"),
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


def chain_scenario(depth: int) -> Scenario:
    node = ProposalNode(Proposition(False, f"p{depth - 1}"), StrengthLevel.STRONG)
    for i in reversed(range(depth - 1)):
        node = ProposalNode(Proposition(False, f"p{i}"), StrengthLevel.STRONG, (node,))
    kb = KnowledgeBase(own=())
    return Scenario((AgentSpec("U", kb), AgentSpec("S", kb)), node)


def test_render_refuses_a_proposal_too_deep_to_render():
    # the indented encoder recurses once per level, so a deep chain built in
    # code is refused at its path rather than with a RecursionError
    with pytest.raises(ScenarioError) as info:
        render_scenario(chain_scenario(600))
    assert info.value.path == "$.proposal"
    text = render_scenario(chain_scenario(300))
    parsed = parse_scenario(text)
    assert render_scenario(parsed) == text
    assert parsed.proposal.props() == chain_scenario(300).proposal.props()


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


# ---------------------------------------------------------------------------
# the belief parser's fast path against the checked parser it sits in front of


def seed_parse_source(value, level, path, parse):
    if isinstance(value, str):
        if value == "kb-record":
            return Endorsement.kb_record(level)
        if value == "stereotype":
            return Endorsement.stereotype(level)
        raise ScenarioError(path, f"unknown source: {value!r}")
    if isinstance(value, dict):
        if set(value) == {"assertion"}:
            fields = ("speaker", "expertise")
            body = _expect_object(value["assertion"], f"{path}.assertion", set(fields), fields)
            speaker = _expect_str(body["speaker"], f"{path}.assertion.speaker")
            expertise = _parse_str(
                body["expertise"], f"{path}.assertion.expertise", Expertise.parse
            )
            return Endorsement.assertion(level, speaker, expertise)
        if set(value) == {"derived"}:
            body = _expect_object(value["derived"], f"{path}.derived", {"from"})
            props = _expect_list(body.get("from"), f"{path}.derived.from")
            if not props:
                raise ScenarioError(f"{path}.derived.from", "must not be empty")
            support = [
                _parse_str(p, f"{path}.derived.from[{i}]", parse)
                for i, p in enumerate(props)
            ]
            return Endorsement.derived(level, support)
        raise ScenarioError(path, "source object must be {'assertion': ...} or {'derived': ...}")
    raise ScenarioError(path, f"bad source: {value!r}")


def seed_parse_belief(value, path, parse):
    fields = ("prop", "level", "source")
    obj = _expect_object(value, path, set(fields), fields)
    prop = _parse_str(obj["prop"], f"{path}.prop", parse)
    level = _parse_str(obj["level"], f"{path}.level", StrengthLevel.parse)
    return Belief(prop, seed_parse_source(obj["source"], level, f"{path}.source", parse))


def belief_outcome(parse_belief, value):
    try:
        return parse_belief(value, "$.b", proposition_parser())
    except ScenarioError as exc:
        return (exc.path, str(exc))


WELL_FORMED = {"prop": "~p(a, b)", "level": "strong", "source": "kb-record"}
NOT_STRINGS = ([], {}, {"x": 1}, None, 1, 1.5, "", True)
BAD_VALUES = {
    "prop": (*NOT_STRINGS, "Bad(", "p(a", "p(a,)", "supports(p)", "~", "p q", " "),
    "level": (*NOT_STRINGS, "severe", "WARRANTED", " strong", "kb-record"),
    "source": (
        *NOT_STRINGS,
        "hearsay",
        "KB-record",
        "assertion",
        "derived",
        "strong",
        {"assertion": {}},
        {"assertion": []},
        {"assertion": {"speaker": "S"}},
        {"assertion": {"speaker": "", "expertise": "expert"}},
        {"assertion": {"speaker": 1, "expertise": "expert"}},
        {"assertion": {"speaker": "S", "expertise": "guru"}},
        {"assertion": {"speaker": "S", "expertise": "expert", "x": 1}},
        {"assertion": {"speaker": "S", "expertise": "expert"}, "derived": {"from": ["p"]}},
        {"derived": {}},
        {"derived": []},
        {"derived": {"from": []}},
        {"derived": {"from": "p"}},
        {"derived": {"from": [1]}},
        {"derived": {"from": ["Bad("]}},
        {"derived": {"to": ["p"]}},
    ),
}
MALFORMED_BELIEFS = [
    *([], "p(a)", 1, None, True),
    {},
    {"prop": "p(a)", "level": "strong"},
    {"prop": "p(a)", "source": "kb-record"},
    {"level": "strong", "source": "kb-record"},
    {**WELL_FORMED, "extra": "x"},
    {"prop": "p(a)", "level": "strong", "sauce": "kb-record"},
    *({**WELL_FORMED, key: bad} for key, values in BAD_VALUES.items() for bad in values),
    # several faults: the first field checked is the one reported
    {"prop": "Bad(", "level": [], "source": "hearsay"},
    {"prop": "p(a)", "level": {"x": 1}, "source": {}},
    {"prop": [], "level": "strong", "source": None},
]


@pytest.mark.parametrize("value", MALFORMED_BELIEFS, ids=repr)
def test_belief_fast_path_reports_as_the_seed_parser(value):
    # "level": [] and {"x": 1} must not reach a lookup that hashes them
    seed = belief_outcome(seed_parse_belief, value)
    assert isinstance(seed, tuple)
    assert belief_outcome(_parse_belief, value) == seed


@pytest.mark.parametrize("source", ["kb-record", "stereotype"])
@pytest.mark.parametrize("level", ["weak", "strong", "warranted"])
@pytest.mark.parametrize("prop", ["p", "~p(a, b)", "¬ p ( a )", "supports(~q(a), p(b))"])
def test_belief_fast_path_builds_what_the_seed_parser_builds(source, level, prop):
    value = {"source": source, "level": level, "prop": prop}
    fast, seed = belief_outcome(_parse_belief, value), belief_outcome(seed_parse_belief, value)
    assert fast == seed
    # one shared endorsement per plain source and level
    assert fast.endorsement is seed.endorsement
