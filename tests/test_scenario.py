import inspect
import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    SourceKind,
    StrengthLevel,
    parse_proposition,
    parse_scenario,
    render_scenario,
)
from parley.beliefs import (
    SUPPORTS,
    ContradictionError,
    StructureError,
    _trusted,
    proposition_parser,
)
from parley.scenario import (
    _PLAIN_SOURCES,
    _expect_list,
    _expect_object,
    _expect_str,
    _parse_agent,
    _parse_belief,
    _parse_str,
)
from parley.trace import Trace

from conftest import asserted, load_bench, load_bundled, run_scenario

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


@pytest.mark.parametrize("text", ["", "Expert", "WEAK", " strong", 2, None, [], {"x": 1}], ids=repr)
def test_level_and_expertise_texts_are_looked_up_exactly(text):
    # one dict lookup each; an unhashable value is refused like any other
    for parse, what in ((Expertise.parse, "expertise"), (StrengthLevel.parse, "strength level")):
        with pytest.raises(StructureError) as info:
            parse(text)
        assert str(info.value) == f"unknown {what}: {text!r}"
    assert Expertise.parse("non-expert") is Expertise.NON_EXPERT
    assert StrengthLevel.parse("warranted") is StrengthLevel.WARRANTED


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


def chain_document(d: int, leaf: dict) -> dict:
    """``minimal()`` proposing a chain of ``d`` nodes above ``leaf``, in the
    second of two children of the root."""
    node = leaf
    for i in range(d - 1):
        node = {"prop": f"n{i}(a)", "assertedLevel": "strong", "children": [node]}
    other = {"prop": "q(a)", "assertedLevel": "weak"}
    return minimal(proposal={"prop": "p(a)", "assertedLevel": "strong", "children": [other, node]})


@pytest.mark.parametrize(
    "leaf, tail",
    [
        ({"prop": "r(a)", "assertedLevel": "bogus"}, ".assertedLevel: unknown strength level: 'bogus'"),
        ({"prop": "r(a", "assertedLevel": "weak"}, ".prop: unterminated argument list in 'r(a'"),
        ({"prop": "r(a)"}, ": missing field: assertedLevel"),
        ({"prop": "r(a)", "assertedLevel": "weak", "children": 3}, ".children: expected a list, got int"),
        ({"prop": "r(a)", "assertedLevel": "weak", "kids": []}, ": unknown field(s): kids"),
        (["r(a)"], ": expected an object, got list"),
    ],
)
@pytest.mark.parametrize("d", [1, 2, 300])
def test_a_bad_proposal_node_reports_its_full_path(leaf, tail, d):
    # the path below the root is built as the error unwinds, and reads as
    # it did when every node built its own
    path = "$.proposal.children[1]" + ".children[0]" * (d - 1)
    error = err(chain_document(d, leaf))
    assert str(error) == path + tail
    assert error.path == path + tail.partition(":")[0]


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


def test_deep_proposals_compare_and_hash_without_recursion():
    # the generated dataclass methods recursed once per level and raised
    # RecursionError at 300 levels (comparing) and 600 (hashing).  Render's
    # limit of about 490 levels holds for a caller at the top of the stack,
    # so the frames beneath this test are added to the recursion limit.
    scenario = chain_scenario(480)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(inspect.stack(0)))
    try:
        parsed = parse_scenario(render_scenario(scenario))
    finally:
        sys.setrecursionlimit(limit)
    assert parsed == scenario and hash(parsed.proposal) == hash(scenario.proposal)
    assert hash(chain_scenario(600).proposal) == hash(chain_scenario(600).proposal)
    chain = scenario.proposal
    node = ProposalNode(Proposition(False, "other"), StrengthLevel.STRONG)
    for i in reversed(range(479)):
        node = ProposalNode(Proposition(False, f"p{i}"), StrengthLevel.STRONG, (node,))
    # ``node`` is ``chain`` with another deepest leaf
    assert node != chain and chain != node
    assert ProposalNode(chain.prop, StrengthLevel.WEAK, chain.children) != chain
    # the same propositions in preorder, in another shape
    a, b, c = (ProposalNode(Proposition(False, n), StrengthLevel.STRONG) for n in "abc")
    flat = ProposalNode(a.prop, a.asserted_level, (b, c))
    b_over_c = ProposalNode(b.prop, b.asserted_level, (c,))
    assert flat != ProposalNode(a.prop, a.asserted_level, (b_over_c,))
    assert flat == ProposalNode(a.prop, a.asserted_level, (b, c))
    assert flat.__eq__("a") is NotImplemented


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
# the belief reader, whose paths are relative to the belief, against a copy of
# the checked parser that was given each belief's path


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
            return asserted(level, speaker, expertise)
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
    # the seed parser is given the belief's path; ``_parse_belief`` reports
    # a path relative to the belief, which the same path is put before
    try:
        if parse_belief is seed_parse_belief:
            return seed_parse_belief(value, "$.b", proposition_parser())
        try:
            return parse_belief(value, proposition_parser())
        except ScenarioError as exc:
            raise ScenarioError(f"$.b{exc.path}", exc.message) from None
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


# ---------------------------------------------------------------------------
# the belief-list loop against a copy of the per-belief parser it replaced


def seed_fast_parse_belief(value, path, parse):
    if type(value) is dict and len(value) == 3:
        text, level, source = value.get("prop"), value.get("level"), value.get("source")
        if type(text) is str and type(level) is str and type(source) is str:
            endorsement = _PLAIN_SOURCES.get((source, level))
            if endorsement is not None:
                try:
                    return Belief(parse(text), endorsement)
                except StructureError:
                    pass
    fields = ("prop", "level", "source")
    obj = _expect_object(value, path, set(fields), fields)
    prop = _parse_str(obj["prop"], f"{path}.prop", parse)
    level = _parse_str(obj["level"], f"{path}.level", StrengthLevel.parse)
    return Belief(prop, seed_parse_source(obj["source"], level, f"{path}.source", parse))


def seed_index(beliefs, label, by_consequent):
    by_prop = {}
    for i, b in enumerate(beliefs):
        prop = b.prop
        by_prop[prop] = b
        if len(by_prop) == i:
            raise StructureError(f"duplicate belief in {label}: {prop}")
        if prop.predicate == SUPPORTS and not prop.negated:
            by_consequent.setdefault(prop.args[1]._text, {})[prop] = None
    texts = {prop._text for prop in by_prop}
    for prop in by_prop:
        if prop.negated and prop._text[1:] in texts:
            raise ContradictionError(f"{label} holds both {prop._text[1:]} and {prop}")
    return by_prop


def seed_parse_agent(value, path, parse):
    obj = _expect_object(
        value, path, {"id", "expertise", "beliefs", "userModel"}, ("id", "expertise", "beliefs")
    )
    agent_id = _expect_str(obj["id"], f"{path}.id")
    expertise = _parse_str(obj["expertise"], f"{path}.expertise", Expertise.parse)
    beliefs = [
        seed_fast_parse_belief(b, f"{path}.beliefs[{i}]", parse)
        for i, b in enumerate(_expect_list(obj["beliefs"], f"{path}.beliefs"))
    ]
    model = [
        seed_fast_parse_belief(b, f"{path}.userModel[{i}]", parse)
        for i, b in enumerate(_expect_list(obj.get("userModel", []), f"{path}.userModel"))
    ]
    by_consequent = {}
    try:
        own = seed_index(beliefs, "own beliefs", by_consequent)
        modelled = seed_index(model, "user model", by_consequent)
    except (ContradictionError, StructureError) as exc:
        raise ScenarioError(path, str(exc)) from None
    return AgentSpec(agent_id, _trusted(own, modelled, expertise, by_consequent))


def agent_outcome(parse_agent, value):
    """The file a parsed agent renders to, or the path and message of the
    error that refused it."""
    try:
        agent = parse_agent(value, "$.agents[0]", proposition_parser())
    except ScenarioError as exc:
        return (exc.path, str(exc))
    other = AgentSpec("other", KnowledgeBase(()))
    proposal = ProposalNode(Proposition(False, "root"), StrengthLevel.STRONG)
    # however a text is spelled, the document holds one object for it; the
    # recursive parser's inner parts of a relation are the exception
    beliefs = agent.kb.own + agent.kb.user_model
    props = [b.prop for b in beliefs] + [p for b in beliefs for p in b.endorsement.support]
    assert len({id(p) for p in props}) == len({p.render() for p in props})
    return render_scenario(Scenario((agent, other), proposal))


# few names, so that lists often repeat or contradict a proposition
NAMES = st.sampled_from(["p", "q_1(a)", "r(a, b)"])


@st.composite
def belief_texts(draw):
    """A proposition text: a literal or a relation between two, negated with
    ``~`` or ``¬`` or not at all, in its canonical spelling or spaced."""

    def literal():
        return draw(st.sampled_from(["", "~", "¬"])) + draw(NAMES)

    text = literal()
    if draw(st.booleans()):
        text = draw(st.sampled_from(["", "~", "¬"])) + f"{SUPPORTS}({text}, {literal()})"
    if draw(st.integers(0, 3)) == 0:
        text = draw(st.sampled_from([" ", "~ ~", "¬¬"])) + text.replace(", ", " ,  ")
    return text


@st.composite
def belief_items(draw):
    """A belief as a file writes it, or, one time in eight, a malformed one."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(MALFORMED_BELIEFS))
    kind = draw(st.sampled_from(["kb-record", "stereotype", "derived", "assertion"]))
    if kind == "derived":
        source = {"derived": {"from": draw(st.lists(belief_texts(), min_size=1, max_size=3))}}
    elif kind == "assertion":
        expertise = draw(st.sampled_from(["expert", "non-expert"]))
        source = {"assertion": {"speaker": "S", "expertise": expertise}}
    else:
        source = kind
    level = draw(st.sampled_from(["weak", "strong", "warranted"]))
    return {"prop": draw(belief_texts()), "level": level, "source": source}


def plain(prop: str) -> dict:
    return {"prop": prop, "level": "weak", "source": "kb-record"}


NOT_LISTS = st.sampled_from([None, "p", {"prop": "p"}, 1])


@settings(max_examples=300)
@given(
    st.one_of(st.lists(belief_items(), max_size=10), NOT_LISTS),
    st.one_of(st.none(), st.lists(belief_items(), max_size=4), NOT_LISTS),
)
@example([plain("q_1(a)"), plain("~p"), plain("p"), plain("¬q_1(a)")], None)
@example([plain("p"), plain(" p"), plain("~p")], [plain("¬ p"), plain("p")])
def test_belief_lists_read_as_the_seed_parser_reads_them(beliefs, model):
    # duplicates and contradictions arise from the small name pool; the
    # first fault in file order is the one reported, at the same path.  A
    # model of None leaves the field out.
    agent = {"id": "A", "expertise": "expert", "beliefs": beliefs}
    if model is not None:
        agent["userModel"] = model
    assert agent_outcome(_parse_agent, agent) == agent_outcome(seed_parse_agent, agent)


MALFORMED_DERIVED = [
    {"prop": prop, "level": level, "source": {"derived": body}}
    for prop, level, body in [
        ("p", "weak", {"from": ["q"], "x": 1}),
        ("p", "severe", {"from": ["q"]}),
        ("p", "weak", {"from": ["q", "Bad("]}),
        ("p", "weak", {"from": ["q", 1]}),
        ("p", "weak", {"from": ["q", ""]}),
        ("Bad(", "weak", {"from": ["q"]}),
        ("p", "weak", ["q"]),
    ]
]


@pytest.mark.parametrize("value", MALFORMED_BELIEFS + MALFORMED_DERIVED, ids=repr)
def test_belief_lists_report_each_malformed_item_as_the_seed_parser(value):
    # every shape the checks refuse, behind a belief the plain path takes
    agent = {"id": "A", "expertise": "expert", "beliefs": [plain("p"), value]}
    seed = agent_outcome(seed_parse_agent, agent)
    assert isinstance(seed, tuple)
    assert agent_outcome(_parse_agent, agent) == seed


# ---------------------------------------------------------------------------
# valid documents of every source kind survive a render and a parse

LEVEL_TEXTS = st.sampled_from(["weak", "strong", "warranted"])
NEGATIONS = st.sampled_from(["", "~", "¬"])


@st.composite
def nested_texts(draw, depth=0):
    """A literal, or ``supports(...)`` over two such texts nested at most
    three deep, each part negated with ``~`` or ``¬`` or not at all."""
    if depth < 3 and draw(st.integers(0, 2)) == 0:
        antecedent, consequent = draw(nested_texts(depth + 1)), draw(nested_texts(depth + 1))
        return f"{draw(NEGATIONS)}{SUPPORTS}({antecedent}, {consequent})"
    return draw(NEGATIONS) + draw(NAMES)


def positive(text: str) -> Proposition:
    prop = parse_proposition(text)
    return prop.negate() if prop.negated else prop


@st.composite
def valid_beliefs(draw, max_size):
    """Beliefs in distinct propositions, so no store repeats or contradicts
    one, with sources of all four kinds."""
    beliefs = []
    for text in draw(st.lists(nested_texts(), max_size=max_size, unique_by=positive)):
        kind = draw(st.sampled_from(["kb-record", "stereotype", "derived", "assertion"]))
        if kind == "derived":
            source = {"derived": {"from": draw(st.lists(nested_texts(), min_size=1, max_size=3))}}
        elif kind == "assertion":
            speaker = draw(st.sampled_from(["U", "S", "x_1"]))
            expertise = draw(st.sampled_from(["expert", "non-expert"]))
            source = {"assertion": {"speaker": speaker, "expertise": expertise}}
        else:
            source = kind
        beliefs.append({"prop": text, "level": draw(LEVEL_TEXTS), "source": source})
    return beliefs


@st.composite
def valid_proposals(draw):
    """A tree of one to four nodes, each over a name of its own, so no path
    revisits a proposition and no two nodes contradict."""
    names = draw(st.permutations(["a", "b", "c", "d"]))[: draw(st.integers(1, 4))]
    nodes = [
        {"prop": f"{draw(NEGATIONS)}n({name})", "assertedLevel": draw(LEVEL_TEXTS)}
        for name in names
    ]
    for i, node in enumerate(nodes[1:], 1):
        nodes[draw(st.integers(0, i - 1))].setdefault("children", []).append(node)
    return nodes[0]


@st.composite
def valid_documents(draw):
    agents = [
        {
            "id": agent_id,
            "expertise": draw(st.sampled_from(["expert", "non-expert"])),
            "beliefs": draw(valid_beliefs(5)),
            "userModel": draw(valid_beliefs(3)),
        }
        for agent_id in ("U", "S")
    ]
    doc = {"v": 1, "agents": agents, "proposal": draw(valid_proposals())}
    if draw(st.booleans()):
        limits = {"tau": st.integers(1, 3), "maxDepth": st.integers(1, 20)}
        doc["config"] = draw(st.fixed_dictionaries({}, optional=limits))
    return doc


@settings(max_examples=100, deadline=None)
@given(valid_documents())
def test_valid_documents_round_trip(doc):
    scenario = parse(doc)
    text = render_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert render_scenario(parse_scenario(text)) == text


SUPPORT_PROPS = [parse_proposition(t) for t in ("p(a)", "~q", "supports(p(a), ~q)")]


# every field is drawn for every kind, strays included; whatever the
# constructor accepts must read back equal from a rendered store
@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SourceKind),
    st.sampled_from(StrengthLevel),
    st.one_of(st.none(), st.just(""), st.integers(), st.text(min_size=1, max_size=4)),
    st.one_of(st.none(), st.sampled_from(Expertise), st.just("expert")),
    st.frozensets(st.one_of(st.sampled_from(SUPPORT_PROPS), st.just("p")), max_size=3),
)
@example(SourceKind.KB_RECORD, StrengthLevel.WEAK, None, None, frozenset())
@example(SourceKind.STEREOTYPE, StrengthLevel.STRONG, None, None, frozenset())
@example(SourceKind.ASSERTION, StrengthLevel.WARRANTED, "S", Expertise.NON_EXPERT, frozenset())
@example(SourceKind.DERIVED, StrengthLevel.WEAK, None, None, frozenset(SUPPORT_PROPS))
def test_every_accepted_endorsement_round_trips(kind, level, speaker, expertise, support):
    try:
        endorsement = Endorsement(level, kind, speaker, expertise, support)
    except StructureError:
        return
    beliefs = (Belief(parse_proposition("r(b)"), endorsement),)
    kb = KnowledgeBase(beliefs, beliefs, expertise=Expertise.EXPERT)
    other = KnowledgeBase((), expertise=Expertise.NON_EXPERT)
    scenario = Scenario(
        (AgentSpec("U", kb), AgentSpec("S", other)),
        ProposalNode(parse_proposition("t"), StrengthLevel.STRONG),
    )
    assert parse_scenario(render_scenario(scenario)) == scenario
