"""Scenario files: a versioned JSON description of two agents, their belief
stores, and the opening proposal.

Negation is written with ``~`` in files (``¬`` is accepted too).  Parsing is
strict: unknown fields, bad levels, malformed propositions, and
contradictory stores are all reported with the JSON path to the offender.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Optional

from .beliefs import (
    Belief,
    Endorsement,
    Expertise,
    KnowledgeBase,
    Proposition,
    SourceKind,
    Speaker,
    StrengthLevel,
    StructureError,
    _PLAIN_SOURCES,
    _index,
    _trusted,
    _trusted_belief,
    _trusted_derived,
    proposition_parser,
)
from .evaluation import ProposalNode, fold, validate_tree
from .negotiation import NegotiationConfig

FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """A scenario file is malformed; ``path`` locates the problem."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class AgentSpec:
    id: str
    kb: KnowledgeBase


@dataclass(frozen=True)
class Scenario:
    agents: tuple[AgentSpec, AgentSpec]
    proposal: ProposalNode
    tau: int = NegotiationConfig.tau
    max_depth: int = NegotiationConfig.max_depth

    @property
    def proposer(self) -> AgentSpec:
        return self.agents[0]

    @property
    def evaluator(self) -> AgentSpec:
        return self.agents[1]


# the fields of the objects the readers check: the required ones in order,
# and every one allowed
_BELIEF = ("prop", "level", "source")
_BELIEF_FIELDS = frozenset(_BELIEF)
_ASSERTION = ("speaker", "expertise")
_ASSERTION_FIELDS = frozenset(_ASSERTION)
_DERIVED_FIELDS = frozenset({"from"})
_NODE = ("prop", "assertedLevel")
_NODE_FIELDS = frozenset({*_NODE, "children"})
_AGENT = ("id", "expertise", "beliefs")
_AGENT_FIELDS = frozenset({*_AGENT, "userModel"})


def _expect_object(value: Any, path: str, allowed: AbstractSet, required: tuple = ()) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, f"expected an object, got {type(value).__name__}")
    if not value.keys() <= allowed:
        unknown = value.keys() - allowed
        raise ScenarioError(path, f"unknown field(s): {', '.join(sorted(unknown))}")
    for key in required:
        if key not in value:
            raise ScenarioError(path, f"missing field: {key}")
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
    return value


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ScenarioError(path, "expected a non-empty string")
    return value


def _parse_str(value: Any, path: str, parse: Callable[[str], Any]) -> Any:
    """``parse`` applied to a non-empty string, its errors reported at ``path``."""
    raw = _expect_str(value, path)
    try:
        return parse(raw)
    except StructureError as exc:
        raise ScenarioError(path, str(exc)) from None


def _under(prefix: str, exc: ScenarioError) -> ScenarioError:
    # ``exc``, raised at a path relative to some value, with ``prefix`` (that
    # value's path in what holds it) put before its path.  Readers call it
    # only as an error leaves them, so valid input spells no item's path.
    return ScenarioError(prefix + exc.path, exc.message)


def _parse_source(value: Any, level: StrengthLevel, parse: Callable) -> Endorsement:
    # the endorsement at ``level`` of the source ``value``; errors are
    # raised at paths relative to the belief that holds it
    if isinstance(value, str):
        endorsement = _PLAIN_SOURCES.get((value, level.render()))
        if endorsement is None:
            raise ScenarioError(".source", f"unknown source: {value!r}")
        return endorsement
    if not isinstance(value, dict):
        raise ScenarioError(".source", f"bad source: {value!r}")
    if set(value) == {"derived"}:
        body = _expect_object(value["derived"], ".source.derived", _DERIVED_FIELDS)
        props = _expect_list(body.get("from"), ".source.derived.from")
        if not props:
            raise ScenarioError(".source.derived.from", "must not be empty")
        support = []
        for i, text in enumerate(props):
            try:
                support.append(_parse_str(text, "", parse))
            except ScenarioError as exc:
                raise _under(f".source.derived.from[{i}]", exc) from None
        # a parsed level and a nonempty list of parsed propositions
        return _trusted_derived(level, frozenset(support))
    if set(value) == {"assertion"}:
        body = _expect_object(
            value["assertion"], ".source.assertion", _ASSERTION_FIELDS, _ASSERTION
        )
        speaker = _expect_str(body["speaker"], ".source.assertion.speaker")
        expertise = _parse_str(body["expertise"], ".source.assertion.expertise", Expertise.parse)
        return Speaker(speaker, expertise).endorse(level)
    raise ScenarioError(".source", "source object must be {'assertion': ...} or {'derived': ...}")


def _parse_belief(value: Any, parse: Callable[[str], Proposition]) -> Belief:
    # the belief ``value`` spells; errors are raised at paths relative to it
    obj = _expect_object(value, "", _BELIEF_FIELDS, _BELIEF)
    prop = _parse_str(obj["prop"], ".prop", parse)
    level = _parse_str(obj["level"], ".level", StrengthLevel.parse)
    return _trusted_belief(prop, _parse_source(obj["source"], level, parse))


def _parse_beliefs(
    value: Any, path: str, label: str, parse: Callable[[str], Proposition], index: dict
) -> tuple[dict, Optional[StructureError]]:
    """The store side of the belief list at ``path``, read by
    ``beliefs._index``, and its first duplicate or contradiction."""

    def read(item: Any, i: int) -> Belief:
        # an item the plain path of ``_index`` does not take
        try:
            return _parse_belief(item, parse)
        except ScenarioError as exc:
            raise _under(f"{path}[{i}]", exc) from None

    items = _expect_list(value, path)
    return _index(items, label, index, read, _PLAIN_SOURCES) if items else ({}, None)


def _parse_agent(value: Any, path: str, parse: Callable[[str], Proposition]) -> AgentSpec:
    obj = _expect_object(value, path, _AGENT_FIELDS, _AGENT)
    agent_id = _expect_str(obj["id"], f"{path}.id")
    expertise = _parse_str(obj["expertise"], f"{path}.expertise", Expertise.parse)
    # a malformed item in either list is reported before a duplicate or a
    # contradiction in either
    index: dict = {}
    own, fault = _parse_beliefs(obj["beliefs"], f"{path}.beliefs", "own beliefs", parse, index)
    model, model_fault = _parse_beliefs(
        obj.get("userModel", []), f"{path}.userModel", "user model", parse, index
    )
    if fault or model_fault:
        raise ScenarioError(path, str(fault or model_fault))
    return AgentSpec(agent_id, _trusted(own, model, expertise, index, parse))


def _parse_node(value: Any, path: str, parse: Callable[[str], Proposition]) -> ProposalNode:
    """The proposal node at ``path``.  Its children are read at the empty
    path, and an error's path is put after this node's as it unwinds, so a
    valid tree spells no path below its root."""
    obj = _expect_object(value, path, _NODE_FIELDS, _NODE)
    prop = _parse_str(obj["prop"], f"{path}.prop", parse)
    level = _parse_str(obj["assertedLevel"], f"{path}.assertedLevel", StrengthLevel.parse)
    children = []
    for i, child in enumerate(_expect_list(obj.get("children", []), f"{path}.children")):
        try:
            children.append(_parse_node(child, "", parse))
        except ScenarioError as exc:
            raise _under(f"{path}.children[{i}]", exc) from None
    return ProposalNode(prop, level, tuple(children))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        return _parse_document(text)
    except RecursionError:
        raise ScenarioError("$", "document nested too deeply") from None


def _parse_document(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None

    obj = _expect_object(
        data, "$", {"v", "agents", "proposal", "config"}, ("v", "agents", "proposal")
    )
    version = obj["v"]
    if not isinstance(version, int) or isinstance(version, bool) or version != FORMAT_VERSION:
        raise ScenarioError("$.v", f"unsupported version: {version!r}")

    agents_raw = _expect_list(obj["agents"], "$.agents")
    if len(agents_raw) != 2:
        raise ScenarioError("$.agents", f"expected exactly 2 agents, got {len(agents_raw)}")
    # one parser for the whole document, so each text is parsed once
    parse = proposition_parser()
    agents = tuple(_parse_agent(a, f"$.agents[{i}]", parse) for i, a in enumerate(agents_raw))
    if agents[0].id == agents[1].id:
        raise ScenarioError("$.agents", f"agent ids must differ, both are {agents[0].id!r}")

    proposal = _parse_node(obj["proposal"], "$.proposal", parse)
    try:
        validate_tree(proposal)
    except StructureError as exc:
        raise ScenarioError("$.proposal", str(exc)) from None

    limits = {"tau": NegotiationConfig.tau, "maxDepth": NegotiationConfig.max_depth}
    config = _expect_object(obj.get("config", {}), "$.config", limits.keys())
    for key in limits:
        value = config.get(key, limits[key])
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ScenarioError(f"$.config.{key}", "must be an integer >= 1")
        limits[key] = value

    return Scenario(agents, proposal, limits["tau"], limits["maxDepth"])


def _render_source(endorsement: Endorsement) -> Any:
    if endorsement.kind is SourceKind.ASSERTION:
        speaker = {"speaker": endorsement.speaker, "expertise": endorsement.expertise.value}
        return {"assertion": speaker}
    if endorsement.kind is SourceKind.DERIVED:
        support = sorted(endorsement.support)
        return {"derived": {"from": [p.render(ascii_not=True) for p in support]}}
    # a plain source is spelt as its kind, the way ``_PLAIN_SOURCES`` reads it
    return endorsement.kind.value


def _render_belief(belief: Belief) -> dict:
    return {
        "prop": belief.prop.render(ascii_not=True),
        "level": belief.endorsement.level.render(),
        "source": _render_source(belief.endorsement),
    }


def _render_node(node: ProposalNode, parent, i, children: list) -> dict:
    # one proposal node as JSON values, given its children's; ``fold`` calls
    # it once per node, so the tree is written with no self-call
    prop, level = node.prop.render(ascii_not=True), node.asserted_level.render()
    return {"prop": prop, "assertedLevel": level, "children": children}


def render_scenario(scenario: Scenario) -> str:
    """Canonical text form; parsing it yields an equal Scenario.  The
    indented ``json.dumps`` recurses once per proposal level, so a proposal
    deeper than about 490 levels (at the default recursion limit) raises
    ``ScenarioError`` at ``$.proposal``."""
    agents = [
        {
            "id": agent.id,
            "expertise": agent.kb.expertise.value,
            "beliefs": [_render_belief(b) for b in agent.kb.own],
            "userModel": [_render_belief(b) for b in agent.kb.user_model],
        }
        for agent in scenario.agents
    ]
    data = {
        "v": FORMAT_VERSION,
        "agents": agents,
        "proposal": fold(scenario.proposal, _render_node),
        "config": {"tau": scenario.tau, "maxDepth": scenario.max_depth},
    }
    try:
        return json.dumps(data, indent=2, ensure_ascii=False) + "\n"
    except RecursionError:
        # the agents are flat: only the proposal nests
        raise ScenarioError("$.proposal", "proposal nested too deeply to render") from None
