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
    StrengthLevel,
    StructureError,
    _EXPERTISE_BY_TEXT,
    _LEVELS_BY_TEXT,
    _PLAIN_SOURCES,
    _index,
    _trusted,
    _trusted_assertion,
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


# the fields of the objects the readers check: the required ones, as the
# keys of a dict, in the order a missing one is reported, and every one
# allowed.  A reader compares a value's keys with these inline, and calls a
# helper only to spell the error of a test that failed.
_DOCUMENT = dict.fromkeys(("v", "agents", "proposal")).keys()
_BELIEF = dict.fromkeys(("prop", "level", "source")).keys()
_ASSERTION = dict.fromkeys(("speaker", "expertise")).keys()
_NODE = dict.fromkeys(("prop", "assertedLevel")).keys()
_NODE_FIELDS = _NODE | {"children"}
_AGENT = dict.fromkeys(("id", "expertise", "beliefs")).keys()
_AGENT_FIELDS = _AGENT | {"userModel"}


def _object_error(value: Any, path: str, allowed: AbstractSet, required=()) -> ScenarioError:
    if not isinstance(value, dict):
        return ScenarioError(path, f"expected an object, got {type(value).__name__}")
    if not value.keys() <= allowed:
        return ScenarioError(path, f"unknown field(s): {', '.join(sorted(value.keys() - allowed))}")
    return ScenarioError(path, f"missing field: {next(k for k in required if k not in value)}")


def _list_error(value: Any, path: str) -> ScenarioError:
    return ScenarioError(path, f"expected a list, got {type(value).__name__}")


def _text_error(value: Any, path: str, parse: Optional[Callable] = None) -> ScenarioError:
    # ``value`` is no non-empty string, or one that ``parse`` refuses.  The
    # document's parser refuses a text with a StructureError and what is no
    # string with a TypeError, so its callers catch both and ask this which.
    if parse is not None and isinstance(value, str) and value:
        try:
            parse(value)
        except StructureError as exc:
            return ScenarioError(path, str(exc))
    return ScenarioError(path, "expected a non-empty string")


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
    if value.keys() == {"derived"}:
        body = value["derived"]
        if not isinstance(body, dict) or not body.keys() <= {"from"}:
            raise _object_error(body, ".source.derived", {"from"})
        props = body.get("from")
        if not isinstance(props, list):
            raise _list_error(props, ".source.derived.from")
        if not props:
            raise ScenarioError(".source.derived.from", "must not be empty")
        support = []
        for i, text in enumerate(props):
            try:
                support.append(parse(text))
            except (StructureError, TypeError):
                raise _text_error(text, f".source.derived.from[{i}]", parse) from None
        # a parsed level and a nonempty list of parsed propositions
        return _trusted_derived(level, frozenset(support))
    if value.keys() == {"assertion"}:
        body = value["assertion"]
        if not isinstance(body, dict) or body.keys() != _ASSERTION:
            raise _object_error(body, ".source.assertion", _ASSERTION, _ASSERTION)
        speaker, raw = body["speaker"], body["expertise"]
        if not isinstance(speaker, str) or not speaker:
            raise _text_error(speaker, ".source.assertion.speaker")
        if not isinstance(raw, str) or raw not in _EXPERTISE_BY_TEXT:
            raise _text_error(raw, ".source.assertion.expertise", Expertise.parse)
        # a parsed level, a non-empty name and a parsed expertise
        return _trusted_assertion(level, speaker, _EXPERTISE_BY_TEXT[raw])
    raise ScenarioError(".source", "source object must be {'assertion': ...} or {'derived': ...}")


def _parse_belief(value: Any, parse: Callable[[str], Proposition]) -> Belief:
    # the belief ``value`` spells; errors are raised at paths relative to it
    if not isinstance(value, dict) or value.keys() != _BELIEF:
        raise _object_error(value, "", _BELIEF, _BELIEF)
    try:
        prop = parse(value["prop"])
    except (StructureError, TypeError):
        raise _text_error(value["prop"], ".prop", parse) from None
    raw = value["level"]
    if not isinstance(raw, str) or raw not in _LEVELS_BY_TEXT:
        raise _text_error(raw, ".level", StrengthLevel.parse)
    return _trusted_belief(prop, _parse_source(value["source"], _LEVELS_BY_TEXT[raw], parse))


def _parse_beliefs(
    value: dict, path: str, key: str, label: str, parse: Callable[[str], Proposition], index: dict
) -> tuple[dict, Optional[StructureError]]:
    # the store side of the agent's belief list ``key``, read by
    # ``beliefs._index``, and its first duplicate or contradiction
    items = value.get(key, [])
    if not isinstance(items, list):
        raise _list_error(items, f"{path}.{key}")
    if not items:
        return {}, None

    def read(item: Any, i: int) -> Belief:
        # an item the plain path of ``_index`` does not take
        try:
            return _parse_belief(item, parse)
        except ScenarioError as exc:
            raise _under(f"{path}.{key}[{i}]", exc) from None

    return _index(items, label, index, read, _PLAIN_SOURCES)


def _parse_agent(value: Any, path: str, parse: Callable[[str], Proposition]) -> AgentSpec:
    if not isinstance(value, dict) or not _AGENT <= value.keys() <= _AGENT_FIELDS:
        raise _object_error(value, path, _AGENT_FIELDS, _AGENT)
    agent_id, raw = value["id"], value["expertise"]
    if not isinstance(agent_id, str) or not agent_id:
        raise _text_error(agent_id, f"{path}.id")
    if not isinstance(raw, str) or raw not in _EXPERTISE_BY_TEXT:
        raise _text_error(raw, f"{path}.expertise", Expertise.parse)
    # a malformed item in either list is reported before a duplicate or a
    # contradiction in either
    index: dict = {}
    own, fault = _parse_beliefs(value, path, "beliefs", "own beliefs", parse, index)
    model, model_fault = _parse_beliefs(value, path, "userModel", "user model", parse, index)
    if fault or model_fault:
        raise ScenarioError(path, str(fault or model_fault))
    return AgentSpec(agent_id, _trusted(own, model, _EXPERTISE_BY_TEXT[raw], index, parse))


def _parse_node(value: Any, path: str, parse: Callable[[str], Proposition]) -> ProposalNode:
    """The proposal node at ``path``.  Its children are read at the empty
    path, and an error's path is put after this node's as it unwinds, so a
    valid tree spells no path below its root."""
    if not isinstance(value, dict) or not _NODE <= value.keys() <= _NODE_FIELDS:
        raise _object_error(value, path, _NODE_FIELDS, _NODE)
    try:
        prop = parse(value["prop"])
    except (StructureError, TypeError):
        raise _text_error(value["prop"], f"{path}.prop", parse) from None
    raw, items = value["assertedLevel"], value.get("children", [])
    if not isinstance(raw, str) or raw not in _LEVELS_BY_TEXT:
        raise _text_error(raw, f"{path}.assertedLevel", StrengthLevel.parse)
    if not isinstance(items, list):
        raise _list_error(items, f"{path}.children")
    children = []
    for i, child in enumerate(items):
        try:
            children.append(_parse_node(child, "", parse))
        except ScenarioError as exc:
            raise _under(f"{path}.children[{i}]", exc) from None
    return ProposalNode(prop, _LEVELS_BY_TEXT[raw], tuple(children))


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

    if not isinstance(data, dict) or not _DOCUMENT <= data.keys() <= _DOCUMENT | {"config"}:
        raise _object_error(data, "$", _DOCUMENT | {"config"}, _DOCUMENT)
    version = data["v"]
    if not isinstance(version, int) or isinstance(version, bool) or version != FORMAT_VERSION:
        raise ScenarioError("$.v", f"unsupported version: {version!r}")

    agents_raw = data["agents"]
    if not isinstance(agents_raw, list):
        raise _list_error(agents_raw, "$.agents")
    if len(agents_raw) != 2:
        raise ScenarioError("$.agents", f"expected exactly 2 agents, got {len(agents_raw)}")
    # one parser for the whole document, so each text is parsed once
    parse = proposition_parser()
    agents = tuple(map(_parse_agent, agents_raw, ("$.agents[0]", "$.agents[1]"), (parse, parse)))
    if agents[0].id == agents[1].id:
        raise ScenarioError("$.agents", f"agent ids must differ, both are {agents[0].id!r}")

    proposal = _parse_node(data["proposal"], "$.proposal", parse)
    try:
        validate_tree(proposal)
    except StructureError as exc:
        raise ScenarioError("$.proposal", str(exc)) from None

    limits = {"tau": NegotiationConfig.tau, "maxDepth": NegotiationConfig.max_depth}
    config = data.get("config", {})
    if not isinstance(config, dict) or not config.keys() <= limits.keys():
        raise _object_error(config, "$.config", limits.keys())
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
