"""Metamorphic relations: the engine checked against itself on a transformed
scenario, with no kept copy of replaced code as the oracle.

Each row runs a scenario transformed in one way that should not matter (its
JSON document edited, its agents handed over in the other order, the drawn
object run without its text, its predicates renamed) and maps the outputs
back.  The parts compared are the transcript lines, the outcome, the trace
NDJSON and the final stores, each written as ``render_scenario`` writes it.
"""

import functools
import json
import random
import re
from dataclasses import replace

import pytest

from parley import (
    AgentSpec,
    KnowledgeBase,
    NegotiationConfig,
    Scenario,
    negotiate,
    parse_scenario,
    render_scenario,
)
from parley.scenario import _render_belief
from parley.trace import Trace

from conftest import disputed_correction_scenario, random_scenario

CORPORA = {"random": (random_scenario, 500), "disputed": (disputed_correction_scenario, 250)}


def unchanged(final: Scenario) -> Scenario:
    return final


def outputs(scenario: Scenario, inverse=unchanged, order=list) -> dict:
    """The parts of one negotiation of ``scenario`` that a relation
    compares: the agents are handed to ``negotiate`` in ``order``, and the
    final stores mapped by ``inverse`` before they are rendered."""
    trace = Trace()
    kbs = {a.id: a.kb for a in order(scenario.agents)}
    config = NegotiationConfig(tau=scenario.tau, max_depth=scenario.max_depth)
    transcript = negotiate(kbs, scenario.proposer.id, scenario.proposal, config, trace=trace)
    agents = tuple(AgentSpec(a.id, transcript.final_beliefs[a.id]) for a in scenario.agents)
    final = inverse(Scenario(agents, scenario.proposal, scenario.tau, scenario.max_depth))
    # each store as ``render_scenario`` writes it, without its indenting
    # encoder, which would take most of the module's time
    stores = [
        [a.id, a.kb.expertise.value]
        + [[_render_belief(b) for b in side] for side in (a.kb.own, a.kb.user_model)]
        for a in final.agents
    ]
    return {
        "transcript": "\n".join(transcript.realize()),
        "outcome": transcript.outcome,
        "trace": trace.to_ndjson(),
        "stores": json.dumps(stores, ensure_ascii=False),
    }


def shuffle_beliefs(doc: dict, rng: random.Random) -> None:
    # a store's order means nothing
    for agent in doc["agents"]:
        for key in ("beliefs", "userModel"):
            rng.shuffle(agent[key])


def add_filler(doc: dict, rng: random.Random) -> None:
    # plain beliefs, literals and relations between them, whose predicates
    # nothing else in the scenario names: the dispute never reads them
    for agent in doc["agents"]:
        literals = [f"{rng.choice(['', '~'])}filler{i}(f)" for i in range(rng.randint(1, 6))]
        relations = {f"supports({a}, {b})" for a in literals for b in literals if a != b}
        chosen = literals + rng.sample(sorted(relations), min(len(relations), rng.randint(0, 4)))
        for prop in chosen:
            level = rng.choice(["weak", "strong", "warranted"])
            source = rng.choice(["kb-record", "stereotype"])
            agent["beliefs"].append({"prop": prop, "level": level, "source": source})


def strip_filler(final: Scenario) -> Scenario:
    # the filler leaves each agent's own beliefs as it came; anything of it
    # elsewhere is a difference
    agents = tuple(
        AgentSpec(
            agent.id,
            KnowledgeBase(
                [b for b in agent.kb.own if "filler" not in b.prop.render()],
                agent.kb.user_model,
                agent.kb.expertise,
            ),
        )
        for agent in final.agents
    )
    return replace(final, agents=agents)


def on_document(transform, inverse=unchanged):
    """The row that runs the scenario's JSON document as ``transform``
    leaves it, the final stores mapped back by ``inverse``."""

    def row(drawn: Scenario, parsed: Scenario, text: str, rng) -> tuple[bool, dict]:
        doc = json.loads(text)
        transform(doc, rng)
        return doc != json.loads(text), outputs(parse_scenario(json.dumps(doc)), inverse)

    return row


def reversed_kbs(drawn: Scenario, parsed: Scenario, text: str, rng) -> tuple[bool, dict]:
    # the order of ``kbs`` means nothing: the proposer is named
    return True, outputs(parsed, order=lambda agents: agents[::-1])


def unparsed(drawn: Scenario, parsed: Scenario, text: str, rng) -> tuple[bool, dict]:
    # the drawn scenario runs as its rendering parsed back does
    return True, outputs(drawn)


def renamed(drawn: Scenario, parsed: Scenario, text: str, rng) -> tuple[bool, dict]:
    # ``pi`` becomes ``qi``, which keeps every text's canonical order, and
    # back again in every output
    renamed_text = re.sub(r"\bp(\d)", r"q\1", text)
    got = outputs(parse_scenario(renamed_text))
    back = {part: re.sub(r"\bq(\d)", r"p\1", value) for part, value in got.items()}
    return renamed_text != text, back


@functools.cache
def untransformed(corpus: str, seed: int) -> tuple[Scenario, Scenario, str, dict]:
    # shared by every relation's run over the corpus: the drawn scenario,
    # its text parsed back, the text and the outputs of the parsed one
    drawn = CORPORA[corpus][0](random.Random(seed))
    text = render_scenario(drawn)
    parsed = parse_scenario(text)
    return drawn, parsed, text, outputs(parsed)


RELATIONS = {
    "shuffle": on_document(shuffle_beliefs),
    "filler": on_document(add_filler, strip_filler),
    "reverse-kbs": reversed_kbs,
    "render-parse": unparsed,
    "rename": renamed,
}
# the disputed corpus names no ``pi``
CASES = [
    (relation, corpus)
    for relation in sorted(RELATIONS)
    for corpus in sorted(CORPORA)
    if (relation, corpus) != ("rename", "disputed")
]


@pytest.mark.parametrize("relation, corpus", CASES)
def test_relation_holds_over_the_corpus(relation, corpus):
    count = CORPORA[corpus][1]
    changed = 0
    for seed in range(count):
        *inputs, expected = untransformed(corpus, seed)
        transformed, got = RELATIONS[relation](*inputs, random.Random(seed))
        changed += transformed
        assert got == expected, (corpus, seed)
    # most inputs are really transformed
    assert changed > count // 2
