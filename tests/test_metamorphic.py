"""Metamorphic relations: the engine checked against itself on a transformed
scenario text, with no kept copy of replaced code as the oracle.

Each row is a transform of a scenario's JSON document and an inverse map on
the final stores of the transformed run.  The parts compared are the
transcript lines, the outcome, the trace NDJSON and ``render_scenario`` of
the final stores.
"""

import functools
import json
import random
from dataclasses import replace

import pytest

from parley import AgentSpec, KnowledgeBase, Scenario, parse_scenario, render_scenario
from parley.trace import Trace

from conftest import disputed_correction_scenario, random_scenario, run_scenario

CORPORA = {"random": (random_scenario, 500), "disputed": (disputed_correction_scenario, 250)}


def unchanged(final: Scenario) -> Scenario:
    return final


def outputs(text: str, inverse=unchanged) -> dict:
    """The parts of one negotiation of ``text`` that a relation compares,
    the final stores mapped by ``inverse`` before they are rendered."""
    scenario = parse_scenario(text)
    trace = Trace()
    transcript = run_scenario(scenario, trace)
    agents = tuple(AgentSpec(a.id, transcript.final_beliefs[a.id]) for a in scenario.agents)
    final = Scenario(agents, scenario.proposal, scenario.tau, scenario.max_depth)
    return {
        "transcript": transcript.realize(),
        "outcome": transcript.outcome,
        "trace": trace.to_ndjson(),
        "stores": render_scenario(inverse(final)),
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


@functools.cache
def untransformed(corpus: str, seed: int) -> tuple[str, dict]:
    # shared by every relation's run over the corpus
    text = render_scenario(CORPORA[corpus][0](random.Random(seed)))
    return text, outputs(text)


RELATIONS = {"shuffle": (shuffle_beliefs, unchanged), "filler": (add_filler, strip_filler)}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_relation_holds_over_the_corpus(relation, corpus):
    transform, inverse = RELATIONS[relation]
    count = CORPORA[corpus][1]
    changed = 0
    for seed in range(count):
        text, expected = untransformed(corpus, seed)
        doc = json.loads(text)
        transform(doc, random.Random(seed))
        changed += doc != json.loads(text)
        assert outputs(json.dumps(doc), inverse) == expected, (corpus, seed)
    # most inputs are really transformed
    assert changed > count // 2
