"""Shared helpers: bundled scenario loading, the benchmark's span recorder and
seeded random generators."""

from __future__ import annotations

import importlib.util
import random
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import strategies as st

from parley import (
    Belief,
    Endorsement,
    Expertise,
    KnowledgeBase,
    NegotiationConfig,
    ProposalNode,
    Proposition,
    Scenario,
    SourceKind,
    StrengthLevel,
    negotiate,
    parse_proposition,
    parse_scenario,
    supports_prop,
)
from parley.trace import Trace

LEVELS = (StrengthLevel.WEAK, StrengthLevel.STRONG, StrengthLevel.WARRANTED)

# the level of a bare assertion by a speaker of each expertise, spelled out
# here so that reference implementations need not go through ``Speaker``
ASSERTED_LEVEL = {
    Expertise.EXPERT: StrengthLevel.WARRANTED,
    Expertise.NON_EXPERT: StrengthLevel.STRONG,
}


def asserted(level: StrengthLevel, speaker: str, expertise: Expertise) -> Endorsement:
    """An assertion endorsement from the raw constructor."""
    return Endorsement(level, SourceKind.ASSERTION, speaker, expertise)


def load_bundled(name: str) -> Scenario:
    text = resources.files("parley.scenarios").joinpath(f"{name}.scenario").read_text()
    return parse_scenario(text)


def run_scenario(scenario: Scenario, trace: Trace | None = None):
    return negotiate(
        {agent.id: agent.kb for agent in scenario.agents},
        scenario.proposer.id,
        scenario.proposal,
        NegotiationConfig(tau=scenario.tau, max_depth=scenario.max_depth),
        trace=trace,
    )


def dissenters(transcript) -> list[str]:
    """The agents whose final store holds the negation of the ratified root."""
    root = transcript.ratified_root
    if root is None:
        return []
    return sorted(a for a, kb in transcript.final_beliefs.items() if kb.holds(root.negate()))


@pytest.fixture
def smith() -> Scenario:
    return load_bundled("smith")


def load_bench(name: str):
    """``bench/<name>.py``, loaded read-only from the checkout.  While it
    loads, its sibling modules import by bare name, as when it runs as a
    script."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    sys.path.insert(0, str(bench))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def ground(name: str, negated: bool = False) -> Proposition:
    return Proposition(negated, name, ("x",))


# ---------------------------------------------------------------------------
# random belief stores for the search and robustness suites


def random_store(rng: random.Random, names: list[str], max_beliefs: int = 6) -> KnowledgeBase:
    """A contradiction-free store over ground props and relations on them."""
    polarity = {name: rng.choice([False, True]) for name in names}

    def lit(name: str) -> Proposition:
        return ground(name, polarity[name])

    held: list[str] = []
    beliefs: list[Belief] = []
    seen: set[Proposition] = set()
    for name in rng.sample(names, rng.randint(1, min(max_beliefs, len(names)))):
        level = rng.choice(LEVELS)
        if held and rng.random() < 0.25:
            basis = rng.sample(held, rng.randint(1, min(2, len(held))))
            endorsement = Endorsement.derived(level, [lit(b) for b in basis])
        else:
            endorsement = rng.choice(
                [Endorsement.kb_record(level), Endorsement.stereotype(level)]
            )
        beliefs.append(Belief(lit(name), endorsement))
        seen.add(lit(name))
        held.append(name)
    for _ in range(rng.randint(0, max_beliefs)):
        a, b = rng.sample(names, 2)
        rel = supports_prop(lit(a), ground(b, rng.choice([False, True])))
        if rel in seen:
            continue
        seen.add(rel)
        beliefs.append(Belief(rel, Endorsement.kb_record(rng.choice(LEVELS))))
    return KnowledgeBase(own=tuple(beliefs), expertise=rng.choice(list(Expertise)))


def random_revision_case(rng: random.Random):
    """A store, a target, one pool of presented evidence for either side,
    and a threshold."""
    from parley import EvidencePiece

    names = [f"p{i}" for i in range(5)]
    kb = random_store(rng, names)
    target = ground(rng.choice(names), rng.choice([False, True]))
    speaker_level = rng.choice(LEVELS)
    presented = []
    for _ in range(rng.randint(0, 3)):
        side = rng.choice([target, target.negate()])
        basis = ground(rng.choice(names + ["q"]), rng.choice([False, True]))
        if basis in (side, side.negate()):
            continue
        presented.append(
            EvidencePiece(
                Belief(basis, Endorsement.kb_record(rng.choice(LEVELS))),
                Belief(supports_prop(basis, side), Endorsement.kb_record(speaker_level)),
            )
        )
    return kb, target, presented, rng.choice([1, 2, 3])


def random_scenario(rng: random.Random) -> Scenario:
    """A small two-agent scenario with a real chance of disagreement."""
    from parley.scenario import AgentSpec

    names = [f"p{i}" for i in range(rng.randint(3, 6))]
    kb_a = random_store(rng, names)
    kb_b = random_store(rng, names)

    root_name = rng.choice(names)
    root_held = kb_a.own_belief(ground(root_name)) or kb_a.own_belief(ground(root_name, True))
    if root_held is not None:
        root = root_held.prop
        root_level = root_held.endorsement.level
    else:
        root = ground(root_name, rng.choice([False, True]))
        root_level = rng.choice(LEVELS)

    children = []
    for name in rng.sample(names, rng.randint(0, 2)):
        if name == root_name:
            continue
        held = kb_a.own_belief(ground(name)) or kb_a.own_belief(ground(name, True))
        if held is None:
            continue
        children.append(ProposalNode(held.prop, held.endorsement.level))
    proposal = ProposalNode(root, root_level, tuple(children))

    return Scenario(
        agents=(AgentSpec("A", kb_a), AgentSpec("B", kb_b)),
        proposal=proposal,
        tau=rng.choice([1, 1, 2]),
        max_depth=16,
    )


# the stores of test_disputed_correction_is_proposed_by_the_corrector, less
# P's derived r, and beliefs either agent may also hold; none contradicts
# another, so any of them may go to either store
DISPUTING_P = ("supports(r, ~r)", "x", "supports(x, r)", "supports(~r, r)")
DISPUTING_E = ("~r", "~m", "y", "supports(y, ~m)", "supports(~m, ~r)")
DISPUTING_EXTRAS = (
    "z", "w", "~q", "supports(z, ~r)", "supports(w, ~m)", "supports(z, r)", "supports(q, r)"
)


def disputed_correction_scenario(rng: random.Random) -> Scenario:
    """P proposes r, with m and maybe x beneath it, to E, from stores like
    those of the disputed-correction fixture: E's correction ¬r is often
    disputed, so that E proposes it in turn."""
    from parley.scenario import AgentSpec

    def plain(prop: str) -> Belief:
        source = rng.choice([Endorsement.kb_record, Endorsement.stereotype])
        return Belief(parse_proposition(prop), source(rng.choice(LEVELS)))

    r, q = parse_proposition("r"), parse_proposition("q")
    own_p = [Belief(r, Endorsement.derived(rng.choice(LEVELS), [q]))]
    own_p += [plain(prop) for prop in DISPUTING_P]
    own_e = [plain(prop) for prop in DISPUTING_E]
    for prop in rng.sample(DISPUTING_EXTRAS, rng.randint(0, 5)):
        rng.choice([own_p, own_e]).append(plain(prop))
    children = [ProposalNode(parse_proposition("m"), rng.choice(LEVELS))]
    if rng.random() < 0.5:
        children.append(ProposalNode(parse_proposition("x"), rng.choice(LEVELS)))
    return Scenario(
        agents=(
            AgentSpec("P", KnowledgeBase(own_p, expertise=rng.choice(list(Expertise)))),
            AgentSpec("E", KnowledgeBase(own_e, expertise=rng.choice(list(Expertise)))),
        ),
        proposal=ProposalNode(r, rng.choice(LEVELS), tuple(children)),
        tau=rng.choice([1, 1, 2]),
        max_depth=16,
    )


def flat_chain(n: int) -> dict:
    """S holds ``~s0`` .. ``~sn``, each ``~s(i+1)`` supporting ``~si``; U and
    S's model of U hold ``s0`` .. ``s(n-1)``.  Refuting U's ``s0`` takes a
    justification chain n links long, though no JSON value nests."""

    def record(prop: str) -> dict:
        return {"prop": prop, "level": "warranted", "source": "kb-record"}

    held = [record(f"s{i}") for i in range(n)]
    counter = [record(f"~s{i}") for i in range(n + 1)]
    counter += [record(f"supports(~s{i + 1}, ~s{i})") for i in range(n)]
    return {
        "v": 1,
        "agents": [
            {"id": "U", "expertise": "non-expert", "beliefs": held},
            {"id": "S", "expertise": "expert", "beliefs": counter, "userModel": held},
        ],
        "proposal": {"prop": "s0", "assertedLevel": "warranted"},
    }


def assert_index_covers(kb) -> None:
    # the consequent index a store shares with its lineage only grows: it
    # lists, each under its consequent, only the texts of positive
    # relations, and every one that either side of this store holds
    indexed = {(key, rel) for key, bucket in kb._by_consequent.items() for rel in bucket}
    for key, text in indexed:
        r = parse_proposition(text)
        assert r.is_relation and not r.negated and r.render() == text and r.args[1]._text == key
    held = [parse_proposition(text) for text in (*kb._own, *kb._model)]
    assert {(p.args[1]._text, p._text) for p in held if p.is_relation and not p.negated} <= indexed


def added_in_turn(beliefs) -> tuple:
    # what a store holds after adding ``beliefs`` one by one
    side = {}
    for b in beliefs:
        side.pop(b.prop.negate(), None)
        side[b.prop] = b
    return tuple(side.values())


# proposal trees and stores about them, for the hypothesis oracles

TREE_NAMES = ("p", "q", "r", "s")
TREE_LITERALS = [ground(n, negated) for n in TREE_NAMES for negated in (False, True)]
TREE_RELATIONS = [supports_prop(a, b) for a in TREE_LITERALS for b in TREE_LITERALS if a != b]
store_beliefs = st.builds(
    Belief,
    st.one_of(
        st.sampled_from(TREE_LITERALS),
        st.sampled_from(TREE_RELATIONS + [r.negate() for r in TREE_RELATIONS]),
    ),
    st.one_of(
        st.sampled_from(LEVELS).map(Endorsement.kb_record),
        st.builds(
            asserted,
            st.sampled_from(LEVELS),
            st.just("u"),
            st.sampled_from(Expertise),
        ),
    ),
)


@st.composite
def proposal_trees(draw, path=frozenset()):
    """A tree over four names that names each at most once per path, so a
    proposition may repeat in two branches and its negation sit in a
    sibling branch."""
    name = draw(st.sampled_from([n for n in TREE_NAMES if n not in path]))
    path = path | {name}
    children = ()
    if len(path) < len(TREE_NAMES) and draw(st.booleans()):
        children = tuple(draw(st.lists(proposal_trees(path), min_size=1, max_size=3)))
    return ProposalNode(ground(name, draw(st.booleans())), draw(st.sampled_from(LEVELS)), children)


def beliefs_about(props):
    """Beliefs in each of ``props``, or its negation, from a record at any
    level."""
    return st.builds(
        lambda prop, negate, level: Belief(
            prop.negate() if negate else prop, Endorsement.kb_record(level)
        ),
        st.sampled_from(props),
        st.booleans(),
        st.sampled_from(LEVELS),
    )
