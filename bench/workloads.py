"""Seeded scenario generators for the benchmark workloads.

Every generator builds scenario documents as plain JSON text, without
calling into parley, so the program under test sees only the finished
inputs.  The same seed always yields the same texts.

Each workload returns a list of ``Case``: a label, the scenario text and the
shape facts that any correct engine must reproduce on it (see ``Shape``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

LEVELS = ("weak", "strong", "warranted")
BUNDLED = ("both", "evidence", "nest", "smith", "tie", "visit")

RANDOM_SCENARIOS = 15000
WIDE_N = 1500
DEEP_D = 50
FANOUT_K = 10
FANOUT_CHILDREN = 4
# One input per size and seed for each heavy workload; the timed loop
# cycles them.  Sizes spread around the nominal one so that operation times
# form one continuous distribution, and the median moves smoothly, rather
# than jumping between two modes, when the CPU speed changes during a run.
HEAVY_SIZES = {
    "wide_store": (1000, 1250, 1500, 1750, 2000),
    "deep_chain": (40, 45, 50, 55, 60),
    "search_fanout": (2, 3, 4, 5, 6),
}


@dataclass(frozen=True)
class Shape:
    """Output facts a correct optimisation cannot change.

    ``outcome`` is the transcript outcome; ``ratified`` the rendered
    ratified root (``~`` negation); ``min_evaluator_beliefs`` a floor on the
    parsed evaluator store; ``nodes`` the proposal's node count;
    ``survivors`` the ``candidates`` of the first ``heuristic`` record and
    ``minset`` whether a ``minset`` record must appear.
    """

    outcome: Optional[str] = None
    ratified: Optional[str] = None
    min_evaluator_beliefs: int = 0
    nodes: Optional[int] = None
    survivors: Optional[int] = None
    minset: bool = False


@dataclass(frozen=True)
class Case:
    label: str
    text: str
    # one shared instance for the inputs that carry no shape facts
    shape: Shape = Shape()


def lit(name: str, arg: str, negated: bool = False) -> str:
    return f"{'~' if negated else ''}{name}({arg})"


def neg(prop: str) -> str:
    return prop[1:] if prop.startswith("~") else "~" + prop


def supports(a: str, b: str) -> str:
    return f"supports({a}, {b})"


def belief(prop: str, level: str, source="kb-record") -> dict:
    return {"prop": prop, "level": level, "source": source}


def derived(*basis: str) -> dict:
    return {"derived": {"from": list(basis)}}


def node(prop: str, level: str, children=()) -> dict:
    return {"prop": prop, "assertedLevel": level, "children": list(children)}


def document(agents: list, proposal: dict, tau: int = 1, max_depth: int = 16) -> str:
    return json.dumps(
        {"v": 1, "agents": agents, "proposal": proposal,
         "config": {"tau": tau, "maxDepth": max_depth}},
        ensure_ascii=False,
    )


def agent(agent_id: str, expertise: str, beliefs: list, model: list = ()) -> dict:
    return {"id": agent_id, "expertise": expertise, "beliefs": beliefs,
            "userModel": list(model)}


# ---------------------------------------------------------------------------
# bundled_mix: the shipped scenarios plus small random ones


def bundled_texts(scenario_dir: Path) -> dict[str, str]:
    return {
        name: (scenario_dir / f"{name}.scenario").read_text(encoding="utf-8")
        for name in BUNDLED
    }


def random_store(rng: random.Random, names: list[str], max_beliefs: int = 6):
    """The draw of ``tests/conftest.py:random_store`` as scenario JSON.

    Returns the belief list, the held literals (prop -> level) and the
    expertise.
    """
    polarity = {name: rng.choice([False, True]) for name in names}
    held: list[str] = []
    levels: dict[str, str] = {}
    beliefs: list[dict] = []
    seen: set[str] = set()
    for name in rng.sample(names, rng.randint(1, min(max_beliefs, len(names)))):
        level = rng.choice(LEVELS)
        if held and rng.random() < 0.25:
            basis = rng.sample(held, rng.randint(1, min(2, len(held))))
            source = derived(*sorted({lit(b, "x", polarity[b]) for b in basis}))
        else:
            source = rng.choice(["kb-record", "stereotype"])
        prop = lit(name, "x", polarity[name])
        beliefs.append(belief(prop, level, source))
        levels[prop] = level
        seen.add(prop)
        held.append(name)
    for _ in range(rng.randint(0, max_beliefs)):
        a, b = rng.sample(names, 2)
        rel = supports(lit(a, "x", polarity[a]), lit(b, "x", rng.choice([False, True])))
        if rel in seen:
            continue
        seen.add(rel)
        beliefs.append(belief(rel, rng.choice(LEVELS)))
    expertise = rng.choice(["expert", "non-expert"])
    return beliefs, levels, expertise


def random_scenario(rng: random.Random) -> str:
    """The draw of ``tests/conftest.py:random_scenario`` as scenario text."""
    names = [f"p{i}" for i in range(rng.randint(3, 6))]
    beliefs_a, held_a, expertise_a = random_store(rng, names)
    beliefs_b, _, expertise_b = random_store(rng, names)

    def held(name: str) -> Optional[str]:
        for prop in (lit(name, "x"), lit(name, "x", True)):
            if prop in held_a:
                return prop
        return None

    root_name = rng.choice(names)
    root = held(root_name)
    if root is not None:
        root_level = held_a[root]
    else:
        root = lit(root_name, "x", rng.choice([False, True]))
        root_level = rng.choice(LEVELS)
    children = []
    for name in rng.sample(names, rng.randint(0, 2)):
        if name == root_name:
            continue
        prop = held(name)
        if prop is None:
            continue
        children.append(node(prop, held_a[prop]))
    return document(
        [agent("A", expertise_a, beliefs_a), agent("B", expertise_b, beliefs_b)],
        node(root, root_level, children),
        tau=rng.choice([1, 1, 2]),
    )


def bundled_mix(seed: int, scenario_dir: Path, count: int = RANDOM_SCENARIOS) -> list[Case]:
    cases = [
        Case(f"bundled:{name}", text,
             Shape(outcome="unresolved-needs-sharing" if name == "tie" else "agreement"))
        for name, text in bundled_texts(scenario_dir).items()
    ]
    rng = random.Random(f"bundled_mix:{seed}")
    cases.extend(Case(f"random:{i}", random_scenario(rng)) for i in range(count))
    return cases


# ---------------------------------------------------------------------------
# smith-shaped disagreements for the heavy workloads


def _entity(rng: random.Random) -> str:
    # fixed width, so variants of one workload cost the same to render
    return f"e{rng.randrange(10**6):06d}"


def _disagreement(
    who: str,
    children: list[tuple[str, list[tuple[str, str]]]],
    extra_s: list,
) -> tuple[list, dict, str]:
    """U proposes ``~teaches(who)`` on the strength of each child claim.

    ``children`` pairs each child proposition with S's counter-evidence for
    its negation, as (belief, belief level) tuples; every piece rests on a
    warranted relation, so each one alone outweighs U's warranted child.
    Returns the two agents, the proposal and the root S ratifies.
    """
    root = lit("teaches", who, True)
    u_beliefs = [belief(c, "warranted") for c, _ in children]
    u_beliefs += [belief(supports(c, root), "warranted") for c, _ in children]
    u_beliefs.append(belief(root, "strong", derived(*sorted(c for c, _ in children))))
    s_beliefs = [belief(neg(root), "warranted")]
    s_model = []
    for child, evidence in children:
        s_beliefs.append(belief(supports(child, root), "warranted"))
        for basis, level in evidence:
            relation = supports(basis, neg(child))
            s_beliefs.append(belief(basis, level))
            s_beliefs.append(belief(relation, "warranted"))
            s_model.append(belief(relation, "warranted", "stereotype"))
            u_beliefs.append(belief(relation, "warranted", "stereotype"))
    agents = [
        agent("U", "non-expert", u_beliefs),
        agent("S", "expert", s_beliefs + extra_s, s_model),
    ]
    proposal = node(root, "strong", [node(c, "warranted") for c, _ in children])
    return agents, proposal, neg(root)


def wide_store_case(rng: random.Random, n: int = WIDE_N) -> Case:
    """Smith's disagreement with ``n`` unrelated filler beliefs held by S.

    About two thirds of the filler are literals and one third relations
    between filler literals, so every evidence scan and every store copy
    walks the whole store while the dialogue itself stays smith-sized.
    """
    who = _entity(rng)
    filler: list[dict] = []
    literals: list[str] = []
    relations: set[str] = set()
    for i in range(n):
        if i % 3 == 2:
            relation = supports(*rng.sample(literals, 2))
            while relation in relations:
                relation = supports(*rng.sample(literals, 2))
            relations.add(relation)
            filler.append(belief(relation, rng.choice(LEVELS)))
        else:
            prop = lit(f"fact{i}", _entity(rng), rng.random() < 0.5)
            literals.append(prop)
            source = rng.choice(["kb-record", "stereotype"])
            filler.append(belief(prop, rng.choice(LEVELS), source))
    child = lit("on_sabbatical", who)
    evidence = [(lit("postponed_sabbatical", who), "warranted"),
                (lit("visitor", who, True), "strong")]
    agents, proposal, ratified = _disagreement(who, [(child, evidence)], filler)
    return Case(
        f"wide_store:n{n}",
        document(agents, proposal),
        Shape(outcome="agreement", ratified=ratified, min_evaluator_beliefs=n),
    )


def deep_chain_case(rng: random.Random, d: int = DEEP_D) -> Case:
    """A proposal chain of ``d`` nodes, each justified by the next, that S
    has no view on and so accepts node by node."""
    who = _entity(rng)
    props = [lit(f"step{i}", who, rng.random() < 0.5) for i in range(d)]
    u_beliefs = [belief(props[-1], "warranted")]
    for parent, child in zip(props, props[1:]):
        u_beliefs.append(belief(supports(child, parent), "warranted"))
        u_beliefs.append(belief(parent, "strong", derived(child)))
    proposal = node(props[-1], "warranted")
    for prop in reversed(props[:-1]):
        proposal = node(prop, "strong", [proposal])
    agents = [
        agent("U", "non-expert", u_beliefs),
        agent("S", "expert", [belief(lit("teaches", who), "warranted")]),
    ]
    return Case(
        f"deep_chain:d{d}",
        document(agents, proposal),
        Shape(outcome="agreement", ratified=props[0], nodes=d),
    )


def search_fanout_case(
    rng: random.Random, k: int = FANOUT_K, children: int = FANOUT_CHILDREN
) -> Case:
    """Smith's disagreement with several disputed children.

    S holds ``k`` pieces of evidence against the first child, each enough on
    its own, so justifying that correction searches all bundles of ``k``
    chains; the other children have two pieces each, as in smith.  Only
    removing every child flips U, so the minimal-set search tries every
    smaller subset first.
    """
    who = _entity(rng)
    spec = []
    for c in range(children):
        if c == 0:
            levels = [rng.choice(["strong", "warranted"]) for _ in range(k)]
        else:
            levels = ["warranted", "strong"]
        evidence = [(lit(f"reason{c}_{j}", who), level) for j, level in enumerate(levels)]
        spec.append((lit(f"claim{c}", who), evidence))
    agents, proposal, ratified = _disagreement(who, spec, [])
    return Case(
        f"search_fanout:k{k}c{children}",
        document(agents, proposal),
        Shape(outcome="agreement", ratified=ratified, survivors=k, minset=True),
    )


HEAVY = {
    "wide_store": lambda rng, size: wide_store_case(rng, n=size),
    "deep_chain": lambda rng, size: deep_chain_case(rng, d=size),
    "search_fanout": lambda rng, size: search_fanout_case(rng, children=size),
}
WORKLOADS = ("bundled_mix",) + tuple(HEAVY)


def generate(workload: str, seed: int, scenario_dir: Path) -> list[Case]:
    """The inputs of ``workload`` for ``seed``."""
    if workload == "bundled_mix":
        return bundled_mix(seed, scenario_dir)
    rng = random.Random(f"{workload}:{seed}")
    return [HEAVY[workload](rng, size) for size in HEAVY_SIZES[workload]]
