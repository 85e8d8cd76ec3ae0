"""Evidence-based justification of a claim for a particular hearer.

Before uttering a counter-claim, an agent checks whether the hearer would
take it on bare say-so: ``hearer_accepts`` with no chains weighs the claim
as ``Speaker.case`` builds it from the assertion alone.  If not, it
assembles chains of its own evidence, justifying in turn any link the
hearer would balk at, then picks the cheapest sufficient bundle: highest
worst-link confidence, then most novel to the hearer, then fewest beliefs,
then canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .beliefs import (
    KnowledgeBase,
    Proposition,
    Speaker,
    StrengthLevel,
    VerdictOutcome,
    build_evidence_set,
    minimal_subsets,
    revise,
)
from .evaluation import _tree_repr, walk


class NoSufficientJustification(RuntimeError):
    """No combination of available evidence would convince the hearer."""


@dataclass(frozen=True, eq=False)
class JustificationLink:
    """One piece of offered evidence: a belief, the relation tying it to its
    parent claim, and the strengths both are held at.  With the links that
    justify it in turn, a top link is a whole justification chain.  Links
    compare by identity, so a chain of any length hashes and prints."""

    prop: Proposition
    relation: Proposition
    belief_level: StrengthLevel
    relation_level: StrengthLevel
    children: tuple["JustificationLink", ...] = ()

    def __repr__(self) -> str:
        def label(n: JustificationLink) -> str:
            return f"{n.prop}, {n.relation}, {n.belief_level.render()}, {n.relation_level.render()}"

        return _tree_repr(self, label)

    def key(self) -> tuple[str, ...]:
        """The rendered proposition of every link, in preorder, built on
        each call: a link keeps no copy of its descendants' keys, which on
        a chain of n links would hold n(n+1)/2 texts."""
        return tuple(link.prop.render() for link, _, _, done in walk(self) if not done)


def hearer_accepts(
    model: KnowledgeBase,
    claim: Proposition,
    chains: Iterable[JustificationLink],
    speaker: Speaker,
    tau: int,
) -> bool:
    """Would the hearer accept the claim, asserted together with the top
    link of each of ``chains`` as the speaker's evidence?  Only the links'
    strengths reach the verdict."""
    presented = speaker.case(
        claim, ((c.prop, c.relation, c.belief_level, c.relation_level) for c in chains)
    )
    return revise(model, claim, presented, tau=tau).outcome is VerdictOutcome.ACCEPT


def build_justification_chains(
    kb: KnowledgeBase,
    model: KnowledgeBase,
    claim: Proposition,
    tau: int = 1,
    *,
    speaker: Speaker,
) -> tuple[JustificationLink, ...]:
    """Every way the evidence in the speaker's store ``kb`` can back
    ``claim`` for the hearer ``model``.  Links the hearer would reject bare
    are justified in turn; evidence with no convincing story is dropped."""
    # a frame: its claim, the fields of the link offering it (None at the
    # top), the links found so far and the pieces not yet tried.  ``path`` is
    # the set of claims on the stack; no link offers one of them or its
    # negation.
    path = {claim}
    stack = [(claim, None, [], iter(build_evidence_set(kb, claim)))]
    while True:
        claim, offer, links, pieces = stack[-1]
        for piece in pieces:
            prop = piece.belief.prop
            if piece.consequent != claim or prop in path or prop.negate() in path:
                continue
            levels = (piece.belief.endorsement.level, piece.relation.endorsement.level)
            offered = (prop, piece.relation.prop, *levels)
            if hearer_accepts(model, prop, (), speaker, tau):
                links.append(JustificationLink(*offered))
                continue
            path.add(prop)
            stack.append((prop, offered, [], iter(build_evidence_set(kb, prop))))
            break
        else:
            stack.pop()
            path.discard(claim)
            # the pieces come in text order, one per proposition, so the
            # links are already in ``key()`` order
            if offer is None:
                return tuple(links)
            children = next(
                minimal_subsets(links, lambda c: hearer_accepts(model, claim, c, speaker, tau)),
                None,
            )
            if children is not None:
                stack[-1][2].append(JustificationLink(*offer, children))


def select_justification(
    chains: Iterable[JustificationLink],
    model: KnowledgeBase,
    claim: Proposition,
    tau: int = 1,
    *,
    speaker: Speaker,
    trace=None,
) -> tuple[JustificationLink, ...]:
    """Pick the bundle of chains the speaker utters.

    A bundle survives when presenting its direct evidence with the claim
    makes the hearer accept and no smaller surviving bundle lies inside it.
    Ties are broken by worst-link confidence, novelty to the hearer, total
    size, and finally canonical order.
    """
    pool = sorted(chains, key=lambda c: c.key())
    survivors = list(
        minimal_subsets(pool, lambda combo: hearer_accepts(model, claim, combo, speaker, tau))
    )
    if not survivors:
        raise NoSufficientJustification(f"no sufficient justification for {claim}")

    def score(combo):
        links = [link for chain in combo for link, _, _, done in walk(chain) if not done]
        fresh = sum(
            1
            for link in links
            if model.own_belief(link.prop) is None
            and model.own_belief(link.prop.negate()) is None
        )
        return (
            -int(min(min(link.belief_level, link.relation_level) for link in links)),
            -fresh,
            len(links),
            tuple(c.key() for c in combo),
        )

    # the survivor index keeps ties in survivor order and leaves bundles uncompared
    (b, _, best), *rest = sorted((score(combo), i, combo) for i, combo in enumerate(survivors))
    if trace is not None:
        if not rest:
            rule = "only"
        else:
            r = rest[0][0]
            # a full tie falls to the last rule, which keeps survivor order
            rule = ("confidence", "novelty", "size", "canonical")[
                next((i for i in range(3) if b[i] != r[i]), 3)
            ]
        trace.emit(
            "heuristic",
            agent=speaker.name,
            claim=claim.render(),
            chosen=[c.prop.render() for c in best],
            candidates=len(survivors),
            rule=rule,
        )
    return tuple(best)


def realized_beliefs(
    claim: Proposition, chains: Iterable[JustificationLink], model: KnowledgeBase
) -> tuple[Proposition, ...]:
    """What actually gets uttered: the claim, then each chain's beliefs in
    presentation order, with relations included only when the hearer is not
    already modelled as holding them."""
    out: list[Proposition] = [claim]
    for chain in chains:
        for link, _, _, done in walk(chain):
            if not done:
                out.append(link.prop)
                if not model.holds(link.relation):
                    out.append(link.relation)
    return tuple(out)
