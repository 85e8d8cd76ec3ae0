"""Proposal trees and their evaluation against a hearer's belief store.

A proposal is a tree of asserted propositions; each child supports its
parent through an implicit evidential relation.  Evaluation walks the tree
bottom-up, revising every asserted belief and relation in turn, so a child
only lends weight to its parent once both the child and the connecting
relation have themselves been accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .beliefs import (
    Belief,
    ContractViolation,
    Direction,
    Endorsement,
    EvidencePiece,
    Expertise,
    KnowledgeBase,
    Proposition,
    StrengthLevel,
    StructureError,
    Verdict,
    VerdictOutcome,
    assertion_piece,
    assimilate,
    build_evidence_set,
    record_verdict,
    revise_detail,
    supports_prop,
)


@dataclass(frozen=True)
class ProposalNode:
    """One asserted proposition; children are its offered justifications."""

    prop: Proposition
    asserted_level: StrengthLevel
    children: tuple["ProposalNode", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))

    def relation_to(self, child: "ProposalNode") -> Proposition:
        return supports_prop(child.prop, self.prop)

    def props(self) -> tuple[Proposition, ...]:
        out = [self.prop]
        for child in self.children:
            out.append(self.relation_to(child))
            out.extend(child.props())
        return tuple(out)


def validate_tree(tree: ProposalNode, _path: frozenset = frozenset()) -> None:
    if tree.prop in _path or tree.prop.negate() in _path:
        raise StructureError(f"proposal tree revisits {tree.prop}")
    path = _path | {tree.prop}
    for child in tree.children:
        validate_tree(child, path)


def render_tree(tree: ProposalNode) -> str:
    if not tree.children:
        return tree.prop.render()
    parts = []
    for child in tree.children:
        parts.append(child.prop.render() if not child.children else f"({render_tree(child)})")
    return f"{tree.prop.render()} ⊣ {', '.join(parts)}"


# ---------------------------------------------------------------------------
# recording assertions into the model of the other agent


def record_proposal(
    kb: KnowledgeBase, tree: ProposalNode, *, speaker: str, expertise: Expertise
) -> KnowledgeBase:
    """Note everything the speaker just committed to in the user model.

    Internal nodes are recorded as derived from their stated justifications;
    leaves and relations as plain assertions.  An entry of the same polarity
    that is already modelled is kept as is, while a contradicting entry is
    replaced by the newly asserted one.
    """

    def note(kb: KnowledgeBase, prop: Proposition, endorsement: Endorsement) -> KnowledgeBase:
        if kb.model_belief(prop) is not None:
            return kb
        return kb.model_add(Belief(prop, endorsement))

    def walk(kb: KnowledgeBase, node: ProposalNode) -> KnowledgeBase:
        for child in node.children:
            kb = walk(kb, child)
            kb = note(
                kb,
                node.relation_to(child),
                Endorsement.assertion(child.asserted_level, speaker, expertise),
            )
        if node.children:
            support = sorted(child.prop for child in node.children)
            endorsement = Endorsement.derived(node.asserted_level, support)
        else:
            endorsement = Endorsement.assertion(node.asserted_level, speaker, expertise)
        return note(kb, node.prop, endorsement)

    return walk(kb, tree)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvaluatedChild:
    evaluated: "EvaluatedNode"
    relation: Proposition
    relation_verdict: Verdict
    relation_lookup: bool
    relation_strength: Optional[StrengthLevel]
    rel_u_evid: tuple[EvidencePiece, ...]
    rel_s_attack: tuple[EvidencePiece, ...]

    @property
    def relation_accepted(self) -> bool:
        return self.relation_verdict.outcome is VerdictOutcome.ACCEPT

    @property
    def counted(self) -> bool:
        return self.evaluated.accepted and self.relation_accepted


@dataclass(frozen=True)
class EvaluatedNode:
    node: ProposalNode
    verdict: Verdict
    accepted_strength: Optional[StrengthLevel]
    support_credited: tuple[EvidencePiece, ...]
    u_evid: tuple[EvidencePiece, ...]
    s_attack: tuple[EvidencePiece, ...]
    children: tuple[EvaluatedChild, ...]

    @property
    def prop(self) -> Proposition:
        return self.node.prop

    @property
    def accepted(self) -> bool:
        return self.verdict.outcome is VerdictOutcome.ACCEPT


def _synthetic_piece(
    prop: Proposition,
    relation: Proposition,
    belief_level: StrengthLevel,
    relation_level: StrengthLevel,
    speaker: str,
    expertise: Expertise,
) -> EvidencePiece:
    return EvidencePiece(
        Belief(prop, Endorsement.assertion(belief_level, speaker, expertise)),
        Belief(relation, Endorsement.assertion(relation_level, speaker, expertise)),
        Direction.SUPPORTS,
    )


def _standing_attack(
    kb: KnowledgeBase, target: Proposition, agent: str
) -> tuple[EvidencePiece, ...]:
    """The evaluator's own case against ``target``: held counterevidence plus
    a direct counter-assertion when the negation itself is held."""
    pieces = [
        pc
        for pc in build_evidence_set(kb, target)
        if pc.direction is Direction.ATTACKS
    ]
    negated = target.negate()
    if kb.holds(negated):
        pieces.append(assertion_piece(negated, agent, kb.expertise, target=target))
    return tuple(pieces)


def evaluate_proposal(
    kb: KnowledgeBase,
    tree: ProposalNode,
    tau: int = 1,
    *,
    proposer: str,
    proposer_expertise: Expertise,
    trace=None,
    agent: str = "",
) -> EvaluatedNode:
    """Judge every node of a proposal bottom-up.

    Relations the evaluator already holds are accepted by direct lookup;
    everything else goes through revision.  A child contributes evidence to
    its parent only when both the child and its relation were accepted, and
    then only at the strength the evaluation actually granted them.
    """
    validate_tree(tree)

    def walk(node: ProposalNode) -> EvaluatedNode:
        evaluated_children: list[EvaluatedChild] = []
        child_pieces: list[EvidencePiece] = []
        asserted_child_pieces: list[EvidencePiece] = []
        for child in node.children:
            child_eval = walk(child)
            relation = node.relation_to(child)
            held = kb.own_belief(relation)
            held_neg = kb.own_belief(relation.negate())
            rel_u_evid = (assertion_piece(relation, proposer, proposer_expertise),)
            rel_s_attack = _standing_attack(kb, relation, agent)
            if held is not None or held_neg is not None:
                if held is not None:
                    rel_verdict = Verdict(VerdictOutcome.ACCEPT, held.rank, 0)
                    rel_strength: Optional[StrengthLevel] = held.endorsement.level
                else:
                    rel_verdict = Verdict(VerdictOutcome.REJECT, 0, held_neg.rank)
                    rel_strength = None
                lookup = True
                record_verdict(trace, agent, relation, rel_verdict, method="lookup")
            else:
                detail = revise_detail(
                    kb,
                    relation,
                    rel_u_evid,
                    (),
                    tau,
                    trace=trace,
                    agent=agent,
                )
                rel_verdict = detail.verdict
                lookup = False
                rel_strength = detail.accepted_strength()
            evaluated_children.append(
                EvaluatedChild(
                    child_eval,
                    relation,
                    rel_verdict,
                    lookup,
                    rel_strength,
                    rel_u_evid,
                    rel_s_attack,
                )
            )
            asserted_child_pieces.append(
                _synthetic_piece(
                    child.prop,
                    relation,
                    child.asserted_level,
                    child.asserted_level,
                    proposer,
                    proposer_expertise,
                )
            )
            if child_eval.accepted and rel_verdict.outcome is VerdictOutcome.ACCEPT:
                child_pieces.append(
                    _synthetic_piece(
                        child.prop,
                        relation,
                        child_eval.accepted_strength,
                        rel_strength,
                        proposer,
                        proposer_expertise,
                    )
                )

        presented = [assertion_piece(node.prop, proposer, proposer_expertise)]
        presented.extend(child_pieces)
        detail = revise_detail(kb, node.prop, presented, (), tau, trace=trace, agent=agent)
        u_evid = (assertion_piece(node.prop, proposer, proposer_expertise),) + tuple(
            asserted_child_pieces
        )
        return EvaluatedNode(
            node=node,
            verdict=detail.verdict,
            accepted_strength=detail.accepted_strength(),
            support_credited=detail.support_pieces,
            u_evid=u_evid,
            s_attack=_standing_attack(kb, node.prop, agent),
            children=tuple(evaluated_children),
        )

    return walk(tree)


def assimilate_evaluated(
    kb: KnowledgeBase, evaluated: EvaluatedNode, *, proposer: str, proposer_expertise: Expertise
) -> tuple[KnowledgeBase, tuple[Proposition, ...]]:
    """Fold an accepted proposal into the store, bottom-up.

    Only callable when the root was accepted.  Accepted subtrees are adopted
    at their granted strengths; relations the evaluator newly accepted are
    adopted as assertions; nothing is taken from rejected branches.
    Returns the updated store and every proposition now agreed to.
    """
    if not evaluated.accepted:
        raise ContractViolation("cannot assimilate a proposal that was not accepted")
    agreed: list[Proposition] = []

    def walk(kb: KnowledgeBase, ev: EvaluatedNode) -> KnowledgeBase:
        for child in ev.children:
            if child.evaluated.accepted:
                kb = walk(kb, child.evaluated)
            if child.relation_accepted:
                agreed.append(child.relation)
                if not child.relation_lookup and not kb.holds(child.relation):
                    kb = kb.own_add(
                        Belief(
                            child.relation,
                            Endorsement.assertion(
                                child.relation_strength, proposer, proposer_expertise
                            ),
                        )
                    )
        agreed.append(ev.prop)
        return assimilate(kb, ev.verdict, ev.prop, ev.support_credited)

    kb = walk(kb, evaluated)
    return kb, tuple(sorted(set(agreed)))
