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
    Endorsement,
    Expertise,
    KnowledgeBase,
    Proposition,
    StrengthLevel,
    StructureError,
    Verdict,
    VerdictOutcome,
    _check_level,
    assimilate,
    presented_case,
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
        if not isinstance(self.prop, Proposition):
            raise StructureError(f"proposal node needs a Proposition, got {self.prop!r}")
        _check_level(self.asserted_level)
        children = tuple(self.children)
        for child in children:
            if not isinstance(child, ProposalNode):
                raise StructureError(f"proposal node child must be a ProposalNode, got {child!r}")
        object.__setattr__(self, "children", children)

    def relation_to(self, child: "ProposalNode") -> Proposition:
        return supports_prop(child.prop, self.prop)

    def props(self) -> tuple[Proposition, ...]:
        """In preorder: this node's proposition, then for each child the
        relation to it followed by the child's own props."""
        out: list[Proposition] = []
        stack: list[tuple[Optional[ProposalNode], ProposalNode]] = [(None, self)]
        while stack:
            parent, node = stack.pop()
            if parent is not None:
                out.append(parent.relation_to(node))
            out.append(node.prop)
            stack.extend((node, child) for child in reversed(node.children))
        return tuple(out)


def validate_tree(tree: ProposalNode) -> None:
    """Reject a tree that repeats a proposition, or its negation, on one
    root-to-leaf path; the first offender in preorder is named."""
    path: set[Proposition] = set()
    stack: list[tuple[ProposalNode, bool]] = [(tree, False)]
    while stack:
        node, leaving = stack.pop()
        if leaving:
            path.discard(node.prop)
            continue
        if node.prop in path or node.prop.negate() in path:
            raise StructureError(f"proposal tree revisits {node.prop}")
        path.add(node.prop)
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))


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
            support = (child.prop for child in node.children)
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
    children: tuple[EvaluatedChild, ...]

    @property
    def prop(self) -> Proposition:
        return self.node.prop

    @property
    def accepted(self) -> bool:
        return self.verdict.outcome is VerdictOutcome.ACCEPT


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
        backing: list[tuple] = []
        for child in node.children:
            child_eval = walk(child)
            relation = node.relation_to(child)
            held = kb.own_belief(relation)
            held_neg = kb.own_belief(relation.negate())
            lookup = held is not None or held_neg is not None
            if lookup:
                # a held relation is its own evidence, at the level held
                if held is not None:
                    level = held.endorsement.level
                    rel_verdict = Verdict(VerdictOutcome.ACCEPT, level, 0, prior_support=held)
                else:
                    rel_verdict = Verdict(VerdictOutcome.REJECT, 0, held_neg.endorsement.level)
                record_verdict(trace, agent, relation, rel_verdict, method="lookup")
            else:
                rel_verdict = revise_detail(
                    kb,
                    relation,
                    presented_case(relation, proposer, proposer_expertise),
                    tau,
                    trace=trace,
                    agent=agent,
                )
            evaluated_children.append(EvaluatedChild(child_eval, relation, rel_verdict, lookup))
            if child_eval.accepted and rel_verdict.outcome is VerdictOutcome.ACCEPT:
                levels = (child_eval.verdict.accepted_strength(), rel_verdict.accepted_strength())
                backing.append((child.prop, relation, *levels))

        presented = presented_case(node.prop, proposer, proposer_expertise, backing)
        verdict = revise_detail(kb, node.prop, presented, tau, trace=trace, agent=agent)
        return EvaluatedNode(node, verdict, tuple(evaluated_children))

    return walk(tree)


def assimilate_evaluated(
    kb: KnowledgeBase, evaluated: EvaluatedNode
) -> tuple[KnowledgeBase, tuple[Proposition, ...]]:
    """Fold an accepted proposal into the store, bottom-up.

    Only callable when the root was accepted.  Accepted nodes, and relations
    accepted by revision, are each adopted from their own verdict by
    :func:`assimilate`; nothing is taken from rejected branches.
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
                if not child.relation_lookup:
                    kb = assimilate(kb, child.relation_verdict, child.relation)
        agreed.append(ev.prop)
        return assimilate(kb, ev.verdict, ev.prop)

    kb = walk(kb, evaluated)
    return kb, tuple(sorted(set(agreed)))
