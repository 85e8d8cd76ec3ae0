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
    _case,
    _check_level,
    _PendingAdds,
    assertions_by,
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
    # not a field: the relations to the children, once built
    _relations = None

    def __post_init__(self) -> None:
        if not isinstance(self.prop, Proposition):
            raise StructureError(f"proposal node needs a Proposition, got {self.prop!r}")
        _check_level(self.asserted_level)
        children = tuple(self.children)
        for child in children:
            if not isinstance(child, ProposalNode):
                raise StructureError(f"proposal node child must be a ProposalNode, got {child!r}")
        object.__setattr__(self, "children", children)

    @property
    def relations(self) -> tuple[Proposition, ...]:
        """``supports(child, this)`` for each child, in order, built on
        first use and kept."""
        relations = self._relations
        if relations is None:
            relations = tuple(supports_prop(child.prop, self.prop) for child in self.children)
            object.__setattr__(self, "_relations", relations)
        return relations

    def props(self) -> tuple[Proposition, ...]:
        """In preorder: this node's proposition, then for each child the
        relation to it followed by the child's own props."""
        out: list[Proposition] = []
        stack: list[tuple[Optional[Proposition], ProposalNode]] = [(None, self)]
        while stack:
            relation, node = stack.pop()
            if relation is not None:
                out.append(relation)
            out.append(node.prop)
            stack.extend(zip(reversed(node.relations), reversed(node.children)))
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
    that is already modelled, or noted earlier in the tree, is kept as is,
    while a contradicting entry is replaced by the newly asserted one.  The
    whole tree goes into the model in one write.
    """
    pending = _PendingAdds(kb, own=False)
    _note(pending, assertions_by(speaker, expertise), tree)
    return pending.store()


# A module-level function, not a closure that calls itself: that would be a
# reference cycle, and the store held by ``pending`` would wait for the
# collector.
def _note(pending: _PendingAdds, endorse, node: ProposalNode) -> None:
    """Note ``node`` and everything beneath it, each child before the
    relation to it and the node last."""
    for child, relation in zip(node.children, node.relations):
        _note(pending, endorse, child)
        if pending.belief(relation) is None:
            pending.add(Belief(relation, endorse(child.asserted_level)))
    if pending.belief(node.prop) is None:
        if node.children:
            support = (child.prop for child in node.children)
            endorsement = Endorsement.derived(node.asserted_level, support)
        else:
            endorsement = endorse(node.asserted_level)
        pending.add(Belief(node.prop, endorsement))


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
    # the proposer's assertion endorsements, shared by every presented case
    endorse = assertions_by(proposer, proposer_expertise)

    def walk(node: ProposalNode) -> EvaluatedNode:
        evaluated_children: list[EvaluatedChild] = []
        backing: list[tuple] = []
        for child, relation in zip(node.children, node.relations):
            child_eval = walk(child)
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
                    _case(relation, proposer_expertise, endorse),
                    tau,
                    trace=trace,
                    agent=agent,
                )
            evaluated_children.append(EvaluatedChild(child_eval, relation, rel_verdict, lookup))
            if child_eval.accepted and rel_verdict.outcome is VerdictOutcome.ACCEPT:
                levels = (child_eval.verdict.accepted_strength(), rel_verdict.accepted_strength())
                backing.append((child.prop, relation, *levels))

        presented = _case(node.prop, proposer_expertise, endorse, backing)
        verdict = revise_detail(kb, node.prop, presented, tau, trace=trace, agent=agent)
        return EvaluatedNode(node, verdict, tuple(evaluated_children))

    return walk(tree)


def assimilate_evaluated(
    kb: KnowledgeBase, evaluated: EvaluatedNode
) -> tuple[KnowledgeBase, tuple[Proposition, ...]]:
    """Fold an accepted proposal into the store, bottom-up.

    Only callable when the root was accepted.  Accepted nodes, and relations
    accepted by revision, are each adopted from their own verdict's support,
    as :func:`assimilate` adopts one, and all in one write; nothing is taken
    from rejected branches.  Returns the updated store and every
    proposition now agreed to.
    """
    if not evaluated.accepted:
        raise ContractViolation("cannot assimilate a proposal that was not accepted")
    agreed: list[Proposition] = []
    pending = _PendingAdds(kb, own=True)
    _adopt_accepted(pending, evaluated, agreed)
    return pending.store(), tuple(sorted(set(agreed)))


# module-level for the reason given at ``_note``
def _adopt_accepted(pending: _PendingAdds, ev: EvaluatedNode, agreed: list) -> None:
    """Adopt the accepted node ``ev`` and what was accepted beneath it,
    each child before the relation to it and the node last, and list each
    in ``agreed``."""
    for child in ev.children:
        if child.evaluated.accepted:
            _adopt_accepted(pending, child.evaluated, agreed)
        if child.relation_accepted:
            agreed.append(child.relation)
            if not child.relation_lookup:
                pending.adopt(child.relation, child.relation_verdict.support_pieces)
    agreed.append(ev.prop)
    pending.adopt(ev.prop, ev.verdict.support_pieces)
