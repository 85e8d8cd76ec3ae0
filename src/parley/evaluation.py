"""Proposal trees and their evaluation against a hearer's belief store.

A proposal is a tree of asserted propositions; each child supports its
parent through an implicit evidential relation.  Evaluation walks the tree
bottom-up, revising every asserted belief and relation in turn, so a child
only lends weight to its parent once both the child and the connecting
relation have themselves been accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .beliefs import (
    ContractViolation,
    KnowledgeBase,
    Proposition,
    Speaker,
    StrengthLevel,
    StructureError,
    Verdict,
    VerdictOutcome,
    _check_level,
    _PendingAdds,
    _trusted_belief,
    _trusted_derived,
    record_verdict,
    revise_detail,
    supports_prop,
)


@dataclass(frozen=True, eq=False)
class ProposalNode:
    """One asserted proposition; children are its offered justifications."""

    prop: Proposition
    asserted_level: StrengthLevel
    children: tuple["ProposalNode", ...] = ()
    # not fields: the relations to the children, once built, and whether
    # ``validate_tree`` passed this tree
    _relations = None
    _valid = False

    def __post_init__(self) -> None:
        if not isinstance(self.prop, Proposition):
            raise StructureError(f"proposal node needs a Proposition, got {self.prop!r}")
        _check_level(self.asserted_level)
        children = tuple(self.children)
        for child in children:
            if not isinstance(child, ProposalNode):
                raise StructureError(f"proposal node child must be a ProposalNode, got {child!r}")
        object.__setattr__(self, "children", children)

    # a tree compares and hashes as its nodes' parts in preorder, which only
    # an equal tree shares; ``walk`` reads them without recursion, so trees
    # of any depth compare
    def _preorder(self) -> tuple:
        nodes = (node for node, *_, done in walk(self) if not done)
        return tuple((n.prop, n.asserted_level, len(n.children)) for n in nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProposalNode):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(self._preorder())

    def __repr__(self) -> str:
        return _tree_repr(self, lambda n: f"{n.prop}, {n.asserted_level.render()}")

    @property
    def relations(self) -> tuple[Proposition, ...]:
        """``supports(child, this)`` for each child, in order, built on
        first use and kept."""
        relations = self._relations
        if relations is None:
            relations = tuple([supports_prop(child.prop, self.prop) for child in self.children])
            object.__setattr__(self, "_relations", relations)
        return relations

    def props(self) -> tuple[Proposition, ...]:
        """In preorder: this node's proposition, then for each child the
        relation to it followed by the child's own props."""
        out: list[Proposition] = []
        for node, parent, i, done in walk(self):
            if not done:
                out += (node.prop,) if parent is None else (parent.relations[i], node.prop)
        return tuple(out)


def walk(root, enter: Optional[Callable] = None) -> list[tuple]:
    """``(node, parent, i, done)`` for each node under ``root``, in a list,
    where ``node`` is ``parent.children[i]`` and the root's parent is None:
    depth first, once on the way down and again with ``done`` after the
    subtree, which is skipped if ``enter(node, parent, i)``, asked after the
    way down, is false.  It keeps its own stack, so a tree of any depth walks."""
    visits = []
    stack = [(root, None, 0, False)]
    while stack:
        node, parent, i, done = visit = stack.pop()
        visits.append(visit)
        if not done:
            stack.append((node, parent, i, True))
            if enter is None or enter(node, parent, i):
                children = node.children
                for j in range(len(children) - 1, -1, -1):
                    stack.append((children[j], node, j, False))
    return visits


def fold(root, make: Callable, enter: Optional[Callable] = None):
    """What ``make(node, parent, i, results)`` returns for ``root``, called
    once per node of ``walk(root, enter)`` after its subtree, where
    ``results`` lists what it returned for the node's children, in order;
    a node whose subtree ``enter`` skips gets none."""
    results: list[list] = [[]]
    for node, parent, i, done in walk(root, enter):
        if not done:
            results.append([])
        else:
            made = make(node, parent, i, results.pop())
            results[-1].append(made)
    return results[0][0]


def _tree_repr(root, label: Callable) -> str:
    """``Name(label, [child, ...])`` for each node under ``root``, written
    by ``walk``, so a tree of any depth prints."""
    parts: list[str] = []
    for node, _, i, done in walk(root):
        if not done:
            parts += (", " if i else "", f"{type(node).__name__}({label(node)}")
            parts.append(", [" if node.children else "")
        else:
            parts.append("])" if node.children else ")")
    return "".join(parts)


def validate_tree(tree: ProposalNode) -> None:
    """Reject a tree that repeats a proposition, or its negation, on one
    root-to-leaf path, or that asserts a proposition and its negation
    anywhere; the first offender in preorder is named.  A tree that passes
    is marked, so it is walked once however often it is checked."""
    if tree._valid:
        return
    # keyed by text, which is what a proposition hashes, without a Python call
    path: set[str] = set()
    asserted: set[str] = set()
    for node, parent, i, done in walk(tree):
        if done:
            path.discard(node.prop._text)
            continue
        if node.prop._text in path or node.prop.negate()._text in path:
            raise StructureError(f"proposal tree revisits {node.prop}")
        path.add(node.prop._text)
        for prop in (node.prop,) if parent is None else (parent.relations[i], node.prop):
            if prop.negate()._text in asserted:
                raise StructureError(f"proposal tree asserts both {prop.negate()} and {prop}")
            asserted.add(prop._text)
    object.__setattr__(tree, "_valid", True)


def render_tree(tree: ProposalNode) -> str:
    """``root ⊣ leaf, (inner ⊣ leaf)``: an inner node is parenthesised."""
    parts: list[str] = []
    for node, parent, i, done in walk(tree):
        nested = parent is not None and node.children
        if not done:
            parts += (", " if i else "", "(" if nested else "", node.prop.render())
            parts.append(" ⊣ " if node.children else "")
        elif nested:
            parts.append(")")
    return "".join(parts)


# ---------------------------------------------------------------------------
# recording assertions into the model of the other agent


def record_proposal(kb: KnowledgeBase, tree: ProposalNode, *, speaker: Speaker) -> KnowledgeBase:
    """Note everything the speaker just committed to in the user model.

    Internal nodes are recorded as derived from their stated justifications;
    leaves and relations as plain assertions.  An entry of the same polarity
    that is already modelled, or noted earlier in the tree, is kept as is,
    while a contradicting entry is replaced by the newly asserted one.  The
    whole tree goes into the model in one write, each node after its
    subtree and before the relation to it."""
    pending = _PendingAdds(kb, own=False)
    endorse = speaker.endorse
    for node, parent, i, done in walk(tree):
        if not done:
            continue
        # the node's level and children were checked when it was built
        if pending.belief(node.prop) is None:
            if node.children:
                support = frozenset([child.prop for child in node.children])
                endorsement = _trusted_derived(node.asserted_level, support)
            else:
                endorsement = endorse(node.asserted_level)
            pending.add(_trusted_belief(node.prop, endorsement))
        if parent is not None and pending.belief(parent.relations[i]) is None:
            pending.add(_trusted_belief(parent.relations[i], endorse(node.asserted_level)))
    return pending.store()


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True, eq=False)
class EvaluatedNode:
    """One judged proposal node, with the verdict on the relation to each
    child in ``relation_verdicts``, in the order of ``node.relations``.  Two
    evaluations are equal only if they are the same object."""

    node: ProposalNode
    verdict: Verdict
    children: tuple["EvaluatedNode", ...]
    relation_verdicts: tuple[Verdict, ...]

    def __repr__(self) -> str:
        return _tree_repr(self, lambda ev: f"{ev.prop}: {ev.verdict.outcome.value}")

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
    proposer: Speaker,
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

    def make(node, parent, i, pairs):
        # each child's evaluation with the verdict on the relation to it; a
        # leaf has no pairs to unzip
        children, relation_verdicts = tuple(zip(*pairs)) or ((), ())
        backing = [
            (c.prop, relation, c.verdict.accepted_strength(), rv.accepted_strength())
            for c, relation, rv in zip(children, node.relations, relation_verdicts)
            if c.accepted and rv.outcome is VerdictOutcome.ACCEPT
        ]
        presented = proposer.case(node.prop, backing)
        verdict = revise_detail(kb, node.prop, presented, tau, trace=trace, agent=agent)
        evaluated = EvaluatedNode(node, verdict, children, relation_verdicts)
        if parent is None:
            return evaluated
        relation = parent.relations[i]
        held = kb.own_belief(relation)
        held_neg = kb.own_belief(relation.negate())
        if held is None and held_neg is None:
            case = proposer.case(relation)
            return evaluated, revise_detail(kb, relation, case, tau, trace=trace, agent=agent)
        # a held relation, or its held negation, is its own evidence, at the level held
        if held is not None:
            rel_verdict = Verdict(VerdictOutcome.ACCEPT, held.endorsement.level, 0, prior_support=held)
        else:
            rel_verdict = Verdict(VerdictOutcome.REJECT, 0, held_neg.endorsement.level)
        record_verdict(trace, agent, relation, rel_verdict, method="lookup")
        return evaluated, rel_verdict

    return fold(tree, make)


def assimilate_evaluated(
    kb: KnowledgeBase, evaluated: EvaluatedNode
) -> tuple[KnowledgeBase, tuple[Proposition, ...]]:
    """Fold an accepted proposal into the store, bottom-up.

    Only callable when the root was accepted.  Accepted nodes and relations
    are each adopted from their own verdict's support, as :func:`assimilate`
    adopts one, and all in one write, each node before the relation to it;
    nothing is taken from beneath a rejected node, and a relation accepted
    by lookup is held already.  Returns the updated store and every
    proposition now agreed to, in text order.
    """
    if not evaluated.accepted:
        raise ContractViolation(f"cannot assimilate {evaluated.prop}: proposal not accepted")
    # each proposition agreed to, keyed by its text, which is how
    # propositions hash and order, without a Python call per hash or comparison
    agreed: dict[str, Proposition] = {}
    pending = _PendingAdds(kb, own=True)
    for ev, parent, i, done in walk(evaluated, lambda ev, *_: ev.accepted):
        if not done:
            continue
        if ev.accepted:
            agreed[ev.prop._text] = ev.prop
            pending.adopt(ev.prop, ev.verdict.support_pieces)
        if parent is not None and parent.relation_verdicts[i].outcome is VerdictOutcome.ACCEPT:
            agreed[parent.node.relations[i]._text] = parent.node.relations[i]
            pending.adopt(parent.node.relations[i], parent.relation_verdicts[i].support_pieces)
    return pending.store(), tuple(map(agreed.__getitem__, sorted(agreed)))
