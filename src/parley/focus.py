"""Choosing what part of a rejected proposal to try to change.

The rejecting agent simulates the proposer with its user model: it predicts
how the proposer would re-judge each disputed proposition if particular
beliefs were given up, with both sides' cases (``Speaker.case``) on the
table.  The smallest set of beliefs whose removal flips the proposer is the
focus of modification; only the ``foci`` trace records say how it was found.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .beliefs import (
    ContractViolation,
    EvidencePiece,
    KnowledgeBase,
    Proposition,
    Speaker,
    Verdict,
    VerdictOutcome,
    _check_count,
    _Pool,
    build_evidence_set,
    minimal_subsets,
    record_verdict,
)
from .evaluation import EvaluatedNode, fold


def flips(verdict: Verdict) -> bool:
    return verdict.outcome in (VerdictOutcome.REJECT, VerdictOutcome.ABANDON)


def predict(
    model: KnowledgeBase,
    target: Proposition,
    hypothesized: Iterable[EvidencePiece] = (),
    removed: Iterable[Proposition] = (),
    tau: int = 1,
    *,
    trace=None,
    agent: str = "",
    note: str = "",
) -> Verdict:
    """Simulate the modelled agent revising ``target``.

    ``removed`` beliefs, and everything resting solely on them, are lost
    from the model, which is read in place, not copied; hypothesized
    evidence touching a lost proposition is discarded rather than
    presented.  The target itself is never deleted, so a derivation left
    baseless is abandoned, not merely forgotten.  The target's evidence is
    weighed as one prepared pool, which ``hypothesized`` may already be.
    """
    _check_count("threshold", tau)
    removed = tuple(removed)
    # with nothing removed nothing is lost, and the verdict is ``revise``'s
    pool = hypothesized if type(hypothesized) is _Pool else _Pool(model, target, hypothesized)
    verdict = pool.judge(removed, tau)
    record_verdict(trace, agent, target, verdict, note, removed=removed)
    return verdict


def select_min_set(
    target: Proposition,
    cand_set: Iterable[Proposition],
    model: KnowledgeBase,
    tau: int = 1,
    *,
    hypothesized: Iterable[EvidencePiece] = (),
    trace=None,
    agent: str = "",
    note: str = "",
) -> Optional[tuple[Proposition, ...]]:
    """The smallest subset of ``cand_set`` whose removal flips ``target``,
    the first in canonical text order among equals, searched only if
    removing the whole set, traced under ``note``, flips it; else None.
    Every combination is weighed against the pool of that check, from the
    pool's ``smallest_flip`` size up.
    """
    cand = sorted(set(cand_set))
    if not cand:
        return None
    # the target's evidence, prepared once for the check and every combination
    pool = _Pool(model, target, hypothesized)
    if not flips(predict(model, target, pool, cand, tau, trace=trace, agent=agent, note=note)):
        return None
    # the candidates are sorted and combinations come in lexicographic
    # order, so the first found is the canonical least; the full set flips,
    # so one is found unless the search started past it
    found = minimal_subsets(
        cand, lambda combo: flips(predict(model, target, pool, combo, tau)), pool.smallest_flip(tau)
    )
    chosen = next(found, None)
    if chosen is None:
        raise ContractViolation(
            f"removing {', '.join(m.render() for m in cand)} flips {target.render()}, "
            "but the search found no subset that does"
        )
    if trace is not None:
        trace.emit(
            "minset",
            agent=agent,
            target=target.render(),
            candidates=[m.render() for m in cand],
            chosen=[m.render() for m in chosen],
            size=len(chosen),
        )
    return chosen


def _asserted_evidence(ev: EvaluatedNode, proposer: Speaker) -> tuple[EvidencePiece, ...]:
    """The proposer's case for ``ev`` as presented: the bare assertion plus
    every child, accepted or not, at the strength it was asserted."""
    backing = (
        (c.prop, relation, c.node.asserted_level, c.node.asserted_level)
        for c, relation in zip(ev.children, ev.node.relations)
    )
    return proposer.case(ev.prop, backing)


def _standing_attack(
    kb: KnowledgeBase, target: Proposition, evaluator: Speaker
) -> tuple[EvidencePiece, ...]:
    """The case of ``evaluator``, whose store is ``kb``, against ``target``:
    held counterevidence plus a direct counter-assertion when the negation
    itself is held."""
    negated = target.negate()
    pieces = [pc for pc in build_evidence_set(kb, target) if pc.consequent == negated]
    if kb.holds(negated):
        pieces.extend(evaluator.case(negated))
    return tuple(pieces)


def select_focus_modification(
    evaluated: EvaluatedNode,
    kb: KnowledgeBase,
    tau: int = 1,
    *,
    proposer: Speaker,
    evaluator: Speaker,
    trace=None,
) -> Optional[frozenset]:
    """Walk an evaluated (and unaccepted) proposal and return the focus to
    dispute, or None when no modification looks winnable.

    ``kb`` is the store of ``evaluator``, the speaker of its counter-cases;
    the proposer is simulated with its user model.
    Leaves are flippable or not by direct prediction.  For internal nodes,
    first try undermining the flippable members alone, then a head-on
    counter, then both combined; each stage predicts with the proposer's
    own presented evidence, plus this agent's counterevidence for the
    head-on stages.  Evidence is built only for the nodes and relations
    the walk visits, counterevidence only once a head-on stage is reached.
    Each visited node leaves one ``foci`` record, the root's last.
    """
    model = kb.model_view()
    agent = evaluator.name

    def emit(target: Proposition, step: str, focus, cand=()) -> Optional[frozenset]:
        if trace is not None:
            trace.emit(
                "foci",
                agent=agent,
                target=target.render(),
                step=step,
                focus=None if focus is None else sorted(p.render() for p in focus),
                cand=[p.render() for p in cand],
            )
        return focus

    def flipped(prop: Proposition, case, note: str) -> bool:
        return flips(predict(model, prop, case, tau=tau, trace=trace, agent=agent, note=note))

    def head_on(prop: Proposition, note: str) -> Optional[frozenset]:
        """``{prop}`` when the proposer's bare assertion of ``prop`` loses to
        this agent's standing case against it, else None."""
        case = proposer.case(prop) + _standing_attack(kb, prop, evaluator)
        return frozenset({prop}) if flipped(prop, case, note) else None

    def internal(ev: EvaluatedNode, member_focus) -> Optional[frozenset]:
        """The focus of the internal node ``ev``, given its members' foci."""
        cand = tuple(sorted(member_focus))
        presented = _asserted_evidence(ev, proposer)

        def undermined(case, note: str, base: frozenset) -> Optional[frozenset]:
            """``base`` plus the foci of the fewest members whose removal
            flips the node, or None when removing them all does not."""
            chosen = select_min_set(
                ev.prop, cand, model, tau, hypothesized=case, trace=trace, agent=agent, note=note
            )
            return None if chosen is None else base.union(*(member_focus[m] for m in chosen))

        focus = undermined(presented, "evidence", frozenset())
        if focus is not None:
            return emit(ev.prop, "evidence", focus, cand)
        both_sides = presented + _standing_attack(kb, ev.prop, evaluator)
        if flipped(ev.prop, both_sides, "belief"):
            return emit(ev.prop, "belief", frozenset({ev.prop}), cand)
        focus = undermined(both_sides, "both", frozenset({ev.prop}))
        if focus is not None:
            return emit(ev.prop, "both", focus, cand)
        return emit(ev.prop, "nil", None, cand)

    def make(ev: EvaluatedNode, parent, i, members):
        # a node's focus, paired with its proposition below the root; a
        # member is a child not counted for its parent: an unaccepted one is
        # walked into, an accepted one can only lose the relation to it
        linked = parent is None or parent.relation_verdicts[i].outcome is VerdictOutcome.ACCEPT
        if parent is not None and ev.accepted:
            relation = parent.node.relations[i]
            focus = None if linked else emit(relation, "relation", head_on(relation, "relation"))
            return ev.prop, focus
        if ev.children:
            focus = internal(ev, {prop: found for prop, found in members if found is not None})
        else:
            focus = emit(ev.prop, "leaf", head_on(ev.prop, "leaf"))
        if parent is None:
            return focus
        if focus is None and not linked:
            # belief cannot be shaken; see whether the link can
            focus = head_on(parent.node.relations[i], "relation")
        return ev.prop, focus

    return fold(evaluated, make, lambda ev, parent, i: parent is None or not ev.accepted)
