"""Two-agent belief negotiation.

One agent proposes a belief tree; the other evaluates it and either agrees,
asks for more information, or tries to correct the flawed part.  A
correction is itself a claim that may need justifying, and the exchange
recurses: each counter-claim opens an embedded negotiation at one more
level of nesting.  When a correction lands, the original proposal is
modified accordingly, re-judged by its proposer, and the corrected form is
ratified, so both stores converge instead of merely trading assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NoReturn, Optional

from .beliefs import (
    Belief,
    ContractViolation,
    Endorsement,
    KnowledgeBase,
    Proposition,
    Speaker,
    StrengthLevel,
    VerdictOutcome,
    _PendingAdds,
    _check_count,
    assimilate,
    removal_closure,
    revise_detail,
)
from .evaluation import (
    ProposalNode,
    assimilate_evaluated,
    evaluate_proposal,
    fold,
    record_proposal,
    render_tree,
)
from .focus import select_focus_modification
from .justification import (
    JustificationLink,
    NoSufficientJustification,
    build_justification_chains,
    hearer_accepts,
    realized_beliefs,
    select_justification,
)
from .trace import Trace


class ActKind(str, Enum):
    PROPOSE = "propose"
    INFORM = "inform"
    ACCEPT = "accept"
    INFO_SHARE_REQUEST = "info-share-request"


_VERBS = {
    ActKind.PROPOSE: "PROPOSE",
    ActKind.INFORM: "INFORM",
    ActKind.ACCEPT: "ACCEPT",
    ActKind.INFO_SHARE_REQUEST: "INFOSHARE",
}


@dataclass(frozen=True)
class DiscourseAct:
    """One dialogue move."""

    kind: ActKind
    speaker: str
    prop: Optional[Proposition] = None
    proposal: Optional[ProposalNode] = None

    def content(self) -> str:
        """The move as uttered, without the speaker."""
        body = render_tree(self.proposal) if self.proposal is not None else self.prop.render()
        return f"{_VERBS[self.kind]} {body}"

    def realize(self) -> str:
        return f"{self.speaker}: {self.content()}"


class DepthExceededError(RuntimeError):
    """Negotiation nested deeper than the configured bound."""


@dataclass(frozen=True)
class NegotiationConfig:
    tau: int = 1
    max_depth: int = 16

    def __post_init__(self) -> None:
        _check_count("threshold", self.tau)
        _check_count("max depth", self.max_depth)


@dataclass(frozen=True)
class Transcript:
    acts: tuple[DiscourseAct, ...]
    outcome: str
    depth: int
    rounds: int
    ratified_root: Optional[Proposition]
    final_beliefs: dict[str, KnowledgeBase]
    conceded_by: Optional[str] = None

    def realize(self) -> list[str]:
        return [act.realize() for act in self.acts]


@dataclass
class _Session:
    kbs: dict[str, KnowledgeBase]
    # each agent as the source of its assertions, one for the whole session
    speakers: dict[str, Speaker]
    config: NegotiationConfig
    trace: Trace
    acts: list[DiscourseAct] = field(default_factory=list)
    # the (speaker, claim, proposition) triples presented so far
    presented: set[tuple[str, Proposition, Proposition]] = field(default_factory=set)
    conceded_by: Optional[str] = None
    depth_max: int = 0
    rounds: int = 0

    def act(
        self,
        kind: ActKind,
        speaker: str,
        *,
        prop: Optional[Proposition] = None,
        proposal: Optional[ProposalNode] = None,
    ) -> None:
        act = DiscourseAct(kind, speaker, prop=prop, proposal=proposal)
        self.acts.append(act)
        self.trace.emit("act", speaker=speaker, act=kind.value, content=act.content())

    def propose(self, speaker: str, tree: ProposalNode) -> None:
        self.act(ActKind.PROPOSE, speaker, proposal=tree)
        self.already_presented(speaker, tree.prop, tree.props())

    def already_presented(self, speaker: str, claim: Proposition, props) -> bool:
        triples = {(speaker, claim, prop) for prop in props}
        if triples <= self.presented:
            return True
        self.presented |= triples
        return False


class _NeedsSharing(Exception):
    """A hearer asked for information, which ends the whole dialogue."""


def _ask(session: _Session, hearer: str, prop: Proposition) -> NoReturn:
    session.act(ActKind.INFO_SHARE_REQUEST, hearer, prop=prop)
    raise _NeedsSharing


def _asserted_level(kb: KnowledgeBase, speaker: Speaker, prop: Proposition) -> StrengthLevel:
    held = kb.own_belief(prop)
    if held is not None:
        return held.endorsement.level
    return revise_detail(kb, prop).accepted_strength() or speaker.level


def _claim_tree(
    kb: KnowledgeBase, speaker: Speaker, claim: Proposition, chains: tuple[JustificationLink, ...]
) -> ProposalNode:
    def make(link, parent, i, children):
        return ProposalNode(link.prop, link.belief_level, tuple(children))

    level = _asserted_level(kb, speaker, claim)
    return ProposalNode(claim, level, tuple(fold(chain, make) for chain in chains))


def _apply_correction(tree: ProposalNode, member: Proposition) -> tuple[ProposalNode, Optional[str]]:
    """Drop the focused member from the proposal: pruning a belief node is a
    node modification, detaching a disputed relation removes the edge.  The
    recipe is the first pruning's, or None when nothing was pruned."""
    recipes: list[str] = []

    def pruned(node, parent, i) -> bool:
        return parent is not None and member in (node.prop, parent.relations[i])

    def make(node, parent, i, children):
        # a pruned subtree is not walked, and is rebuilt as None
        if pruned(node, parent, i):
            recipes.append("modify-node" if node.prop == member else "remove-node")
            return None
        return ProposalNode(node.prop, node.asserted_level, tuple(filter(None, children)))

    # the fold runs before its recipes are read
    return fold(tree, make, lambda *visit: not pruned(*visit)), recipes[0] if recipes else None


def _hypothetical_concession(
    model: KnowledgeBase, member: Proposition, level: StrengthLevel
) -> KnowledgeBase:
    """Working copy of the hearer model assuming ``member``'s negation lands."""
    model = model.own_remove(*removal_closure(model, (member,)))
    return model.own_add(Belief(member.negate(), Endorsement.stereotype(level)))


def _observe_acceptance(session: _Session, observer: str, acceptor: str, props) -> None:
    speaker = session.speakers[acceptor]
    pending = _PendingAdds(session.kbs[observer], own=False)
    for prop in sorted(props, key=str):
        existing = pending.belief(prop)
        if existing is None or existing.endorsement.level < speaker.level:
            pending.add(Belief(prop, speaker.endorse(speaker.level)))
    session.kbs[observer] = pending.store()


def _concede(session: _Session, loser: str, winner: str, root: Proposition) -> Proposition:
    pending = _PendingAdds(session.kbs[loser], own=True)
    pending.adopt(root, session.speakers[winner].case(root))
    session.kbs[loser] = pending.store()
    session.act(ActKind.ACCEPT, loser, prop=root)
    session.conceded_by = loser
    _observe_acceptance(session, winner, loser, [root])
    return root


def negotiate(
    kbs: dict[str, KnowledgeBase],
    proposer: str,
    proposal: ProposalNode,
    config: NegotiationConfig = NegotiationConfig(),
    *,
    trace: Optional[Trace] = None,
) -> Transcript:
    """Run one full negotiation and return its transcript.

    ``kbs`` maps exactly two agent names to their stores; ``proposer``
    speaks first.  The session writes new stores only (callers keep theirs;
    the consequent index they share grows by what it writes, uncopied) and
    every verdict along the way lands in ``trace``.
    """
    if len(kbs) != 2 or proposer not in kbs:
        raise ContractViolation(
            "negotiation needs exactly two agents, proposer included; "
            f"got {list(kbs)!r} with proposer {proposer!r}"
        )
    for agent, kb in kbs.items():
        if not isinstance(kb, KnowledgeBase):
            raise ContractViolation(f"agent {agent!r} needs a KnowledgeBase, got {kb!r}")
    if not isinstance(proposal, ProposalNode):
        raise ContractViolation(f"proposal must be a ProposalNode, got {proposal!r}")
    if not isinstance(config, NegotiationConfig):
        raise ContractViolation(f"config must be a NegotiationConfig, got {config!r}")
    if not isinstance(trace, (Trace, type(None))):
        raise ContractViolation(f"trace must be a Trace or None, got {trace!r}")
    evaluator = next(a for a in kbs if a != proposer)
    speakers = {agent: Speaker(agent, kb.expertise) for agent, kb in kbs.items()}
    session = _Session(dict(kbs), speakers, config, trace or Trace())

    session.propose(proposer, proposal)
    try:
        root = _settle(session, proposer, evaluator, proposal, depth=0)
        outcome = f"concession:{session.conceded_by}" if session.conceded_by else "agreement"
    except _NeedsSharing:
        # a concession made in a subdialogue before the stall settles nothing
        root, outcome, session.conceded_by = None, "unresolved-needs-sharing", None
    return Transcript(
        acts=tuple(session.acts),
        outcome=outcome,
        depth=session.depth_max,
        rounds=session.rounds,
        ratified_root=root,
        final_beliefs=dict(session.kbs),
        conceded_by=session.conceded_by,
    )


def _settle(
    session: _Session, proposer: str, evaluator: str, tree: ProposalNode, depth: int
) -> Optional[Proposition]:
    """Negotiate ``tree`` until it settles and return the root ratified, None
    when the claim is withdrawn; a stall raises :class:`_NeedsSharing`.  Each
    round is Propose, Evaluate and Modify, and a counter-claim is settled one
    level deeper.  The first round is "new"; a "retry" re-hears the claim its
    proposer kept; a "ratify" round hears an inserted correction with the
    roles swapped, and counts as the corrector's round once it is disputed.

    The rounds end.  A "retry" or "ratify" round follows a pass through the
    member loop of Modify, which concedes unless every member grows the set
    of (speaker, claim, proposition) triples presented, a set the input's
    propositions, relations and negations bound.  A "retry" that finds the
    set unchanged raises :class:`ContractViolation`."""
    if depth > session.config.max_depth:
        raise DepthExceededError(f"nesting exceeded {session.config.max_depth}")
    session.depth_max = max(session.depth_max, depth)
    tau, kbs, trace = session.config.tau, session.kbs, session.trace

    # ``measure`` is the number of triples presented once the last round was
    # heard, a disputed correction's PROPOSE included
    current, kind, measure = tree, "new", 0
    while True:
        if kind == "retry" and len(session.presented) == measure:
            raise ContractViolation(
                f"a retried round of {proposer} to {evaluator} on {current.prop} at depth "
                f"{depth} left the presented propositions unchanged"
            )
        if kind != "ratify":
            session.rounds += 1
        source = session.speakers[proposer]
        kb = kbs[evaluator] = record_proposal(kbs[evaluator], current, speaker=source)
        evaluated = evaluate_proposal(
            kb, current, tau, proposer=source, trace=trace, agent=evaluator
        )

        if evaluated.accepted:
            if kind == "new":
                session.act(ActKind.ACCEPT, evaluator, prop=current.prop)
            kbs[evaluator], agreed = assimilate_evaluated(kb, evaluated)
            _observe_acceptance(session, proposer, evaluator, agreed)
            return current.prop

        if evaluated.verdict.outcome is VerdictOutcome.UNCERTAIN:
            _ask(session, evaluator, current.prop)

        if kind == "ratify":
            # the correction itself is disputed: the corrector defends it
            session.propose(proposer, current)
            session.rounds += 1
        measure = len(session.presented)

        focus = select_focus_modification(
            evaluated,
            kbs[evaluator],
            tau,
            proposer=session.speakers[proposer],
            evaluator=session.speakers[evaluator],
            trace=trace,
        )
        if focus is None:
            return _concede(session, evaluator, proposer, current.prop)

        members = sorted(focus)
        trace.emit(
            "recipe",
            agent=evaluator,
            recipe="correct-node",
            focus=[m.render() for m in members],
            mutual_beliefs=[m.negate().render() for m in members],
        )

        speaker = session.speakers[evaluator]
        working = kbs[evaluator].model_view()
        counters: list[ProposalNode] = []
        informs: list[Proposition] = []
        for member in members:
            claim = member.negate()
            chains = ()
            if not hearer_accepts(working, claim, (), speaker, tau):
                pool = build_justification_chains(
                    kbs[evaluator], working, claim, tau, speaker=speaker
                )
                try:
                    chains = select_justification(
                        pool, working, claim, tau, speaker=speaker, trace=trace
                    )
                except NoSufficientJustification:
                    return _concede(session, evaluator, proposer, current.prop)
            realized = realized_beliefs(claim, chains, working)
            if session.already_presented(evaluator, claim, realized):
                return _concede(session, evaluator, proposer, current.prop)
            informs.extend(realized)
            counters.append(_claim_tree(kbs[evaluator], speaker, claim, chains))
            working = _hypothetical_concession(working, member, speaker.level)

        for prop in informs:
            session.act(ActKind.INFORM, evaluator, prop=prop)

        for counter in counters:
            _settle(session, evaluator, proposer, counter, depth + 1)

        # the round is retried unless a correction is inserted below
        kind = "retry"
        if any(kbs[proposer].holds(m) for m in members):
            continue

        for member in members:
            if member == current.prop:
                continue
            current, recipe = _apply_correction(current, member)
            if recipe is not None:
                trace.emit("recipe", agent=proposer, recipe=recipe, target=member.render())

        verdict = revise_detail(
            kbs[proposer],
            current.prop,
            tau=tau,
            trace=trace,
            agent=proposer,
            note="re-revise",
        )
        if verdict.outcome is VerdictOutcome.UNCERTAIN:
            _ask(session, proposer, current.prop)
        # the proposer keeps its re-judgement, whichever way it went
        kbs[proposer] = assimilate(kbs[proposer], verdict, current.prop)
        if verdict.outcome is VerdictOutcome.ACCEPT:
            continue

        negated = current.prop.negate()
        corrected = negated if kbs[evaluator].holds(negated) else None
        trace.emit(
            "recipe",
            agent=proposer,
            recipe="alter-node",
            target=current.prop.render(),
            corrected=None if corrected is None else corrected.render(),
        )
        if corrected is None:
            # the claim is withdrawn outright and nothing replaces it
            return None

        trace.emit("recipe", agent=proposer, recipe="insert-correction", target=corrected.render())
        level = _asserted_level(kbs[evaluator], session.speakers[evaluator], corrected)
        # the next round hears the correction, with the corrector proposing
        proposer, evaluator = evaluator, proposer
        current, kind = ProposalNode(corrected, level), "ratify"
