import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parley import (
    Belief,
    ContractViolation,
    Endorsement,
    Expertise,
    KnowledgeBase,
    ProposalNode,
    SourceKind,
    Speaker,
    StrengthLevel,
    evaluate_proposal,
    predict,
    revise,
    select_focus_modification,
    supports_prop,
    VerdictOutcome,
)
from parley.beliefs import minimal_subsets, removal_closure
from parley.focus import flips, select_min_set
from parley.trace import Trace

from conftest import LEVELS, ground, seed_removal_closure

W, S, T = StrengthLevel.WEAK, StrengthLevel.STRONG, StrengthLevel.WARRANTED
A, Q, R, TGT = ground("a"), ground("q"), ground("r"), ground("t")


def kb_of(*beliefs, expertise=Expertise.EXPERT) -> KnowledgeBase:
    return KnowledgeBase(own=tuple(beliefs), expertise=expertise)


def rec(prop, level=T) -> Belief:
    return Belief(prop, Endorsement.kb_record(level))


def der(prop, level, *basis) -> Belief:
    return Belief(prop, Endorsement.derived(level, basis))


class TestRemovalClosure:
    def test_pulls_in_solely_derived(self):
        model = kb_of(rec(A), der(TGT, S, A), der(Q, S, TGT))
        assert removal_closure(model, [A]) == frozenset({A, TGT, Q})

    def test_leaves_partially_backed(self):
        model = kb_of(rec(A), rec(R), der(TGT, S, A, R))
        assert removal_closure(model, [A]) == frozenset({A})


class TestPredict:
    def test_removal_spares_target_so_it_abandons(self):
        model = kb_of(rec(A), der(TGT, S, A))
        v = predict(model, TGT, removed=[A])
        assert v.outcome is VerdictOutcome.ABANDON

    def test_hypothesized_evidence_in_closure_is_dropped(self):
        model = kb_of(rec(A), der(TGT, S, A))
        piece = Speaker("u", Expertise.EXPERT).case(TGT)[0]
        kept = predict(model, TGT, [piece])
        dropped = predict(model, TGT, [piece], removed=[A])
        assert kept.outcome is VerdictOutcome.ACCEPT
        assert dropped.outcome is VerdictOutcome.ABANDON
        assert dropped.support_score == 0  # the assertion fell with the closure

    def test_emits_trace_record(self):
        trace = Trace()
        predict(kb_of(rec(TGT)), TGT, trace=trace, agent="s", note="leaf")
        (record,) = trace.by_kind("predict")
        assert record.payload["note"] == "leaf"
        assert record.payload["removed"] == []

    def test_trace_names_removed_given_once(self):
        trace = Trace()
        model = kb_of(rec(A), der(TGT, S, A))
        predict(model, TGT, removed=(p for p in [A]), trace=trace)
        (record,) = trace.by_kind("predict")
        assert record.payload["removed"] == ["a(x)"]

    @pytest.mark.parametrize(
        "removed, names",
        [([R, A], ["a(x)", "r(x)"]), ([R, Q, A], ["a(x)", "q(x)", "r(x)"]),
         ([Q, R, A], ["a(x)", "q(x)", "r(x)"])],
    )
    def test_trace_lists_removed_in_text_order(self, removed, names):
        trace = Trace()
        model = kb_of(rec(A), rec(Q), rec(R), der(TGT, S, A, Q, R))
        predict(model, TGT, removed=removed, trace=trace)
        (record,) = trace.by_kind("predict")
        assert record.payload["removed"] == names


class TestSelectMinSet:
    def model(self) -> KnowledgeBase:
        # a and b jointly keep t accepted against c's standing counterweight
        return kb_of(
            rec(A, S),
            rec(ground("b"), S),
            rec(ground("c")),
            rec(supports_prop(A, TGT)),
            rec(supports_prop(ground("b"), TGT)),
            rec(supports_prop(ground("c"), TGT.negate())),
        )

    def test_singleton_beats_pair(self):
        chosen = select_min_set(TGT, [A, ground("b")], self.model())
        assert chosen == (A,)  # canonical tie-break between equal singletons

    def test_requires_candidates(self):
        with pytest.raises(ContractViolation):
            select_min_set(TGT, [], self.model())

    def test_requires_flipping_full_set(self):
        model = kb_of(rec(TGT), rec(A, S), rec(supports_prop(A, TGT)))
        with pytest.raises(ContractViolation):
            select_min_set(TGT, [A], model)

    def test_needs_both_when_singletons_fail(self):
        model = kb_of(
            rec(A, S),
            rec(ground("b"), S),
            der(TGT, W, A, ground("b")),
            rec(supports_prop(A, TGT)),
            rec(supports_prop(ground("b"), TGT)),
        )
        trace = Trace()
        chosen = select_min_set(TGT, [A, ground("b")], model, trace=trace, agent="s")
        assert chosen == (A, ground("b"))
        (record,) = trace.by_kind("minset")
        assert record.payload["size"] == 2


def run_sfm(evaluator: KnowledgeBase, model: KnowledgeBase, tree: ProposalNode, trace=None):
    """The root's ``foci`` record, the last one written; the focus returned
    must be the one it names."""
    # the evaluator simulates the proposer with its user model
    evaluator = KnowledgeBase(
        own=evaluator.own, user_model=model.own, expertise=evaluator.expertise
    )
    ev = evaluate_proposal(
        evaluator, tree, 1, proposer=Speaker("u", Expertise.EXPERT)
    )
    assert not ev.accepted
    trace = Trace() if trace is None else trace
    focus = select_focus_modification(
        ev,
        evaluator,
        1,
        proposer=Speaker("u", Expertise.EXPERT),
        evaluator=Speaker("s", evaluator.expertise),
        trace=trace,
    )
    root = trace.by_kind("foci")[-1].payload
    assert root["target"] == tree.prop.render()
    assert root["focus"] == (None if focus is None else names(*focus))
    return root


def names(*props) -> list[str]:
    return sorted(p.render() for p in props)


class TestFocusSelection:
    def counterweight(self, prop, basis, level=T) -> list[Belief]:
        return [
            rec(prop.negate()),
            rec(basis, level),
            rec(supports_prop(basis, prop.negate()), level),
        ]

    def test_leaf_flips(self):
        evaluator = kb_of(*self.counterweight(TGT, Q))
        model = kb_of(rec(TGT, S))
        root = run_sfm(evaluator, model, ProposalNode(TGT, S))
        assert (root["step"], root["focus"], root["cand"]) == ("leaf", names(TGT), [])

    def test_leaf_unshakeable(self):
        evaluator = kb_of(*self.counterweight(TGT, Q))
        model = kb_of(rec(TGT), rec(ground("d")), rec(supports_prop(ground("d"), TGT)))
        root = run_sfm(evaluator, model, ProposalNode(TGT, S))
        assert (root["step"], root["focus"], root["cand"]) == ("leaf", None, [])

    def test_member_alone_suffices(self):
        evaluator = kb_of(
            *self.counterweight(A, Q), *self.counterweight(TGT, R),
            rec(supports_prop(A, TGT)),
        )
        model = kb_of(rec(A, S), der(TGT, S, A), rec(supports_prop(A, TGT)))
        trace = Trace()
        root = run_sfm(evaluator, model, ProposalNode(TGT, S, (ProposalNode(A, T),)), trace)
        assert (root["step"], root["focus"], root["cand"]) == ("evidence", names(A), names(A))
        assert [r.payload["step"] for r in trace.by_kind("foci")[:-1]] == ["leaf"]

    def test_head_on_counter(self):
        evaluator = kb_of(
            *self.counterweight(A, Q), *self.counterweight(TGT, R),
            rec(supports_prop(A, TGT)),
        )
        model = kb_of(rec(A), rec(TGT, S), rec(supports_prop(A, TGT)))
        root = run_sfm(evaluator, model, ProposalNode(TGT, S, (ProposalNode(A, T),)))
        assert (root["step"], root["focus"], root["cand"]) == ("belief", names(TGT), names(A))

    def test_member_plus_counter(self):
        evaluator = kb_of(
            *self.counterweight(A, Q), *self.counterweight(TGT, R, level=W),
            rec(supports_prop(A, TGT)),
        )
        model = kb_of(rec(A, S), rec(TGT, S), rec(supports_prop(A, TGT)))
        root = run_sfm(evaluator, model, ProposalNode(TGT, S, (ProposalNode(A, S),)))
        assert (root["step"], root["focus"], root["cand"]) == (
            "both", names(A, TGT), names(A)
        )

    def test_accepted_member_is_not_walked_into(self):
        # p is accepted though r beneath it is not; only the relation from p
        # can be disputed, so r is never a focus candidate
        link = supports_prop(A, TGT)
        evaluator = kb_of(rec(A), rec(R.negate()), rec(link.negate()), rec(TGT.negate()))
        tree = ProposalNode(TGT, T, (ProposalNode(A, T, (ProposalNode(R, T),)),))
        trace = Trace()
        run_sfm(evaluator, kb_of(), tree, trace)
        assert [r.payload["target"] for r in trace.by_kind("foci")] == [link.render(), "t(x)"]

    def test_nothing_winnable(self):
        evaluator = kb_of(*self.counterweight(TGT, Q))
        model = kb_of(
            rec(A), rec(TGT, S), rec(supports_prop(A, TGT)),
            rec(ground("d")), rec(supports_prop(ground("d"), TGT)),
        )
        root = run_sfm(evaluator, model, ProposalNode(TGT, S, (ProposalNode(A, T),)))
        assert (root["step"], root["focus"], root["cand"]) == ("nil", None, [])


# ---------------------------------------------------------------------------
# hypothetical removal against the closure-and-copy oracle


def seed_predict(model, target, hypothesized=(), removed=(), tau=1):
    """``predict`` as it once was: the whole closure, a copy of the model
    without it (the target kept), then an ordinary revision."""
    closure = seed_removal_closure(model, removed)
    hyp = [
        pc
        for pc in hypothesized
        if pc.belief.prop not in closure and pc.relation.prop not in closure
    ]
    dropped = closure - {target}
    pruned = model.own_remove(*dropped) if dropped else model
    return revise(pruned, target, hyp, tau)


def seed_select_min_set(target, cand_set, model, tau=1, hypothesized=()):
    """``select_min_set`` as it once was, one ``seed_predict`` per combination."""
    cand = sorted(set(cand_set))
    return next(
        minimal_subsets(
            cand, lambda combo: flips(seed_predict(model, target, hypothesized, combo, tau))
        ),
        None,
    )


ORACLE_LITERALS = [ground(n, neg) for n in ("a", "b", "q", "t") for neg in (False, True)]
ORACLE_RELATIONS = [supports_prop(x, y) for x in ORACLE_LITERALS for y in ORACLE_LITERALS]
ORACLE_PROPS = ORACLE_LITERALS + ORACLE_RELATIONS + [r.negate() for r in ORACLE_RELATIONS]
ORACLE_TARGETS = [TGT, TGT.negate(), supports_prop(A, TGT)]
oracle_beliefs = st.builds(
    Belief,
    st.one_of(
        st.sampled_from(ORACLE_LITERALS),
        # relations into a target, negated or not, as often as literals
        st.sampled_from([supports_prop(x, t) for x in ORACLE_LITERALS for t in ORACLE_TARGETS[:2]]),
        st.sampled_from(ORACLE_PROPS),
    ),
    st.one_of(
        st.sampled_from(LEVELS).map(Endorsement.kb_record),
        # derived over literals: chains, cycles and shared support members
        st.builds(
            Endorsement.derived,
            st.sampled_from(LEVELS),
            st.sets(st.sampled_from(ORACLE_LITERALS[:6] + [TGT]), min_size=1, max_size=3),
        ),
    ),
)


def oracle_store(beliefs) -> KnowledgeBase:
    """``beliefs`` less each repeat and each contradiction of an earlier one."""
    side = {}
    for b in beliefs:
        if b.prop not in side and b.prop.negate() not in side:
            side[b.prop] = b
    return kb_of(*side.values())


@st.composite
def oracle_cases(draw):
    target = draw(st.sampled_from(ORACLE_TARGETS))
    beliefs = draw(st.lists(oracle_beliefs, max_size=12))
    # often a held self-relation of the target, whose bare piece shares
    # its key with the bare assertion a case presents
    if draw(st.booleans()):
        beliefs.insert(0, rec(supports_prop(target, target), draw(st.sampled_from(LEVELS))))
    model = oracle_store(beliefs)
    held = [b.prop for b in model.own]
    removable = st.sampled_from(held + ORACLE_LITERALS)
    cand = draw(st.lists(removable, min_size=1, max_size=4, unique=True))
    speaker = Speaker("u", draw(st.sampled_from(Expertise)))
    backing = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ORACLE_LITERALS),
                st.sampled_from((target, target.negate())),
                st.sampled_from(LEVELS),
                st.sampled_from(LEVELS),
            ),
            max_size=3,
        )
    )
    hyp = ()
    if draw(st.booleans()):
        hyp = speaker.case(target, [(x, supports_prop(x, side), *levels) for x, side, *levels in backing])
    return model, target, cand, hyp, draw(st.sampled_from((1, 1, 2)))


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_predict_and_min_set_match_the_closure_and_copy_oracle(case):
    # the removal test read in place against the closure and a copy: the
    # same verdict, pieces and prior included, for every combination of
    # the candidates, and the same chosen set
    model, target, cand, hyp, tau = case
    for size in range(len(cand) + 1):
        for combo in itertools.combinations(cand, size):
            assert predict(model, target, hyp, combo, tau) == seed_predict(
                model, target, hyp, combo, tau
            )
    expected = seed_select_min_set(target, cand, model, tau, hyp)
    if expected is None:
        with pytest.raises(ContractViolation):
            select_min_set(target, cand, model, tau, hypothesized=hyp)
    else:
        assert select_min_set(target, cand, model, tau, hypothesized=hyp) == expected


def test_removal_test_follows_a_cycle_only_through_a_removed_member():
    # b and q derive from each other, q also from a, and t from b: the
    # cycle outlives a, and is lost only with q, the member that b needs
    B = ground("b")
    model = kb_of(rec(A), der(B, S, Q), der(Q, S, B, A), der(TGT, S, B))
    for removed in ([], [A], [B], [Q], [A, Q]):
        assert removal_closure(model, removed) == seed_removal_closure(model, removed)
        assert predict(model, TGT, removed=removed) == seed_predict(model, TGT, removed=removed)
    assert removal_closure(model, [A]) == frozenset({A})
    assert removal_closure(model, [B]) == frozenset({B, TGT})
    assert removal_closure(model, [Q]) == frozenset({Q, B, TGT})


def test_a_lost_target_keeps_its_held_self_relation_but_not_a_hypothesized_one():
    # t is lost with a, but the judged store keeps the target: its held
    # bare piece (t, supports(t, t)) still counts, while the presented one
    # with the same key, stronger, is dropped before the two are merged
    self_relation = supports_prop(TGT, TGT)
    model = kb_of(
        rec(A), der(TGT, W, A), rec(self_relation, W), rec(Q), rec(supports_prop(Q, TGT.negate()), W)
    )
    bare = Speaker("u", Expertise.EXPERT).case(TGT)
    verdict = predict(model, TGT, bare, [A])
    assert verdict == seed_predict(model, TGT, bare, [A])
    ((piece, source),) = [(pc, pc.belief.endorsement.kind) for pc in verdict.support_pieces]
    assert piece.relation.prop == self_relation and source is SourceKind.DERIVED
    assert (verdict.support_score, verdict.attack_score) == (1, 1)
