import pytest

from parley import (
    Belief,
    ContractViolation,
    Endorsement,
    Expertise,
    KnowledgeBase,
    ProposalNode,
    Speaker,
    StrengthLevel,
    evaluate_proposal,
    predict,
    select_focus_modification,
    supports_prop,
    VerdictOutcome,
)
from parley.focus import removal_closure, select_min_set
from parley.trace import Trace

from conftest import ground

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
