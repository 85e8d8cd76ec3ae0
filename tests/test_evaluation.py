import dataclasses
import inspect
import re
import sys
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parley import (
    Belief,
    ContractViolation,
    Endorsement,
    EvaluatedNode,
    Expertise,
    KnowledgeBase,
    ProposalNode,
    Speaker,
    StrengthLevel,
    StructureError,
    Verdict,
    VerdictOutcome,
    assimilate_evaluated,
    evaluate_proposal,
    negotiate,
    record_proposal,
    render_tree,
    supports_prop,
    validate_tree,
)
from parley.beliefs import _PendingAdds, piece_strength, record_verdict, revise_detail
from parley.evaluation import fold, walk
from parley.focus import _asserted_evidence, _standing_attack
from parley.negotiation import _apply_correction
from parley.trace import Trace

from conftest import (
    added_in_turn,
    beliefs_about,
    ground,
    load_bench,
    load_bundled,
    proposal_trees,
    store_beliefs,
)

W, S, T = StrengthLevel.WEAK, StrengthLevel.STRONG, StrengthLevel.WARRANTED
P, R, TGT = ground("p"), ground("r"), ground("t")
REL = supports_prop(P, TGT)


def kb_of(*beliefs: Belief, model=(), expertise=Expertise.EXPERT) -> KnowledgeBase:
    return KnowledgeBase(own=tuple(beliefs), user_model=tuple(model), expertise=expertise)


def rec(prop, level=T) -> Belief:
    return Belief(prop, Endorsement.kb_record(level))


class TestTrees:
    @pytest.mark.parametrize("level", [2, "strong", None])
    def test_asserted_level_checked_at_construction(self, level):
        with pytest.raises(StructureError, match="must be a StrengthLevel"):
            ProposalNode(P, level)

    @pytest.mark.parametrize("prop", ["p", None, ("p", "x")])
    def test_prop_checked_at_construction(self, prop):
        with pytest.raises(StructureError, match="needs a Proposition"):
            ProposalNode(prop, S)

    @pytest.mark.parametrize("child", ["q", P, None])
    def test_children_checked_at_construction(self, child):
        with pytest.raises(StructureError, match="child must be a ProposalNode"):
            ProposalNode(TGT, S, (ProposalNode(R, T), child))

    def test_props_preorder(self):
        tree = ProposalNode(TGT, S, (ProposalNode(P, T), ProposalNode(R, T)))
        assert tree.props() == (
            TGT, supports_prop(P, TGT), P, supports_prop(R, TGT), R
        )

    def test_relations(self):
        tree = ProposalNode(TGT, S, (ProposalNode(P, T), ProposalNode(R, T)))
        assert tree.relations == (REL, supports_prop(R, TGT))
        # built once: every reader shares the same objects
        assert all(a is b for a, b in zip(tree.relations, tree.relations))
        assert ProposalNode(P, T).relations == ()

    def test_rejects_repeated_prop(self):
        with pytest.raises(StructureError):
            validate_tree(ProposalNode(TGT, S, (ProposalNode(TGT, S),)))

    def test_rejects_negated_revisit(self):
        with pytest.raises(StructureError):
            validate_tree(ProposalNode(TGT, S, (ProposalNode(TGT.negate(), S),)))

    def test_rejects_a_relation_asserted_with_its_negation(self):
        # relations are asserted too: t ⊣ p, ¬supports(p, t)
        tree = ProposalNode(TGT, S, (ProposalNode(P, S), ProposalNode(REL.negate(), S)))
        with pytest.raises(StructureError, match=r"asserts both supports\(p\(x\), t\(x\)\) and ¬"):
            validate_tree(tree)

    def test_deep_chain_walks_without_recursion(self):
        # a chain built in code has no nesting bound, unlike parsed text
        d = 3000
        props = [ground(f"n{i}") for i in range(d + 1)]

        def chain(bottom):
            tree = ProposalNode(bottom, S)
            for prop in reversed(props[:d]):
                tree = ProposalNode(prop, S, (tree,))
            return tree

        tree = chain(props[d])
        validate_tree(tree)
        expected = [props[0]]
        for parent, child in zip(props, props[1:]):
            expected += [supports_prop(child, parent), child]
        assert tree.props() == tuple(expected)
        with pytest.raises(StructureError, match=r"revisits ¬n0\(x\)$"):
            validate_tree(chain(props[0].negate()))

        # every walk over a proposal or its evaluation keeps its own stack:
        # with the interpreter's limit below the chain's depth, a chain is
        # rendered, negotiated by a hearer who accepts every node and by one
        # who rejects every node, and corrected at its foot
        d = 250
        tree = chain(props[d])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            assert d > sys.getrecursionlimit()
            rendered = render_tree(tree)
            empty = KnowledgeBase(own=(), user_model=(), expertise=Expertise.EXPERT)
            accepted = negotiate({"u": empty, "s": empty}, "u", tree)
            doubter = kb_of(*(rec(prop.negate()) for prop in props[: d + 1]))
            proposer = kb_of(expertise=Expertise.NON_EXPERT)
            rejected = negotiate({"u": proposer, "s": doubter}, "u", tree)
            foot, foot_recipe = _apply_correction(tree, props[d])
            edge, edge_recipe = _apply_correction(tree, supports_prop(props[d], props[d - 1]))
        finally:
            sys.setrecursionlimit(limit)
        inner = " ⊣ (".join(prop.render() for prop in props[:d])
        assert rendered == f"{inner} ⊣ n{d}(x)" + ")" * (d - 1)
        assert (accepted.outcome, accepted.depth) == ("agreement", 0)
        assert accepted.final_beliefs["s"].holds(props[d])
        assert (rejected.outcome, rejected.depth) == ("unresolved-needs-sharing", 1)
        assert [act.content() for act in rejected.acts[1:]] == [
            f"INFORM ¬n{d}(x)", f"ACCEPT ¬n{d}(x)", "INFOSHARE n0(x)"
        ]
        assert (foot_recipe, edge_recipe) == ("modify-node", "remove-node")
        assert foot.props() == edge.props() == tree.props()[:-2]

    def test_trees_print_without_recursion(self):
        # the dataclass-generated reprs recursed once per level, through
        # ``children``, and a chain 1,000 deep raised RecursionError
        tree = ProposalNode(TGT, S, (ProposalNode(P, T), ProposalNode(R, W)))
        assert repr(tree) == (
            "ProposalNode(t(x), strong, [ProposalNode(p(x), warranted), ProposalNode(r(x), weak)])"
        )
        d = 1000
        assert sys.getrecursionlimit() <= d
        tree = ProposalNode(ground("n0"), W)
        for i in range(1, d):
            tree = ProposalNode(ground(f"n{i}"), S, (tree,))
        text = repr(tree)
        assert text.startswith(f"ProposalNode(n{d - 1}(x), strong, [ProposalNode(n{d - 2}(x), ")
        assert text.endswith("ProposalNode(n0(x), weak)" + "])" * (d - 1))
        empty = KnowledgeBase(own=())
        evaluated = evaluate_proposal(empty, tree, proposer=Speaker("u", Expertise.EXPERT))
        text = repr(evaluated)
        assert text.startswith(f"EvaluatedNode(n{d - 1}(x): accept, [EvaluatedNode(n{d - 2}(x): ")
        assert text.endswith("EvaluatedNode(n0(x): accept)" + "])" * (d - 1))

    @settings(max_examples=200, deadline=None)
    @given(proposal_trees())
    def test_fold_rebuilds_an_equal_tree(self, tree):
        def make(node, parent, i, children):
            assert parent is None or parent.children[i] is node
            return ProposalNode(node.prop, node.asserted_level, tuple(children))

        rebuilt = fold(tree, make)
        assert rebuilt == tree and rebuilt is not tree
        assert repr(rebuilt) == repr(tree)

    def test_fold_runs_a_deep_chain_without_recursion(self):
        d = 5000
        assert sys.getrecursionlimit() < d
        tree = ProposalNode(ground("n0"), W)
        for i in range(1, d):
            tree = ProposalNode(ground(f"n{i}"), S, (tree,))
        assert fold(tree, lambda node, parent, i, depths: 1 + sum(depths)) == d

    def test_fold_gives_a_skipped_subtree_no_results(self):
        # p ⊣ (q ⊣ r), t: q's subtree is skipped, so q is made from no
        # results and r is never made
        q = ground("q")
        tree = ProposalNode(P, S, (ProposalNode(q, S, (ProposalNode(R, S),)), ProposalNode(TGT, S)))
        made = []

        def make(node, parent, i, results):
            made.append((node.prop.render(), i, results))
            return node.prop.render()

        assert fold(tree, make, lambda node, parent, i: node.prop != q) == "p(x)"
        assert made == [("q(x)", 0, []), ("t(x)", 1, []), ("p(x)", 0, ["q(x)", "t(x)"])]

    def test_first_revisit_in_preorder_is_named(self):
        tree = ProposalNode(
            TGT, S, (ProposalNode(P, S, (ProposalNode(P, S),)), ProposalNode(TGT, S))
        )
        with pytest.raises(StructureError, match=r"revisits p\(x\)$"):
            validate_tree(tree)

    def test_render_nests(self):
        tree = ProposalNode(
            TGT.negate(), S, (ProposalNode(P, T, (ProposalNode(R, W),)),)
        )
        assert render_tree(tree) == "¬t(x) ⊣ (p(x) ⊣ r(x))"


class TestRecordProposal:
    def test_nodes_and_relations_modelled(self):
        kb = kb_of()
        tree = ProposalNode(TGT, S, (ProposalNode(P, T),))
        kb2 = record_proposal(kb, tree, speaker=Speaker("u", Expertise.EXPERT))
        root = kb2.model_view().own_belief(TGT)
        assert root.endorsement.support == frozenset({P})
        assert root.endorsement.level is S
        leaf = kb2.model_view().own_belief(P)
        assert leaf.endorsement.speaker == "u"
        assert leaf.endorsement.level is T
        rel = kb2.model_view().own_belief(REL)
        assert rel.endorsement.level is T  # carries the child's asserted level

    def test_same_polarity_entry_kept(self):
        kb = kb_of(model=[Belief(P, Endorsement.kb_record(W))])
        kb2 = record_proposal(
            kb, ProposalNode(P, T), speaker=Speaker("u", Expertise.EXPERT)
        )
        assert kb2.model_view().own_belief(P).endorsement.level is W

    def test_contradicting_entry_replaced(self):
        kb = kb_of(model=[rec(P.negate())])
        kb2 = record_proposal(
            kb, ProposalNode(P, T), speaker=Speaker("u", Expertise.EXPERT)
        )
        assert kb2.model_view().own_belief(P.negate()) is None
        assert kb2.model_view().own_belief(P).endorsement.speaker == "u"


class TestEvaluate:
    def evaluate(self, kb, tree, expertise=Expertise.EXPERT, trace=None):
        return evaluate_proposal(
            kb, tree, 1, proposer=Speaker("u", expertise), trace=trace, agent="s"
        )

    def test_lookup_accepts_held_relation(self):
        kb = kb_of(rec(REL, S))
        trace = Trace()
        ev = self.evaluate(kb, ProposalNode(TGT, S, (ProposalNode(P, T),)), trace=trace)
        (relation_verdict,) = ev.relation_verdicts
        assert relation_verdict.prior_support is kb.own_belief(REL)  # looked up
        assert relation_verdict.outcome is VerdictOutcome.ACCEPT
        assert relation_verdict.support_score == 2
        assert relation_verdict.accepted_strength() is S
        assert ev.verdict.outcome is VerdictOutcome.ACCEPT
        assert (ev.verdict.support_score, ev.verdict.attack_score) == (5, 0)
        methods = [r.payload["method"] for r in trace.by_kind("revise")]
        assert methods == ["scores", "lookup", "scores"]  # child, relation, root

    def test_root_relation_reads_not_accepted(self):
        # each relation's verdict is kept on its parent, so the root, which
        # backs nothing, has no relation member to read
        ev = self.evaluate(kb_of(), ProposalNode(TGT, S, (ProposalNode(P, T),)))
        fields = [f.name for f in dataclasses.fields(EvaluatedNode)]
        assert fields == ["node", "verdict", "children", "relation_verdicts"]
        for gone in ("relation", "relation_verdict", "relation_lookup", "relation_accepted"):
            assert not hasattr(ev, gone)
        assert ev.accepted and not hasattr(ev, "counted")
        (child,), (relation_verdict,) = ev.children, ev.relation_verdicts
        assert child.accepted and relation_verdict.outcome is VerdictOutcome.ACCEPT
        assert child.relation_verdicts == ()

    def test_evaluations_compare_by_identity_without_recursion(self):
        # a generated __eq__ and __hash__ recursed once per level, through
        # ``children``, and a chain 1,000 deep raised RecursionError
        d = 1000
        assert sys.getrecursionlimit() <= d
        tree = ProposalNode(ground("n0"), W)
        for i in range(1, d):
            tree = ProposalNode(ground(f"n{i}"), S, (tree,))
        a, b = self.evaluate(kb_of(), tree), self.evaluate(kb_of(), tree)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_lookup_rejects_on_held_negation(self):
        kb = kb_of(rec(REL.negate()))
        trace = Trace()
        ev = self.evaluate(kb, ProposalNode(TGT, S, (ProposalNode(P, T),)), trace=trace)
        (relation_verdict,) = ev.relation_verdicts
        methods = [r.payload["method"] for r in trace.by_kind("revise")]
        assert methods == ["scores", "lookup", "scores"]  # child, relation, root
        assert relation_verdict.outcome is not VerdictOutcome.ACCEPT
        assert relation_verdict.attack_score == 3
        assert ev.children[0].accepted  # the child alone does not back the root
        assert ev.verdict.support_score == 3  # bare assertion only

    def test_unheld_relation_is_revised(self):
        kb = kb_of()
        trace = Trace()
        ev = self.evaluate(kb, ProposalNode(TGT, S, (ProposalNode(P, T),)), trace=trace)
        (relation_verdict,) = ev.relation_verdicts
        methods = [r.payload["method"] for r in trace.by_kind("revise")]
        assert methods == ["scores", "scores", "scores"]  # child, relation, root
        assert relation_verdict.outcome is VerdictOutcome.ACCEPT
        assert relation_verdict.accepted_strength() is T

    def test_child_counts_at_granted_strength(self):
        # a non-expert overstates the leaf; evaluation grants only strong
        kb = kb_of(rec(REL))
        ev = self.evaluate(
            kb, ProposalNode(TGT, S, (ProposalNode(P, T),)), expertise=Expertise.NON_EXPERT
        )
        child = ev.children[0]
        assert child.verdict.accepted_strength() is S
        credited = [pc for pc in ev.verdict.support_pieces if pc.belief.prop == P]
        assert [piece_strength(pc) for pc in credited] == [S]
        presented = _asserted_evidence(ev, Speaker("u", Expertise.NON_EXPERT))
        asserted = [pc for pc in presented if pc.belief.prop == P]
        assert [piece_strength(pc) for pc in asserted] == [T]  # as claimed, not as granted

    def test_rejected_child_still_in_presented_evidence(self):
        kb = kb_of(rec(P.negate()), rec(REL))
        ev = self.evaluate(kb, ProposalNode(TGT, S, (ProposalNode(P, W),)))
        assert not ev.children[0].accepted
        presented = _asserted_evidence(ev, Speaker("u", Expertise.EXPERT))
        assert [pc.belief.prop for pc in presented] == [TGT, P]

    def test_standing_attack_includes_counter_assertion(self):
        q = ground("q")
        kb = kb_of(rec(TGT.negate()), rec(q), rec(supports_prop(q, TGT.negate())))
        ev = self.evaluate(kb, ProposalNode(TGT, S))
        assert ev.verdict.outcome is VerdictOutcome.REJECT
        assert (ev.verdict.support_score, ev.verdict.attack_score) == (3, 6)
        attackers = {pc.belief.prop for pc in _standing_attack(kb, TGT, Speaker("s", kb.expertise))}
        assert attackers == {TGT.negate(), q}


    @pytest.mark.parametrize("name", ["both", "evidence", "nest", "smith", "tie", "visit"])
    def test_one_evidence_set_per_revision(self, name):
        # lookups and the focus-only evidence build no evidence set here
        scenario = load_bundled(name)
        evaluator = next(a for a in scenario.agents if a is not scenario.proposer)
        spans = load_bench("spans")
        recorder = spans.Recorder()
        trace = Trace()
        with spans.instrumented(recorder):
            evaluate_proposal(
                evaluator.kb,
                scenario.proposal,
                scenario.tau,
                proposer=Speaker(scenario.proposer.id, scenario.proposer.kb.expertise),
                trace=trace,
                agent=evaluator.id,
            )
        revisions = [r for r in trace.by_kind("revise") if r.payload["method"] == "scores"]
        assert revisions
        calls = spans.layer_metrics(recorder, 1, 0)["beliefs.evidence_calls"][0]
        assert calls == len(revisions)


class TestAssimilateEvaluated:
    def test_adopts_subtree_and_reports_agreed(self):
        kb = kb_of(rec(REL, S))
        ev = evaluate_proposal(
            kb, ProposalNode(TGT, S, (ProposalNode(P, T),)), 1,
            proposer=Speaker("u", Expertise.EXPERT),
        )
        kb2, agreed = assimilate_evaluated(kb, ev)
        assert agreed == tuple(sorted([P, TGT, REL]))
        assert kb2.own_belief(TGT).endorsement.support == frozenset({P})
        assert kb2.own_belief(P).endorsement.speaker == "u"
        assert kb2.own_belief(REL).endorsement.level is S  # untouched lookup entry

    def test_newly_accepted_relation_adopted_as_assertion(self):
        kb = kb_of()
        ev = evaluate_proposal(
            kb, ProposalNode(TGT, S, (ProposalNode(P, T),)), 1,
            proposer=Speaker("u", Expertise.EXPERT),
        )
        kb2, agreed = assimilate_evaluated(kb, ev)
        assert REL in agreed
        assert kb2.own_belief(REL).endorsement.speaker == "u"

    def test_relation_backed_by_own_evidence_adopted_as_derived(self):
        # the hearer's own x supports the offered relation, so the relation is
        # adopted like a node, derived from the evidence that won it, not as
        # the proposer's bare assertion
        x = ground("x")
        kb = kb_of(rec(x), rec(supports_prop(x, REL)))
        ev = evaluate_proposal(
            kb, ProposalNode(TGT, S, (ProposalNode(P, T),)), 1,
            proposer=Speaker("u", Expertise.EXPERT),
        )
        kb2, agreed = assimilate_evaluated(kb, ev)
        assert REL in agreed
        assert kb2.own_belief(REL).endorsement == Endorsement.derived(T, {x})
        assert kb2.own_belief(P).endorsement.speaker == "u"

    def test_nothing_adopted_from_beneath_a_rejected_node(self):
        # p is rejected against the hearer's case for ¬p; r beneath it is
        # accepted on its own, yet the hearer does not take it on
        q = ground("q")
        kb = kb_of(rec(P.negate()), rec(q), rec(supports_prop(q, P.negate())))
        ev = evaluate_proposal(
            kb, ProposalNode(TGT, S, (ProposalNode(P, S, (ProposalNode(R, S),)),)), 1,
            proposer=Speaker("u", Expertise.NON_EXPERT),
        )
        (child,) = ev.children
        assert ev.accepted and not child.accepted and child.children[0].accepted
        kb2, agreed = assimilate_evaluated(kb, ev)
        assert agreed == tuple(sorted([TGT, REL]))
        assert kb2.own_belief(R) is None

    def test_requires_accepted_root(self):
        kb = kb_of(rec(TGT.negate()))
        ev = evaluate_proposal(
            kb, ProposalNode(TGT, W), 1, proposer=Speaker("u", Expertise.NON_EXPERT)
        )
        assert not ev.accepted
        with pytest.raises(ContractViolation):
            assimilate_evaluated(kb, ev)


# ---------------------------------------------------------------------------
# relation verdicts kept on the parent against the child-side reference


@dataclasses.dataclass(frozen=True, eq=False)
class SeedEvaluatedNode:
    """``EvaluatedNode`` as it was: the relation to its parent, that
    relation's verdict and whether it was looked up are kept on the child,
    and are None at the root."""

    node: ProposalNode
    verdict: Verdict
    children: tuple
    relation: Optional[object] = None
    relation_verdict: Optional[Verdict] = None
    relation_lookup: Optional[bool] = None

    @property
    def prop(self):
        return self.node.prop

    @property
    def accepted(self) -> bool:
        return self.verdict.outcome is VerdictOutcome.ACCEPT

    @property
    def relation_accepted(self) -> bool:
        verdict = self.relation_verdict
        return verdict is not None and verdict.outcome is VerdictOutcome.ACCEPT

    @property
    def counted(self) -> bool:
        return self.accepted and self.relation_accepted


def seed_evaluate_proposal(kb, tree, tau, *, proposer, trace=None, agent=""):
    """``evaluate_proposal`` as it was, building child-side nodes."""
    validate_tree(tree)
    judged = [[]]
    for node, parent, i, done in walk(tree):
        if not done:
            judged.append([])
            continue
        children = tuple(judged.pop())
        backing = []
        for c in children:
            if c.counted:
                levels = (c.verdict.accepted_strength(), c.relation_verdict.accepted_strength())
                backing.append((c.prop, c.relation, *levels))
        presented = proposer.case(node.prop, backing)
        verdict = revise_detail(kb, node.prop, presented, tau, trace=trace, agent=agent)
        if parent is None:
            return SeedEvaluatedNode(node, verdict, children)
        relation = parent.relations[i]
        held = kb.own_belief(relation)
        held_neg = kb.own_belief(relation.negate())
        lookup = held is not None or held_neg is not None
        if held is not None:
            rel_verdict = Verdict(VerdictOutcome.ACCEPT, held.endorsement.level, 0, prior_support=held)
        elif held_neg is not None:
            rel_verdict = Verdict(VerdictOutcome.REJECT, 0, held_neg.endorsement.level)
        else:
            case = proposer.case(relation)
            rel_verdict = revise_detail(kb, relation, case, tau, trace=trace, agent=agent)
        if lookup:
            record_verdict(trace, agent, relation, rel_verdict, method="lookup")
        judged[-1].append(SeedEvaluatedNode(node, verdict, children, relation, rel_verdict, lookup))


def seed_assimilate_evaluated(kb, evaluated):
    """``assimilate_evaluated`` as it was: a relation accepted by lookup is
    skipped by its flag."""
    if not evaluated.accepted:
        raise ContractViolation("cannot assimilate a proposal that was not accepted")
    agreed = []
    pending = _PendingAdds(kb, own=True)
    for ev, parent, _, done in walk(evaluated, lambda ev, *_: ev.accepted):
        if not done:
            continue
        if ev.accepted:
            agreed.append(ev.prop)
            pending.adopt(ev.prop, ev.verdict.support_pieces)
        if parent is not None and ev.relation_accepted:
            agreed.append(ev.relation)
            if not ev.relation_lookup:
                pending.adopt(ev.relation, ev.relation_verdict.support_pieces)
    return pending.store(), tuple(sorted(set(agreed)))


@settings(max_examples=300, deadline=None)
@given(
    proposal_trees(),
    st.sampled_from(Expertise),
    st.sampled_from(Expertise),
    st.integers(1, 3),
    st.data(),
)
def test_relation_verdicts_match_the_child_side_reference(tree, held_by, proposed_by, tau, data):
    # the hearer holds some of the tree's propositions and relations, or
    # their negations, beside other beliefs; a proposition may repeat
    # across branches, and a tree holding p in one branch and ¬p in
    # another is refused by both
    about_tree = [beliefs_about(tree.props())]
    relations = [prop for prop in tree.props() if prop.is_relation]
    if relations:  # so that lookups, accepting and rejecting, are common
        about_tree.append(beliefs_about(relations))
    own = added_in_turn(data.draw(st.lists(st.one_of(*about_tree, store_beliefs), max_size=12)))
    kb = KnowledgeBase(own, expertise=held_by)
    proposer = Speaker("u", proposed_by)
    traces = Trace(), Trace()
    try:
        expected = seed_evaluate_proposal(kb, tree, tau, proposer=proposer, trace=traces[0])
    except StructureError as exc:
        with pytest.raises(StructureError, match=re.escape(str(exc))):
            evaluate_proposal(kb, tree, tau, proposer=proposer, trace=traces[1])
        return
    got = evaluate_proposal(kb, tree, tau, proposer=proposer, trace=traces[1])
    assert traces[1].to_ndjson() == traces[0].to_ndjson()
    for (ev, parent, i, done), (ref, *_) in zip(walk(got), walk(expected), strict=True):
        if done:
            continue
        assert ev.node is ref.node and ev.verdict == ref.verdict
        assert len(ev.relation_verdicts) == len(ev.children)
        if parent is not None:
            assert parent.relation_verdicts[i] == ref.relation_verdict
    if not expected.accepted:
        with pytest.raises(ContractViolation):
            assimilate_evaluated(kb, got)
        return
    adopted, agreed = assimilate_evaluated(kb, got)
    expected_store, expected_agreed = seed_assimilate_evaluated(kb, expected)
    assert agreed == expected_agreed
    assert adopted == expected_store


def test_relation_held_before_stays_the_same_belief():
    # a relation the hearer holds is accepted by lookup, credits no piece,
    # and comes out of assimilation as the very belief held
    kb = kb_of(rec(REL, S))
    ev = evaluate_proposal(
        kb, ProposalNode(TGT, S, (ProposalNode(P, T),)), 1, proposer=Speaker("u", Expertise.EXPERT)
    )
    (relation_verdict,) = ev.relation_verdicts
    assert relation_verdict.prior_support is kb.own_belief(REL)
    assert relation_verdict.support_pieces == ()
    kb2, agreed = assimilate_evaluated(kb, ev)
    assert REL in agreed
    assert kb2.own_belief(REL) is kb.own_belief(REL)
