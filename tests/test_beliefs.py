import copy
import gc
import json
import pickle
import random
import re
import sys
import time
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parley import (
    Belief,
    ContradictionError,
    ContractViolation,
    Endorsement,
    EvidencePiece,
    Expertise,
    KnowledgeBase,
    ProposalNode,
    Proposition,
    SourceKind,
    Speaker,
    StrengthLevel,
    StructureError,
    Verdict,
    VerdictOutcome,
    assimilate,
    assimilate_evaluated,
    build_evidence_set,
    evaluate_proposal,
    parse_proposition,
    parse_scenario,
    revise,
    supports_prop,
)
from parley.beliefs import (
    MAX_PROP_NESTING,
    _standing,
    piece_strength,
    proposition_parser,
    removal_closure,
    revise_detail,
)

from conftest import (
    ASSERTED_LEVEL,
    LEVELS,
    added_in_turn,
    assert_index_covers,
    asserted,
    ground,
    random_revision_case,
    random_store,
    seed_removal_closure,
)

W, S, T = StrengthLevel.WEAK, StrengthLevel.STRONG, StrengthLevel.WARRANTED


def kb_of(*beliefs: Belief, expertise: Expertise = Expertise.EXPERT) -> KnowledgeBase:
    return KnowledgeBase(own=tuple(beliefs), expertise=expertise)


def rec(prop: Proposition, level: StrengthLevel = T) -> Belief:
    return Belief(prop, Endorsement.kb_record(level))


class TestPropositions:
    def test_parse_render_round_trip(self):
        texts = [
            "teaches(smith, ai)",
            "~teaches(smith, ai)",
            "supports(on_sabbatical(smith, next_year), ~teaches(smith, ai))",
            "~supports(a(x), b(y))",
            "flag",
        ]
        for text in texts:
            prop = parse_proposition(text)
            assert parse_proposition(prop.render(ascii_not=True)) == prop
            assert parse_proposition(prop.render()) == prop

    def test_unicode_negation_accepted(self):
        assert parse_proposition("¬p(a)") == parse_proposition("~p(a)")

    def test_double_negation_cancels(self):
        assert parse_proposition("~~p(a)") == parse_proposition("p(a)")

    def test_negate_involution(self):
        prop = parse_proposition("p(a, b)")
        assert prop.negate().negate() == prop
        assert prop.negate().negated

    @pytest.mark.parametrize(
        "bad",
        ["", "Upper(a)", "p(a", "p(a,)", "p(a) q", "supports(a(x))", "supports(a(x), b(y), c(z))"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(StructureError):
            parse_proposition(bad)

    @pytest.mark.parametrize("bad", [123, None, ["p"], b"p"], ids=repr)
    def test_refuses_what_is_no_text(self, bad):
        # an unhashable value too: it never reaches the memo's lookup
        with pytest.raises(StructureError) as info:
            parse_proposition(bad)
        assert str(info.value) == f"proposition text must be a string, got {bad!r}"

    def test_supports_nesting_is_bounded(self):
        def nested(levels):
            text = "p"
            for _ in range(levels):
                text = f"supports({text}, q)"
            return text

        at_limit = parse_proposition(nested(MAX_PROP_NESTING))
        assert parse_proposition(at_limit.render()) == at_limit
        hash(at_limit)
        with pytest.raises(StructureError, match="nested deeper"):
            parse_proposition(nested(MAX_PROP_NESTING + 1))

    def test_relation_args_must_be_propositions(self):
        with pytest.raises(StructureError):
            Proposition(False, "supports", ("a", "b"))

    @pytest.mark.parametrize("args", [(ground("p"), "q"), ("p", ground("q")), (None, None)])
    def test_supports_prop_takes_propositions(self, args):
        with pytest.raises(StructureError, match=re.escape("takes exactly two propositions")):
            supports_prop(*args)

    def test_deep_library_proposition(self):
        # far past both MAX_PROP_NESTING and what a recursive render or hash
        # could reach
        def chain(depth):
            prop = ground("p")
            for i in range(depth):
                prop = supports_prop(prop, ground(f"q{i % 3}"))
            return prop

        p, p2 = chain(500), chain(500)
        assert p is not p2 and p == p2 and hash(p) == hash(p2)
        assert p.render() == p2.render() and p.render().count("supports(") == 500
        assert p.negate() != p and p.negate().negate() == p
        assert p.negate() == Proposition(True, "supports", p.args)
        assert p.negate().render() == "¬" + p.render()
        assert sorted([p.negate(), p2, chain(499)]) == [chain(499), p, p.negate()]
        assert KnowledgeBase(own=(rec(p),)).holds(p2)


def structurally_equal(p: Proposition, q: Proposition) -> bool:
    if (p.negated, p.predicate, len(p.args)) != (q.negated, q.predicate, len(q.args)):
        return False
    return all(
        structurally_equal(a, b) if isinstance(a, Proposition) else a == b
        for a, b in zip(p.args, q.args)
    )


def rebuild(p: Proposition) -> Proposition:
    args = tuple(rebuild(a) if isinstance(a, Proposition) else a for a in p.args)
    return Proposition(p.negated, p.predicate, args)


# few names, so that independently drawn propositions often coincide
literals = st.builds(
    Proposition,
    st.booleans(),
    st.sampled_from(["p", "q", "p_1", "_"]),
    st.lists(st.sampled_from(["a", "b", "0", "a_b"]), max_size=2).map(tuple),
)
propositions = st.recursive(
    literals,
    lambda inner: st.builds(
        lambda negated, a, b: Proposition(negated, "supports", (a, b)),
        st.booleans(),
        inner,
        inner,
    ),
    max_leaves=6,
)


@settings(max_examples=300)
@given(propositions, propositions)
def test_identity_is_the_rendered_text(p, q):
    assert (p == q) == structurally_equal(p, q)
    assert (p < q) == (p.render() < q.render())
    assert (p <= q) == (p.render() <= q.render())
    copy = rebuild(p)
    assert copy == p and hash(copy) == hash(p)
    if p == q:
        assert hash(p) == hash(q)
    assert parse_proposition(p.render(ascii_not=True)) == p


class TestEndorsements:
    def test_assertion_requires_speaker(self):
        with pytest.raises(StructureError):
            Endorsement(T, SourceKind.ASSERTION)

    def test_derived_requires_support(self):
        with pytest.raises(StructureError):
            Endorsement.derived(T, [])

    @pytest.mark.parametrize("level", ["strong", 2, None, True])
    def test_level_must_be_a_strength_level(self, level):
        builders = (
            lambda: Endorsement(level, SourceKind.KB_RECORD),
            lambda: Endorsement.kb_record(level),
            lambda: Endorsement.stereotype(level),
            lambda: Endorsement(level, SourceKind.ASSERTION, "s", Expertise.EXPERT),
            lambda: Speaker("s", Expertise.EXPERT).endorse(level),
            lambda: Endorsement.derived(level, [ground("p")]),
        )
        for build in builders:
            with pytest.raises(StructureError, match="must be a StrengthLevel"):
                build()

    def test_speaker_level_by_expertise(self):
        for expertise, level in ASSERTED_LEVEL.items():
            speaker = Speaker("s", expertise)
            assert speaker.level is level
            assert speaker.case(ground("p"))[0].belief.endorsement.level is level


class TestKnowledgeBase:
    def test_rejects_contradiction(self):
        p = ground("p")
        with pytest.raises(ContradictionError):
            kb_of(rec(p), rec(p.negate()))

    def test_rejects_duplicates(self):
        p = ground("p")
        with pytest.raises(StructureError):
            kb_of(rec(p), rec(p, S))

    def test_add_replaces_negation(self):
        p = ground("p")
        kb = kb_of(rec(p)).own_add(rec(p.negate(), S))
        assert kb.holds(p.negate()) and not kb.holds(p)

    def test_stores_sorted_and_immutable(self):
        a, b = ground("a"), ground("b")
        kb = kb_of(rec(b), rec(a))
        assert [bel.prop for bel in kb.own] == [a, b]
        kb2 = kb.own_remove(a)
        assert kb.holds(a) and not kb2.holds(a)

    def test_first_contradiction_in_input_order_is_named(self):
        p, q = ground("p"), ground("q")
        with pytest.raises(ContradictionError, match=r"holds both q\(x\) and ¬q\(x\)"):
            kb_of(rec(q.negate()), rec(p.negate()), rec(p), rec(q))


class TestEvidence:
    def test_piece_needs_matching_antecedent(self):
        p, q = ground("p"), ground("q")
        with pytest.raises(StructureError):
            EvidencePiece(rec(p), rec(supports_prop(q, p)))

    def test_build_skips_unheld_antecedent_and_negated_relations(self):
        p, q, t = ground("p"), ground("q"), ground("t")
        kb = kb_of(
            rec(p),
            rec(supports_prop(p, t)),
            rec(supports_prop(q, t)),  # q itself not held
            Belief(supports_prop(p, t.negate()).negate(), Endorsement.kb_record(T)),
        )
        pieces = build_evidence_set(kb, t)
        assert [pc.belief.prop for pc in pieces] == [p]
        assert pieces[0].consequent == t

    def test_dedupe_keeps_strongest(self):
        p, t = ground("p"), ground("t")
        rel = supports_prop(p, t)
        kb = kb_of(rec(p, W), rec(rel))
        weak = EvidencePiece(rec(p, W), rec(rel))
        strong = EvidencePiece(rec(p, T), rec(rel))
        pieces = build_evidence_set(kb, t, (weak, strong))
        assert len(pieces) == 1
        assert piece_strength(pieces[0]) is T


class TestRevision:
    def test_accept_reject_margins(self):
        t, p = ground("t"), ground("p")
        kb = kb_of(rec(p), rec(supports_prop(p, t)))
        assert revise(kb, t).outcome is VerdictOutcome.ACCEPT
        assert revise(kb, t.negate()).outcome is VerdictOutcome.REJECT

    def test_uncertain_within_threshold(self):
        t = ground("t")
        kb = kb_of(rec(t, S))
        v = revise(kb, t, tau=3)
        assert v.outcome is VerdictOutcome.UNCERTAIN
        assert (v.support_score, v.attack_score) == (2, 0)

    def test_tau_must_be_positive(self):
        with pytest.raises(ContractViolation):
            revise(kb_of(), ground("t"), tau=0)

    def test_abandon_when_derivation_basis_gone(self):
        t, p = ground("t"), ground("p")
        kb = kb_of(Belief(t, Endorsement.derived(S, [p])))
        v = revise(kb, t)
        assert v.outcome is VerdictOutcome.ABANDON
        assert (v.support_score, v.attack_score) == (0, 0)

    def test_standing_chain_is_recursive(self):
        t, p, q = ground("t"), ground("p"), ground("q")
        kb = kb_of(
            Belief(t, Endorsement.derived(S, [p])),
            Belief(p, Endorsement.derived(S, [q])),
        )
        # p is held but itself baseless, so t's basis is refuted transitively
        assert revise(kb, t).outcome is VerdictOutcome.ABANDON

    def test_standing_cycle_does_not_recurse_forever(self):
        t, p = ground("t"), ground("p")
        kb = kb_of(
            Belief(t, Endorsement.derived(S, [p])),
            Belief(p, Endorsement.derived(S, [t])),
        )
        assert revise(kb, t).outcome is VerdictOutcome.ABANDON

    def test_standing_prior_subsumes_self_assertion(self):
        t = ground("t")
        kb = kb_of(rec(t, T))
        piece = Speaker("u", Expertise.EXPERT).case(t)[0]
        v = revise(kb, t, [piece])
        assert v.support_score == 3  # prior only, not prior + assertion

    def test_speaker_case_shares_one_endorsement_per_level(self):
        t, p, q = ground("t"), ground("p"), ground("q")
        backing = [(p, supports_prop(p, t), T, S), (q, supports_prop(q, t), S, T)]
        speaker = Speaker("u", Expertise.EXPERT)
        case = speaker.case(t, backing)
        by_level = {}
        for piece in case:
            for part in (piece.belief, piece.relation):
                e = part.endorsement
                assert (e.kind, e.speaker, e.expertise) == (
                    SourceKind.ASSERTION, "u", Expertise.EXPERT
                )
                assert by_level.setdefault(e.level, e) is e
        assert sorted(by_level) == [S, T]
        # and with every later case and endorsement by the same speaker
        assert speaker.case(q)[0].belief.endorsement is by_level[T]
        assert all(speaker.endorse(level) is e for level, e in by_level.items())

    @pytest.mark.parametrize("bad", [2, "strong", None, True])
    def test_speaker_checks_every_level(self, bad):
        # a level the speaker already shares must not let an equal int through
        t, p = ground("t"), ground("p")
        speaker = Speaker("u", Expertise.NON_EXPERT)
        assert speaker.endorse(S) is speaker.endorse(S)
        with pytest.raises(StructureError, match="must be a StrengthLevel"):
            speaker.case(t, [(p, supports_prop(p, t), S, bad)])
        with pytest.raises(StructureError, match="must be a StrengthLevel"):
            speaker.endorse(bad)

    @pytest.mark.parametrize(
        "name, expertise",
        [("u", "expert"), ("u", None), ("u", 1), ("", Expertise.EXPERT), (None, Expertise.EXPERT)],
    )
    def test_speaker_checks_its_fields(self, name, expertise):
        with pytest.raises(StructureError, match="speaker"):
            Speaker(name, expertise)

    def test_presented_pieces_must_address_target(self):
        t, u = ground("t"), ground("u")
        piece = Speaker("u", Expertise.EXPERT).case(u)[0]
        with pytest.raises(StructureError):
            revise(kb_of(), t, [piece])


class TestAssimilation:
    def test_accept_adopts_derived_at_winning_strength(self):
        t, p = ground("t"), ground("p")
        rel = supports_prop(p, t)
        kb = kb_of(rec(p, S), rec(rel))
        kb2 = assimilate(kb, revise_detail(kb, t), t)
        held = kb2.own_belief(t)
        assert held.endorsement.level is S
        assert held.endorsement.support == frozenset({p})

    def test_bare_assertion_adopts_assertion_source(self):
        t = ground("t")
        piece = Speaker("u", Expertise.EXPERT).case(t)[0]
        kb2 = assimilate(kb_of(), revise_detail(kb_of(), t, [piece]), t)
        held = kb2.own_belief(t)
        assert held.endorsement.speaker == "u"
        assert held.endorsement.level is T

    def test_reject_adopts_negation_and_drops_target(self):
        t, p = ground("t"), ground("p")
        kb = kb_of(rec(t, W), rec(p), rec(supports_prop(p, t.negate())))
        verdict = revise_detail(kb, t)
        assert verdict.outcome is VerdictOutcome.REJECT
        kb2 = assimilate(kb, verdict, t)
        assert not kb2.holds(t) and kb2.holds(t.negate())

    def test_abandon_removes_without_negating(self):
        t, p = ground("t"), ground("p")
        kb = kb_of(Belief(t, Endorsement.derived(S, [p])))
        kb2 = assimilate(kb, revise_detail(kb, t), t)
        assert not kb2.holds(t) and not kb2.holds(t.negate())

    def test_uncertain_cannot_assimilate(self):
        t = ground("t")
        kb = kb_of(rec(t, S))
        verdict = revise_detail(kb, t, tau=3)
        with pytest.raises(ContractViolation):
            assimilate(kb, verdict, t)

    def test_bare_assertion_keeps_an_endorsement_at_the_winning_level(self):
        t = ground("t")
        case = Speaker("u", Expertise.NON_EXPERT).case(t)
        kb = assimilate(kb_of(), revise(kb_of(), t, case), t)
        assert kb.own_belief(t).endorsement is case[0].belief.endorsement

    def test_caller_built_weak_self_relation_caps_the_adopted_level(self):
        # a bare piece built by hand may hold its self-relation below its
        # belief; the target is then held at the piece's strength, the
        # verdict's accepted strength, with the assertion's provenance
        t, u = ground("t"), Speaker("u", Expertise.EXPERT)
        piece = EvidencePiece(
            Belief(t, u.endorse(S)), Belief(supports_prop(t, t), u.endorse(W))
        )
        kb = kb_of()
        for verdict in (
            revise(kb, t, [piece]),
            Verdict(VerdictOutcome.ACCEPT, 1, 0, support_pieces=(piece,)),
        ):
            assert verdict.accepted_strength() is W
            kb2 = assimilate(kb, verdict, t)
            assert kb2 == kb.own_add(seed_adopted(None, t, (piece,)))
            assert kb2.own_belief(t).endorsement == u.endorse(W)

    def test_keeps_stronger_prior(self):
        t = ground("t")
        kb = kb_of(rec(t, T))
        piece = Speaker("u", Expertise.NON_EXPERT).case(t)[0]
        verdict = Verdict(VerdictOutcome.ACCEPT, 0, 0, support_pieces=(piece,))
        kb2 = assimilate(kb, verdict, t)
        assert kb2.own_belief(t).endorsement.level is T

    @pytest.mark.parametrize("expertise", list(Expertise))
    @pytest.mark.parametrize("derived", [False, True], ids=["kb-record", "baseless-derived"])
    def test_weak_self_support_adopts_as_before(self, derived, expertise):
        # p held strong beside a weak supports(p, p): the store's own piece
        # over it is no stronger than p, and the speaker's bare piece, which
        # shares its key, has a warranted self-relation, so adoption gives
        # the store the reference gives.
        p = ground("p")
        held = Belief(p, Endorsement.derived(S, [ground("q")])) if derived else rec(p, S)
        kb = kb_of(held, rec(supports_prop(p, p), W))
        speaker = Speaker("u", expertise)

        def expected(verdict):
            assert verdict.outcome is VerdictOutcome.ACCEPT
            belief = seed_adopted(kb.own_belief(p), p, verdict.support_pieces)
            return kb if belief is None else kb.own_add(belief)

        for presented in ((), speaker.case(p)):
            verdict = revise(kb, p, presented)
            assert assimilate(kb, verdict, p) == expected(verdict)
        evaluated = evaluate_proposal(kb, ProposalNode(p, S), proposer=speaker)
        assert assimilate_evaluated(kb, evaluated) == (expected(evaluated.verdict), (p,))


def seed_adopted(prior, prop, evidence):
    """Reference ``beliefs._adopted``: a bare piece's endorsement is
    re-levelled to the piece's strength."""
    if not evidence:
        if prior is None:
            raise ContractViolation(f"cannot adopt {prop} with no evidence and no prior")
        return None
    win = max(piece_strength(pc) for pc in evidence)
    if prior is not None and prior.endorsement.level >= win:
        return None
    basis = {pc.belief.prop for pc in evidence if pc.belief.prop != prop}
    if basis:
        endorsement = Endorsement.derived(win, basis)
    else:
        endorsement = max(evidence, key=piece_strength).belief.endorsement
        if endorsement.level != win:
            endorsement = replace(endorsement, level=win)
    return Belief(prop, endorsement)


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize("belief_level", LEVELS)
@pytest.mark.parametrize("relation_level", LEVELS)
def test_weakest_link_exhaustive(belief_level, relation_level):
    p, t = ground("p"), ground("t")
    piece = EvidencePiece(rec(p, belief_level), rec(supports_prop(p, t), relation_level))
    assert piece_strength(piece) == min(belief_level, relation_level)


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**9))
def test_more_support_never_hurts(seed):
    rng = random.Random(seed)
    kb, target, presented, tau = random_revision_case(rng)
    before = revise(kb, target, presented, tau)
    extra = EvidencePiece(
        rec(ground("extra"), rng.choice(LEVELS)),
        rec(supports_prop(ground("extra"), target), rng.choice(LEVELS)),
    )
    after = revise(kb, target, presented + [extra], tau)
    rank = {
        VerdictOutcome.REJECT: -1,
        VerdictOutcome.ABANDON: 0,
        VerdictOutcome.UNCERTAIN: 0,
        VerdictOutcome.ACCEPT: 1,
    }
    assert after.support_score >= before.support_score
    assert after.attack_score == before.attack_score
    assert rank[after.outcome] >= rank[before.outcome]


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**9))
def test_negation_symmetry(seed):
    rng = random.Random(seed)
    kb, target, presented, tau = random_revision_case(rng)
    if rng.random() < 0.5:
        # a derived prior on either side whose basis may be unheld, itself or
        # circular, so that it may not stand
        props = [ground(f"p{i}", rng.random() < 0.5) for i in range(5)]
        side = rng.choice([target, target.negate()])
        basis = rng.sample([side, *props], rng.randint(1, 2))
        kb = kb.own_add(Belief(side, Endorsement.derived(rng.choice(LEVELS), basis)))
    if rng.random() < 0.5:
        # a bare self-assertion, which a standing prior on its side replaces
        speaker = Speaker("s", rng.choice(list(Expertise)))
        presented = [*presented, *speaker.case(rng.choice([target, target.negate()]))]
    # a piece counts for its relation's consequent, so the same pool argues
    # the negation, with the two scores and the credited pieces swapped
    v = revise(kb, target, presented, tau)
    m = revise(kb, target.negate(), presented, tau)
    assert (v.support_score, v.attack_score) == (m.attack_score, m.support_score)
    assert (v.support_pieces, v.attack_pieces) == (m.attack_pieces, m.support_pieces)
    swap = {
        VerdictOutcome.ACCEPT: VerdictOutcome.REJECT,
        VerdictOutcome.REJECT: VerdictOutcome.ACCEPT,
    }
    if v.outcome in swap:
        assert m.outcome is swap[v.outcome]
    else:
        assert m.outcome in (VerdictOutcome.UNCERTAIN, VerdictOutcome.ABANDON)


def seed_presented_case(claim, speaker, expertise, backing=()):
    """``presented_case`` as it was before ``Speaker``: the bare assertion,
    then one piece per ``(prop, relation, belief_level, relation_level)``,
    endorsed through one ``assertions_by(speaker, expertise)``."""
    endorsements = {}

    def endorse(level):
        if not isinstance(level, StrengthLevel):
            raise StructureError(f"level must be a StrengthLevel, got {level!r}")
        if level not in endorsements:
            endorsements[level] = asserted(level, speaker, expertise)
        return endorsements[level]

    bare = EvidencePiece(
        Belief(claim, endorse(ASSERTED_LEVEL[expertise])),
        Belief(supports_prop(claim, claim), endorse(StrengthLevel.WARRANTED)),
    )
    return (
        bare,
        *(
            EvidencePiece(Belief(prop, endorse(bl)), Belief(rel, endorse(rl)))
            for prop, rel, bl, rl in backing
        ),
    )


CASE_LITERALS = [ground(n, negated) for n in ("p", "q", "r") for negated in (False, True)]
case_claims = st.one_of(
    st.sampled_from(CASE_LITERALS),
    st.builds(supports_prop, st.sampled_from(CASE_LITERALS), st.sampled_from(CASE_LITERALS)),
)


@settings(max_examples=300)
@given(case_claims, st.text(min_size=1, max_size=3), st.sampled_from(Expertise), st.data())
def test_speaker_case_matches_presented_case(claim, name, expertise, data):
    # each backing piece counts for the claim or its negation, from any
    # literal or relation, at any pair of levels
    backing = data.draw(
        st.lists(
            st.builds(
                lambda prop, side, bl, rl: (prop, supports_prop(prop, side), bl, rl),
                case_claims,
                st.sampled_from((claim, claim.negate())),
                st.sampled_from(LEVELS),
                st.sampled_from(LEVELS),
            ),
            max_size=4,
        )
    )
    speaker = Speaker(name, expertise)
    case = speaker.case(claim, backing)
    assert case == seed_presented_case(claim, name, expertise, backing)
    for level in LEVELS:
        assert speaker.endorse(level) is speaker.endorse(level)
        assert speaker.endorse(level) == asserted(level, name, expertise)
    for piece in case:
        for part in (piece.belief, piece.relation):
            assert part.endorsement is speaker.endorse(part.endorsement.level)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**9))
def test_assimilation_never_contradicts(seed):
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(5)]
    kb = random_store(rng, names)
    for _ in range(8):
        target = ground(rng.choice(names), rng.choice([False, True]))
        verdict = revise_detail(kb, target, tau=rng.choice([1, 2]))
        if verdict.outcome is VerdictOutcome.UNCERTAIN:
            continue
        kb = assimilate(kb, verdict, target)
        assert not (kb.holds(target) and kb.holds(target.negate()))
        # a write re-validates nothing; constructing the store does
        assert KnowledgeBase(own=kb.own, expertise=kb.expertise) == kb


# ---------------------------------------------------------------------------
# negation, store writes and standing against reference implementations


@settings(max_examples=300)
@given(propositions, propositions)
def test_negate_is_the_constructed_negation(p, q):
    neg, built = p.negate(), Proposition(not p.negated, p.predicate, p.args)
    assert neg == built and hash(neg) == hash(built)
    assert (neg < q, neg <= q, q < neg) == (built < q, built <= q, q < built)
    assert neg.render() == built.render()
    assert neg.render(ascii_not=True) == built.render(ascii_not=True)
    assert repr(neg) == repr(built)
    assert neg.negate() == p and neg.negate().render() == p.render()
    # supports_prop is trusted construction too
    rel, checked = supports_prop(p, q), Proposition(False, "supports", (p, q))
    assert repr(rel) == repr(checked) and rel.render() == checked.render()


WRITERS = ("own_add", "own_remove", "model_add", "model_remove")


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**9))
def test_store_writes_match_fresh_construction(seed):
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(5)]
    start = random_store(rng, names)
    model = random_store(rng, names)
    kb = KnowledgeBase(own=start.own, user_model=model.own, expertise=start.expertise)
    sides = {True: {b.prop: b for b in kb.own}, False: {b.prop: b for b in kb.user_model}}
    universe = [ground(n, neg) for n in names for neg in (False, True)]
    universe += [supports_prop(ground(a), ground(b)) for a in names[:2] for b in names[2:]]
    universe += [rel.negate() for rel in universe[len(names) * 2 :]]
    for _ in range(12):
        writer = rng.choice(WRITERS)
        prop = rng.choice(universe)
        ref = sides[writer.startswith("own")]
        if writer.endswith("add"):
            # a batch goes in one write, which must match adding its beliefs
            # one at a time; it may hold a proposition and its negation, or
            # one proposition at two levels
            props = [prop, *rng.choices(universe, k=rng.randint(0, 3))]
            if rng.random() < 0.5:
                pick = rng.choice(props)
                props.insert(rng.randrange(len(props) + 1), rng.choice((pick, pick.negate())))
            batch = [Belief(p, Endorsement.kb_record(rng.choice(LEVELS))) for p in props]
            one_by_one = kb
            for belief in batch:
                ref.pop(belief.prop.negate(), None)
                ref[belief.prop] = belief
                one_by_one = getattr(one_by_one, writer)(belief)
            kb = getattr(kb, writer)(*batch)
            assert kb == one_by_one
        else:
            # a removal set, in any order and possibly repeating, goes in
            # one write; it must match dropping its members one at a time
            props = rng.choices(universe, k=rng.randint(0, 3))
            one_by_one = kb
            for prop in props:
                ref.pop(prop, None)
                one_by_one = getattr(one_by_one, writer)(prop)
            kb = getattr(kb, writer)(*props)
            assert kb == one_by_one
        fresh = KnowledgeBase(
            own=tuple(sides[True].values()),
            user_model=tuple(sides[False].values()),
            expertise=kb.expertise,
        )
        assert kb == fresh
        assert kb.own == fresh.own and kb.user_model == fresh.user_model
        view, fresh_view = kb.model_view(), fresh.model_view()
        assert view == KnowledgeBase(own=fresh.user_model)
        for q in universe:
            for r in (q, q.negate()):
                assert kb.own_belief(r) == fresh.own_belief(r)
                assert view.own_belief(r) == fresh_view.own_belief(r)
                assert kb.holds(r) == fresh.holds(r)
            assert not (kb.holds(q) and kb.holds(q.negate()))
            assert not (view.own_belief(q) and view.own_belief(q.negate()))


def seed_standing(kb: KnowledgeBase, belief: Belief, seen: frozenset = frozenset()) -> bool:
    """The recursive path-set search that ``_standing`` replaced."""
    if belief.endorsement.kind is not SourceKind.DERIVED:
        return True
    if belief.prop in seen:
        return False
    seen = seen | {belief.prop}
    return any(
        (held := kb.own_belief(member)) is not None and seed_standing(kb, held, seen)
        for member in belief.endorsement.support
    )


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**9))
def test_standing_matches_seed_search(seed):
    rng = random.Random(seed)
    props = [ground(f"p{i}") for i in range(6)]

    def random_belief(prop):
        if rng.random() < 0.3:
            return rec(prop, rng.choice(LEVELS))
        # supports may name the belief itself, unheld props, and close cycles
        return Belief(prop, Endorsement.derived(S, rng.sample(props, rng.randint(1, 3))))

    kb = kb_of(*(random_belief(p) for p in props if rng.random() < 0.8))
    for belief in kb.own + tuple(random_belief(p) for p in props):
        assert _standing(kb, belief) == seed_standing(kb, belief)


def test_standing_deep_derived_chain():
    depth = 1500
    chain = [ground(f"s{i}") for i in range(depth + 1)]
    derived = [Belief(a, Endorsement.derived(S, [b])) for a, b in zip(chain, chain[1:])]
    assert revise(kb_of(*derived, rec(chain[-1])), chain[0]).outcome is VerdictOutcome.ACCEPT
    assert revise(kb_of(*derived), chain[0]).outcome is VerdictOutcome.ABANDON


def seed_build_evidence_set(kb, target, presented=()):
    """The full-store scan that the consequent index replaced."""
    sides = (target, target.negate())
    pieces = []
    for text in kb._own:
        rel = kb._read(kb._own, text)
        p = rel.prop
        if not p.is_relation or p.negated or p.args[1] not in sides:
            continue
        basis = kb.own_belief(p.args[0])
        if basis is not None:
            pieces.append(EvidencePiece(basis, rel))
    for pc in presented:
        if pc.consequent not in sides:
            raise StructureError(f"evidence piece does not address {target}: {pc.relation.prop}")
        pieces.append(pc)
    best = {}
    for pc in pieces:
        key = (pc.belief.prop.render(), pc.relation.prop.render())
        prev = best.get(key)
        if prev is None or piece_strength(pc) > piece_strength(prev):
            best[key] = pc
    return tuple(best[key] for key in sorted(best))


INDEX_LITERALS = [ground(n, neg) for n in ("p", "q", "r", "s") for neg in (False, True)]
INDEX_RELATIONS = [supports_prop(a, b) for a in INDEX_LITERALS for b in INDEX_LITERALS if a != b]
INDEX_UNIVERSE = INDEX_LITERALS + INDEX_RELATIONS + [r.negate() for r in INDEX_RELATIONS]
index_beliefs = st.builds(
    Belief,
    st.sampled_from(INDEX_UNIVERSE),
    st.one_of(
        st.sampled_from(LEVELS).map(Endorsement.kb_record),
        st.builds(
            Endorsement.derived,
            st.sampled_from(LEVELS),
            st.sets(st.sampled_from(INDEX_LITERALS), min_size=1, max_size=3),
        ),
    ),
)
# runs of beliefs that one add call writes together
index_batches = st.lists(
    st.one_of(
        index_beliefs.map(lambda b: [b]),
        # a relation re-added at another level, or its negation added
        st.builds(
            lambda rel, negate, level: [rec(rel.negate() if negate else rel, level)],
            st.sampled_from(INDEX_RELATIONS[:6]),
            st.booleans(),
            st.sampled_from(LEVELS),
        ),
        # one proposition, then it again at another level or its negation:
        # the negation of an indexed relation drops it within the batch
        st.builds(
            lambda b, negate, level: [b, rec(b.prop.negate() if negate else b.prop, level)],
            index_beliefs,
            st.booleans(),
            st.sampled_from(LEVELS),
        ),
    ),
    min_size=1,
    max_size=3,
).map(lambda runs: [b for run in runs for b in run])
index_writes = st.one_of(
    st.tuples(st.sampled_from(("own_add", "model_add")), index_batches),
    st.tuples(
        st.sampled_from(("own_remove", "model_remove")),
        st.lists(st.sampled_from(INDEX_UNIVERSE), max_size=3),
    ),
)


def assert_lookups_match_scans(kb: KnowledgeBase, removals) -> None:
    assert_index_covers(kb)
    for store in (kb, kb.model_view()):
        for target in INDEX_LITERALS + INDEX_RELATIONS[:4]:
            assert build_evidence_set(store, target) == seed_build_evidence_set(store, target)
            case = Speaker("u", Expertise.NON_EXPERT).case(target)
            expected = seed_build_evidence_set(store, target, case)
            assert build_evidence_set(store, target, case) == expected
        for removed in removals:
            assert removal_closure(store, removed) == seed_removal_closure(store, removed)


@settings(max_examples=200)
@given(
    st.lists(index_beliefs, max_size=10),
    st.lists(index_beliefs, max_size=10),
    st.lists(index_writes, max_size=8),
    st.lists(st.sets(st.sampled_from(INDEX_LITERALS), max_size=3), min_size=1, max_size=3),
)
def test_indexed_lookups_match_full_scans(own, model, writes, removals):
    # after construction and after every write, the consequent index lists
    # every relation the store holds, and the evidence set and removal
    # closure equal the full scans they replaced
    kb = KnowledgeBase(own=added_in_turn(own), user_model=added_in_turn(model))
    assert_lookups_match_scans(kb, removals)
    for writer, arg in writes:
        if writer.endswith("add"):
            side = kb.own if writer == "own_add" else kb.user_model
            expected = {b.prop: b for b in added_in_turn((*side, *arg))}
            kb = getattr(kb, writer)(*arg)
            side = kb.own if writer == "own_add" else kb.user_model
            assert {b.prop: b for b in side} == expected
        else:
            kb = getattr(kb, writer)(*arg)
        assert_lookups_match_scans(kb, removals)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(index_beliefs, max_size=8),
    st.lists(index_beliefs, max_size=8),
    st.lists(st.tuples(st.integers(min_value=0), st.booleans(), index_writes), max_size=10),
    st.lists(st.sets(st.sampled_from(INDEX_LITERALS), max_size=3), min_size=1, max_size=2),
)
def test_branching_writes_keep_every_store_exact(own, model, writes, removals):
    # the stores form a tree from one base: each write goes to any store made
    # so far, or to its model view.  They all share one index that the
    # writes only grow, yet after every write is made each store, older ones
    # and sibling branches included, still holds what it held and still
    # answers as the full scans do
    base = KnowledgeBase(own=added_in_turn(own), user_model=added_in_turn(model))
    stores = [(base, base.own, base.user_model)]
    for pick, via_view, (writer, arg) in writes:
        parent = stores[pick % len(stores)][0]
        if via_view:
            parent = parent.model_view()
            stores.append((parent, parent.own, parent.user_model))
        child = getattr(parent, writer)(*arg)
        assert child._by_consequent is parent._by_consequent
        stores.append((child, child.own, child.user_model))
    for store, held, modelled in stores:
        assert (store.own, store.user_model) == (held, modelled)
        assert_lookups_match_scans(store, removals)


# ---------------------------------------------------------------------------
# a parsed store, whose plain beliefs are built on first read, against the
# store built eagerly from the same beliefs

LAZY_LITERALS = [parse_proposition(s + name) for name in ("p", "q(a)", "r(a, b)") for s in ("", "¬")]
LAZY_RELATIONS = [supports_prop(a, b) for a in LAZY_LITERALS for b in LAZY_LITERALS if a != b]
LAZY_UNIVERSE = LAZY_LITERALS + LAZY_RELATIONS + [r.negate() for r in LAZY_RELATIONS]
LAZY_TARGETS = LAZY_LITERALS + LAZY_RELATIONS[:4]
LEVEL_TEXTS = ("weak", "strong", "warranted")


@st.composite
def spelling(draw, prop: Proposition) -> str:
    """A text of ``prop`` with each ``¬`` spelled ``~`` or ``¬``; one time in
    four spaced, so that the recursive parser reads it."""
    text = "".join(draw(st.sampled_from("~¬")) if ch == "¬" else ch for ch in prop.render())
    return text.replace(", ", " ,  ") if draw(st.integers(0, 3)) == 0 else text


@st.composite
def belief_item(draw, prop: Proposition, kind: str) -> dict:
    if kind == "derived":
        basis = draw(st.lists(st.sampled_from(LAZY_LITERALS), min_size=1, max_size=2))
        source = {"derived": {"from": [draw(spelling(b)) for b in basis]}}
    elif kind == "assertion":
        source = {"assertion": {"speaker": "B", "expertise": "non-expert"}}
    else:
        source = kind
    level = draw(st.sampled_from(LEVEL_TEXTS))
    return {"prop": draw(spelling(prop)), "level": level, "source": source}


KINDS = ("kb-record", "stereotype", "derived", "assertion")


@st.composite
def belief_side(draw, shared: Proposition, kind: str) -> list:
    """A valid belief list holding ``shared`` from a ``kind`` source."""
    items, held = [draw(belief_item(shared, kind))], {shared}
    for prop in draw(st.lists(st.sampled_from(LAZY_UNIVERSE), max_size=12)):
        if prop not in held and prop.negate() not in held:
            held.add(prop)
            items.append(draw(belief_item(prop, draw(st.sampled_from(KINDS)))))
    return draw(st.permutations(items))


@st.composite
def lazy_documents(draw) -> str:
    """A document whose first agent holds one text in both sides, each from
    a different source."""
    shared = draw(st.sampled_from(LAZY_UNIVERSE))
    own_kind, model_kind = draw(st.permutations(KINDS))[:2]
    agent = {
        "id": "A",
        "expertise": draw(st.sampled_from(["expert", "non-expert"])),
        "beliefs": draw(belief_side(shared, own_kind)),
        "userModel": draw(belief_side(shared, model_kind)),
    }
    doc = {
        "v": 1,
        "agents": [agent, {"id": "B", "expertise": "expert", "beliefs": []}],
        "proposal": {"prop": "root", "assertedLevel": "strong"},
    }
    return json.dumps(doc, ensure_ascii=False)


lazy_writes = st.lists(
    st.tuples(
        st.integers(min_value=0),
        st.sampled_from(WRITERS),
        st.lists(st.sampled_from(LAZY_UNIVERSE), min_size=1, max_size=3),
        st.sampled_from(LEVELS),
    ),
    max_size=4,
)


def answer(kb: KnowledgeBase, query: tuple):
    kind, arg = query
    if kind == "evidence":
        return build_evidence_set(kb, arg)
    if kind == "revise":
        return revise(kb, arg)
    if kind == "closure":
        return removal_closure(kb, arg)
    return getattr(kb, kind)(arg)


@settings(max_examples=100, deadline=None)
@given(
    lazy_documents(),
    lazy_writes,
    st.lists(st.frozensets(st.sampled_from(LAZY_LITERALS), max_size=3), min_size=1, max_size=2),
    st.integers(min_value=0),
)
def test_parsed_store_reads_as_the_eagerly_built_store(document, writes, removals, seed):
    # every store is made before anything is read, so the stores share
    # unbuilt items: a write copies them and a model view shares its side.
    # Then queries run in a random order over all stores, so each lookup
    # meets some items unbuilt and some built through another store, and a
    # build must never change what any store answers.
    parsed = parse_scenario(document).agents[0].kb
    eager = KnowledgeBase(own=parsed.own, user_model=parsed.user_model, expertise=parsed.expertise)
    pairs = [(parse_scenario(document).agents[0].kb, eager)]
    for pick, writer, props, level in writes:
        if writer.endswith("add"):
            args = [Belief(p, Endorsement.kb_record(level)) for p in props]
        else:
            args = props
        parent = pairs[pick % len(pairs)]
        pairs.append(tuple(getattr(kb, writer)(*args) for kb in parent))
    pairs += [(lazy.model_view(), ref.model_view()) for lazy, ref in pairs]
    queries = [(kind, p) for p in LAZY_UNIVERSE for kind in ("own_belief", "holds")]
    queries += [(kind, t) for t in LAZY_TARGETS for kind in ("evidence", "revise")]
    queries += [("closure", removed) for removed in removals]
    rng = random.Random(seed)
    for _ in range(2):  # before reads, then with every item built
        work = [(pair, query) for pair in pairs for query in queries]
        rng.shuffle(work)
        for (lazy, ref), query in work:
            assert answer(lazy, query) == answer(ref, query), query
        for lazy, ref in pairs:
            assert (lazy.own, lazy.user_model) == (ref.own, ref.user_model)
            for _, other in pairs:
                same = (lazy.own, lazy.user_model, lazy.expertise) == (
                    other.own, other.user_model, other.expertise
                )
                assert (lazy == other) is same


# ---------------------------------------------------------------------------
# the proposition parser against the character-stepping one it replaced


def seed_skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def seed_parse_prop(text: str, pos: int, depth: int = 0) -> tuple[Proposition, int]:
    pos = seed_skip_ws(text, pos)
    negated = False
    while pos < len(text) and text[pos] in "~¬":
        negated = not negated
        pos = seed_skip_ws(text, pos + 1)
    m = re.match(r"[a-z_][a-z0-9_]*", text[pos:])
    if not m:
        raise StructureError(f"expected predicate at position {pos} in {text!r}")
    predicate = m.group(0)
    pos += len(predicate)
    pos = seed_skip_ws(text, pos)
    args: list = []
    if pos < len(text) and text[pos] == "(":
        pos = seed_skip_ws(text, pos + 1)
        while pos < len(text) and text[pos] != ")":
            if predicate == "supports":
                if depth >= MAX_PROP_NESTING:
                    raise StructureError(
                        f"supports(...) nested deeper than {MAX_PROP_NESTING} levels"
                    )
                arg, pos = seed_parse_prop(text, pos, depth + 1)
            else:
                m = re.match(r"[a-z0-9_]+", text[pos:])
                if not m:
                    raise StructureError(f"expected argument at position {pos} in {text!r}")
                arg = m.group(0)
                pos += len(arg)
            args.append(arg)
            pos = seed_skip_ws(text, pos)
            if pos < len(text) and text[pos] == ",":
                pos = seed_skip_ws(text, pos + 1)
                if pos >= len(text) or text[pos] == ")":
                    raise StructureError(f"dangling ',' at position {pos} in {text!r}")
            elif pos < len(text) and text[pos] != ")":
                raise StructureError(f"expected ',' or ')' at position {pos} in {text!r}")
        if pos >= len(text):
            raise StructureError(f"unterminated argument list in {text!r}")
        pos += 1
    return Proposition(negated, predicate, tuple(args)), pos


def seed_parse_proposition(text: str) -> Proposition:
    prop, pos = seed_parse_prop(text, 0)
    if text[pos:].strip():
        raise StructureError(f"trailing input after proposition: {text[pos:]!r}")
    return prop


def structure(prop: Proposition) -> tuple:
    # equality looks only at the text, so a parse that built the wrong parts
    # behind the right text would compare equal
    args = tuple(structure(a) if isinstance(a, Proposition) else a for a in prop.args)
    return prop.negated, prop.predicate, args


def parse_outcome(parse, text: str):
    try:
        prop = parse(text)
    except StructureError as err:
        return type(err), str(err)
    return structure(prop), prop.render()


SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", " ", " ", "　", "\x1c"])
TOKENS = st.sampled_from(
    ["p", "q_1", "supports", "A", "0", "(", ")", ",", "~", "¬", " ", "\t", " ", "-", "é"]
)


@st.composite
def spaced(draw, inner):
    """A rendered proposition with whitespace drawn around its tokens."""
    text = draw(inner).render(ascii_not=draw(st.booleans()))
    pieces = re.split(r"([(),¬~])", text.replace(", ", ","))
    return "".join(draw(SPACES) + piece for piece in pieces) + draw(SPACES)


@st.composite
def spelled(draw, inner, spaces=SPACES):
    """A drawn proposition written out with whitespace drawn for every slot
    and its polarity as zero to three ``~``/``¬`` marks."""

    def spell(prop: Proposition) -> str:
        marks = prop.negated + 2 * draw(st.integers(0, 1))
        text = draw(spaces)
        for _ in range(marks):
            text += draw(st.sampled_from("~¬")) + draw(spaces)
        text += prop.predicate
        if prop.args:
            args = [
                spell(a) if isinstance(a, Proposition) else draw(spaces) + a + draw(spaces)
                for a in prop.args
            ]
            text += draw(spaces) + "(" + ",".join(args) + ")"
        return text + draw(spaces)

    return spell(draw(inner))


def relation(negated: bool, antecedent: Proposition, consequent: Proposition) -> Proposition:
    return Proposition(negated, "supports", (antecedent, consequent))


# the shapes the whole-text patterns take, and relations over one sub-term
flat = st.one_of(
    literals,
    st.builds(relation, st.booleans(), literals, literals),
    st.builds(
        lambda negated, p, flip: relation(negated, p, p.negate() if flip else p),
        st.booleans(),
        propositions,
        st.booleans(),
    ),
)
PARSER_TEXTS = st.one_of(
    # as render writes them, with either negation mark
    st.builds(Proposition.render, propositions, st.booleans()),
    spaced(propositions),
    spelled(propositions),
    spelled(flat),
    spelled(flat, SPACES.filter(bool)),
    st.lists(TOKENS, max_size=12).map("".join),
    st.text(),
)


@settings(max_examples=500)
@given(PARSER_TEXTS)
def test_parser_matches_seed_parser(text):
    assert parse_outcome(parse_proposition, text) == parse_outcome(seed_parse_proposition, text)


@settings(max_examples=200)
@given(st.lists(PARSER_TEXTS, max_size=12))
def test_document_parser_matches_seed_parser(texts):
    # one parser serves a whole document; it must never give one text the
    # result of another, such as p(a) for ~p(a)
    parse = proposition_parser()
    for text in texts:
        assert parse_outcome(parse, text) == parse_outcome(seed_parse_proposition, text)


@pytest.mark.parametrize("template", ["~p(a,b)", "supports(~p(a),q)"])
@pytest.mark.parametrize("stray", ["x", "-"])
def test_whitespace_runs_parse_in_linear_time(template, stray):
    # a long whitespace run in any slot, then a stray character: the
    # whole-text patterns must miss without backtracking over the run
    run = " " * 200_000
    for slot in range(len(template) + 1):
        text = template[:slot] + run + stray + template[slot:]
        started = time.process_time()
        outcome = parse_outcome(parse_proposition, text)
        assert time.process_time() - started < 0.1, f"slot {slot}"
        assert outcome == parse_outcome(seed_parse_proposition, text)


def test_regex_whitespace_is_str_isspace():
    # the parser skips whitespace with a compiled \s*; the text it accepts
    # must not change from the str.isspace() stepping it replaced
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]


# ---------------------------------------------------------------------------
# public constructors keep every check; the engine's own builders skip them


def guarded(build):
    try:
        build()
    except Exception as exc:
        return (type(exc), str(exc))
    return None


P, Q = ground("p"), ground("q")

# each bad input, with the exception class and message its public
# constructor raises
GUARDED = [
    (lambda: Proposition(False, "Bad", ("x",)), StructureError, "bad predicate: 'Bad'"),
    (lambda: Proposition(False, "p q", ()), StructureError, "bad predicate: 'p q'"),
    (lambda: Proposition(False, "p", ("A",)), StructureError, "bad argument 'A' for p"),
    (lambda: Proposition(False, "p", (1,)), StructureError, "bad argument 1 for p"),
    (lambda: Proposition(False, "p", (Q,)), StructureError, f"bad argument {Q!r} for p"),
    (
        lambda: Proposition(False, "supports", (P,)),
        StructureError,
        "supports(...) takes exactly two propositions",
    ),
    (
        lambda: Proposition(False, "supports", (P, Q, P)),
        StructureError,
        "supports(...) takes exactly two propositions",
    ),
    (
        lambda: Proposition(False, "supports", (P, "q")),
        StructureError,
        "supports(...) takes exactly two propositions",
    ),
    (
        lambda: Endorsement(T, SourceKind.ASSERTION),
        StructureError,
        "assertion endorsements need speaker and expertise",
    ),
    (
        lambda: Endorsement(T, SourceKind.ASSERTION, speaker="S"),
        StructureError,
        "assertion endorsements need speaker and expertise",
    ),
    # "expert" equals Expertise.EXPERT, but a plain string would be read
    # as a non-expert
    (
        lambda: Endorsement(T, SourceKind.ASSERTION, "S", "expert"),
        StructureError,
        "assertion expertise must be an Expertise, got 'expert'",
    ),
    (
        lambda: KnowledgeBase((), expertise="expert"),
        StructureError,
        "store expertise must be an Expertise, got 'expert'",
    ),
    (
        lambda: Speaker("S", "expert"),
        StructureError,
        "speaker expertise must be an Expertise, got 'expert'",
    ),
    (
        lambda: Endorsement(T, SourceKind.DERIVED),
        StructureError,
        "derived endorsements need a nonempty support set",
    ),
    (
        lambda: Endorsement.derived(T, []),
        StructureError,
        "derived endorsements need a nonempty support set",
    ),
    # each field an endorsement's kind cannot carry, and each speaker the
    # scenario parser refuses, would render to text that does not read back
    (
        lambda: Endorsement(T, SourceKind.KB_RECORD, support={P}),
        StructureError,
        "kb-record endorsements have no support set",
    ),
    (
        lambda: Endorsement(T, SourceKind.STEREOTYPE, "S", Expertise.EXPERT),
        StructureError,
        "stereotype endorsements have no speaker or expertise",
    ),
    (
        lambda: Endorsement(T, SourceKind.DERIVED, "S", support={P}),
        StructureError,
        "derived endorsements have no speaker or expertise",
    ),
    (
        lambda: Endorsement(T, SourceKind.ASSERTION, "S", Expertise.EXPERT, {P}),
        StructureError,
        "assertion endorsements have no support set",
    ),
    (
        lambda: Endorsement(T, SourceKind.ASSERTION, "", Expertise.EXPERT),
        StructureError,
        "assertion speaker must be a non-empty string, got ''",
    ),
    (
        lambda: Endorsement(T, SourceKind.ASSERTION, 5, Expertise.EXPERT),
        StructureError,
        "assertion speaker must be a non-empty string, got 5",
    ),
    (
        lambda: Endorsement.derived(T, [P, "q"]),
        StructureError,
        "derived support must be propositions, got 'q'",
    ),
    (
        lambda: Endorsement(T, "kb-record"),
        StructureError,
        "endorsement kind must be a SourceKind, got 'kb-record'",
    ),
    (
        lambda: Speaker("", Expertise.EXPERT),
        StructureError,
        "speaker name must be a non-empty string, got ''",
    ),
    (
        lambda: EvidencePiece(rec(P), rec(supports_prop(P, Q).negate())),
        StructureError,
        "evidence relation must be a positive supports(...)",
    ),
    (
        lambda: EvidencePiece(rec(P), rec(Q)),
        StructureError,
        "evidence relation must be a positive supports(...)",
    ),
    (
        lambda: EvidencePiece(rec(P), rec(supports_prop(Q, P))),
        StructureError,
        "relation antecedent must match the believed proposition",
    ),
    # a speaker's case checks each backing as the piece above would, once
    (
        lambda: Speaker("S", Expertise.EXPERT).case(Q, [(P, supports_prop(P, Q).negate(), T, T)]),
        StructureError,
        "evidence relation must be a positive supports(...)",
    ),
    (
        lambda: Speaker("S", Expertise.EXPERT).case(Q, [(P, Q, T, T)]),
        StructureError,
        "evidence relation must be a positive supports(...)",
    ),
    (
        lambda: Speaker("S", Expertise.EXPERT).case(P, [(P, supports_prop(Q, P), T, T)]),
        StructureError,
        "relation antecedent must match the believed proposition",
    ),
    (
        lambda: kb_of(rec(P), rec(Q), rec(P, S)),
        StructureError,
        "duplicate belief in own beliefs: p(x)",
    ),
    (
        lambda: kb_of(*(rec(P),) * 2),
        StructureError,
        "duplicate belief in own beliefs: p(x)",
    ),
    (
        lambda: KnowledgeBase((), (rec(Q), rec(Q, W))),
        StructureError,
        "duplicate belief in user model: q(x)",
    ),
    (
        lambda: kb_of(rec(P.negate()), rec(P)),
        ContradictionError,
        "own beliefs holds both p(x) and ¬p(x)",
    ),
    (
        lambda: KnowledgeBase((), (rec(Q), rec(Q.negate()))),
        ContradictionError,
        "user model holds both q(x) and ¬q(x)",
    ),
    # own beliefs are checked before the user model
    (
        lambda: KnowledgeBase((rec(P), rec(P)), (rec(Q), rec(Q))),
        StructureError,
        "duplicate belief in own beliefs: p(x)",
    ),
    (
        lambda: KnowledgeBase((rec(P), rec(P.negate())), (rec(Q), rec(Q))),
        ContradictionError,
        "own beliefs holds both p(x) and ¬p(x)",
    ),
    # each item given is a Belief of a Proposition and an Endorsement,
    # checked as it is read, so before any duplicate or contradiction
    (
        lambda: KnowledgeBase([1]),
        StructureError,
        "own beliefs[0] must be a Belief of a Proposition and an Endorsement",
    ),
    (
        lambda: KnowledgeBase([], [rec(Q), None]),
        StructureError,
        "user model[1] must be a Belief of a Proposition and an Endorsement",
    ),
    (
        lambda: KnowledgeBase([Belief(P, "x")]),
        StructureError,
        "own beliefs[0] must be a Belief of a Proposition and an Endorsement",
    ),
    (
        lambda: KnowledgeBase([rec(P), rec(P), Belief("q(x)", rec(Q).endorsement)]),
        StructureError,
        "own beliefs[2] must be a Belief of a Proposition and an Endorsement",
    ),
    # a belief spelled as a scenario file spells it is not a Belief
    (
        lambda: KnowledgeBase([{"prop": "p(x)", "level": "weak", "source": "kb-record"}]),
        StructureError,
        "own beliefs[0] must be a Belief of a Proposition and an Endorsement",
    ),
]


@pytest.mark.parametrize("build, error, message", GUARDED)
def test_public_constructors_keep_every_check(build, error, message):
    assert guarded(build) == (error, message)


# ---------------------------------------------------------------------------
# value semantics of text-keyed propositions and shared endorsements


VALUE_TEXTS = ["p", "~p", "p(a, b)", "~p(a)", "supports(p(a), ~q)", "~supports(~p(a), q)"]


@pytest.mark.parametrize("text", VALUE_TEXTS)
def test_proposition_is_its_text(text):
    p = parse_proposition(text)
    assert (p == str(p)) is False and (p != str(p)) is True
    assert p != None  # noqa: E711
    with pytest.raises(TypeError):
        p < str(p)
    assert hash(p) == hash(parse_proposition(str(p)))
    assert p.negate().negate() == p
    assert p.negate() is p.negate()
    for copied in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert copied == p and hash(copied) == hash(p)
        assert copied.negate() == p.negate() and copied.negate().negate() == p


def test_negation_is_cached_one_way():
    # a link back from the negation would make every negated pair a cycle,
    # which only the collector frees
    gc.disable()
    try:
        p = parse_proposition("p(a)")
        p.negate().negate().negate()
        refs = [weakref.ref(p), weakref.ref(p.negate())]
        del p
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_propositions_sort_by_rendered_text():
    props = [parse_proposition(t) for t in VALUE_TEXTS]
    props += [p.negate() for p in props] + [supports_prop(p, q) for p in props for q in props[:2]]
    random.Random(0).shuffle(props)
    assert sorted(props) == sorted(props, key=lambda p: p.render())
    assert [p.render() for p in sorted(props)] == sorted(p.render() for p in props)


@pytest.mark.parametrize("level", LEVELS)
def test_plain_endorsements_are_shared(level):
    for make, kind in ((Endorsement.kb_record, SourceKind.KB_RECORD),
                       (Endorsement.stereotype, SourceKind.STEREOTYPE)):
        assert make(level) == Endorsement(level, kind)
        assert make(level) is make(level)
        assert (make(level).level, make(level).kind) == (level, kind)
