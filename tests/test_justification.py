import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parley import (
    Belief,
    Endorsement,
    EvidencePiece,
    Expertise,
    JustificationLink,
    KnowledgeBase,
    NoSufficientJustification,
    Speaker,
    StrengthLevel,
    StructureError,
    VerdictOutcome,
    build_justification_chains,
    hearer_accepts,
    parse_proposition,
    parse_scenario,
    select_justification,
    supports_prop,
)
from parley.beliefs import Proposition, build_evidence_set, minimal_subsets, revise
from parley import justification
from parley.evaluation import walk
from parley.justification import realized_beliefs
from parley.trace import Trace

from conftest import (
    ASSERTED_LEVEL,
    LEVELS,
    TREE_LITERALS,
    TREE_NAMES,
    TREE_RELATIONS,
    asserted,
    flat_chain,
    ground,
)

W, S, T = StrengthLevel.WEAK, StrengthLevel.STRONG, StrengthLevel.WARRANTED
CLAIM, A, B, C = ground("claim"), ground("a"), ground("b"), ground("c")
EXPERT = Expertise.EXPERT


def kb_of(*beliefs) -> KnowledgeBase:
    return KnowledgeBase(own=tuple(beliefs))


def rec(prop, level=T) -> Belief:
    return Belief(prop, Endorsement.kb_record(level))


def backing(prop, basis, level=T) -> tuple[Belief, Belief]:
    return rec(basis, level), rec(supports_prop(basis, prop), level)


def leaf_chain(prop, level=T, claim=CLAIM) -> JustificationLink:
    return JustificationLink(prop, supports_prop(prop, claim), level, level)


class TestNeedsJustification:
    def test_unopposed_expert_word_suffices(self):
        assert hearer_accepts(kb_of(), CLAIM, (), Speaker("s", EXPERT), 1)

    def test_contrary_prior_forces_justification(self):
        assert not hearer_accepts(kb_of(rec(CLAIM.negate())), CLAIM, (), Speaker("s", EXPERT), 1)

    def test_margin_respects_threshold(self):
        model = kb_of()
        assert hearer_accepts(model, CLAIM, (), Speaker("s", Expertise.NON_EXPERT), 2)
        assert not hearer_accepts(model, CLAIM, (), Speaker("s", Expertise.NON_EXPERT), 3)

    @pytest.mark.parametrize(
        "link, message",
        [
            (
                JustificationLink(A, supports_prop(A, CLAIM).negate(), T, T),
                "evidence relation must be a positive supports(...)",
            ),
            (
                JustificationLink(A, supports_prop(B, CLAIM), T, T),
                "relation antecedent must match the believed proposition",
            ),
        ],
    )
    def test_malformed_link_is_refused(self, link, message):
        # a caller's link is checked as an EvidencePiece, never credited
        with pytest.raises(StructureError) as exc:
            hearer_accepts(kb_of(), CLAIM, (link,), Speaker("s", EXPERT), 1)
        assert str(exc.value) == message


class TestBuildChains:
    def build(self, kb, model, claim=CLAIM):
        return build_justification_chains(kb, model, claim, speaker=Speaker("s", kb.expertise))

    def test_direct_link_when_hearer_takes_it_bare(self):
        kb = kb_of(*backing(CLAIM, A))
        (chain,) = self.build(kb, kb_of())
        assert chain.prop == A
        assert chain.children == ()
        assert (chain.belief_level, chain.relation_level) == (T, T)

    def test_speaker_expertise_decides_bare_acceptance(self):
        # the hearer holds ¬a strongly: an expert's bare word outweighs
        # that, a non-expert's only ties it, and the store holds nothing
        # more to back a with.  The speaker's expertise counts, whatever
        # the store records.
        model = kb_of(rec(A.negate(), S))
        for expertise, props in ((EXPERT, [A]), (Expertise.NON_EXPERT, [])):
            for stored in Expertise:
                kb = KnowledgeBase(own=backing(CLAIM, A), expertise=stored)
                speaker = Speaker("s", expertise)
                chains = build_justification_chains(kb, model, CLAIM, speaker=speaker)
                assert [chain.prop for chain in chains] == props

    def test_contested_evidence_justified_recursively(self):
        kb = kb_of(*backing(CLAIM, A), *backing(A, B))
        model = kb_of(rec(A.negate()))
        (chain,) = self.build(kb, model)
        assert chain.prop == A
        assert [c.prop for c in chain.children] == [B]

    def test_dead_end_evidence_dropped(self):
        kb = kb_of(*backing(CLAIM, A))
        model = kb_of(rec(A.negate()))
        assert self.build(kb, model) == ()

    def test_cycle_through_claim_cut(self):
        kb = kb_of(*backing(CLAIM, A), rec(supports_prop(CLAIM, A)), rec(CLAIM))
        model = kb_of(rec(A.negate()))
        assert self.build(kb, model) == ()

    def test_negation_on_path_cut(self):
        kb = kb_of(*backing(CLAIM, A), *backing(A, CLAIM.negate()))
        model = kb_of(rec(A.negate()))
        assert self.build(kb, model) == ()


class TestSelectJustification:
    def select(self, chains, model, trace=None):
        return select_justification(
            chains, model, CLAIM, speaker=Speaker("s", EXPERT), trace=trace
        )

    def choose(self, chains, model):
        trace = Trace()
        chosen = self.select(chains, model, trace=trace)
        (record,) = trace.by_kind("heuristic")
        return chosen, record.payload["rule"]

    def test_raises_when_nothing_convinces(self):
        model = kb_of(*backing(CLAIM.negate(), C), rec(CLAIM.negate()))
        with pytest.raises(NoSufficientJustification):
            self.select([leaf_chain(A, W)], model)

    def test_single_survivor_rule_only(self):
        chosen, rule = self.choose([leaf_chain(A)], kb_of(rec(CLAIM.negate(), W)))
        assert [c.prop for c in chosen] == [A]
        assert rule == "only"

    def test_prefers_higher_confidence(self):
        model = kb_of(rec(CLAIM.negate(), W))
        chosen, rule = self.choose([leaf_chain(A, T), leaf_chain(B, W)], model)
        assert [c.prop for c in chosen] == [A]
        assert rule == "confidence"

    def test_prefers_novel_content(self):
        model = kb_of(rec(CLAIM.negate(), W), rec(A, W))
        chosen, rule = self.choose([leaf_chain(A), leaf_chain(B)], model)
        assert [c.prop for c in chosen] == [B]
        assert rule == "novelty"

    def test_prefers_fewer_beliefs(self):
        nested = JustificationLink(
            B,
            supports_prop(B, CLAIM),
            T,
            T,
            children=(JustificationLink(C, supports_prop(C, B), T, T),),
        )
        model = kb_of(rec(CLAIM.negate(), W), rec(B.negate(), W))
        chosen, rule = self.choose([leaf_chain(A), nested], model)
        assert [c.prop for c in chosen] == [A]
        assert rule == "size"

    def test_canonical_order_is_last_resort(self):
        model = kb_of(rec(CLAIM.negate(), W))
        chosen, rule = self.choose([leaf_chain(B), leaf_chain(A)], model)
        assert [c.prop for c in chosen] == [A]
        assert rule == "canonical"

    def test_full_tie_is_canonical_in_survivor_order(self):
        # two bundles equal on every score: the first survivor wins, traced
        # or not, and the trace names the last rule
        first, second = leaf_chain(A), leaf_chain(A)
        assert self.select([first, second], kb_of()) == (first,)
        chosen, rule = self.choose([first, second], kb_of())
        assert chosen == (first,)
        assert rule == "canonical"

    def test_supersets_of_survivors_discarded(self):
        model = kb_of(rec(CLAIM.negate(), W))
        chosen, _ = self.choose([leaf_chain(A), leaf_chain(B)], model)
        assert len(chosen) == 1

    def test_chains_sufficient_alone_are_not_combined(self):
        # no bundle of two or more chains can be minimal here, so the search
        # must not walk the 2^20 bundles to skip them
        model = kb_of(rec(CLAIM.negate(), W))
        chains = [leaf_chain(ground(f"e{i}")) for i in range(20)]
        start = time.process_time()
        chosen, rule = self.choose(chains, model)
        assert time.process_time() - start < 0.5
        assert [c.prop for c in chosen] == [ground("e0")]
        assert rule == "canonical"


class TestRealized:
    def test_omits_relations_the_hearer_holds(self):
        link = JustificationLink(
            A,
            supports_prop(A, CLAIM),
            T,
            T,
            children=(JustificationLink(C, supports_prop(C, A), T, T),),
        )
        model = kb_of(rec(supports_prop(A, CLAIM)))
        assert realized_beliefs(CLAIM, (link,), model) == (
            CLAIM,
            A,
            C,
            supports_prop(C, A),
        )


# ---------------------------------------------------------------------------
# the shared minimal-subset search against exhaustive oracles


def all_subsets(items):
    return [c for size in range(1, len(items) + 1) for c in itertools.combinations(items, size)]


def minimal_oracle(items, sufficient):
    """Every sufficient subset, minus those holding a smaller sufficient one."""
    survivors = [c for c in all_subsets(items) if sufficient(c)]
    return [c for c in survivors if not any(set(o) < set(c) for o in survivors)]


def random_predicate(rng, k, monotone):
    items = list(range(k))
    if monotone:
        count = rng.randint(0, 3) if k else 0
        bases = [frozenset(rng.sample(items, rng.randint(1, k))) for _ in range(count)]
        return lambda c: any(b <= set(c) for b in bases)
    chosen = {frozenset(c) for c in all_subsets(items) if rng.random() < 0.3}
    return lambda c: frozenset(c) in chosen


def grouped_minimal_subsets(items, sufficient):
    """The search as it was before it yielded lazily: every singleton is
    tried first, then one list of new finds per size.  The reference for
    the order of ``sufficient`` calls."""
    alone = [i for i in range(len(items)) if sufficient((items[i],))]
    if alone:
        yield [(items[i],) for i in alone]
    pool = [i for i in range(len(items)) if i not in alone]
    found = []
    for size in range(2, len(pool) + 1):
        fresh = []
        for combo in itertools.combinations(pool, size):
            members = frozenset(combo)
            if any(f <= members for f in found):
                continue
            subset = tuple(items[i] for i in combo)
            if sufficient(subset):
                found.append(members)
                fresh.append(subset)
        if fresh:
            yield fresh


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "non-monotone"])
def test_minimal_subsets_matches_oracle(monotone):
    rng = random.Random(7)
    for case in range(300):
        k = rng.randint(0, 8)
        sufficient = random_predicate(rng, k, monotone)
        items = list(range(k))
        calls, want_calls = [], []

        def logged(log):
            return lambda c: log.append(c) or sufficient(c)

        found = list(minimal_subsets(items, logged(calls)))
        assert found == minimal_oracle(items, sufficient), case
        want = [c for group in grouped_minimal_subsets(items, logged(want_calls)) for c in group]
        assert found == want, case
        assert calls == want_calls, case
        # taking only the first stops right after the first hit
        calls.clear()
        first = next(minimal_subsets(items, logged(calls)), None)
        if first is None:
            assert calls == want_calls, case
        else:
            assert first == found[0], case
            assert calls == want_calls[: want_calls.index(first) + 1], case


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "non-monotone"])
def test_minimal_subsets_from_a_smallest_size_tries_nothing_smaller(monotone):
    # any size up to that of the smallest sufficient subset, one past the
    # items when none is, yields what size 1 does
    rng = random.Random(11)
    for case in range(300):
        k = rng.randint(0, 8)
        sufficient = random_predicate(rng, k, monotone)
        items = list(range(k))
        want = list(minimal_subsets(items, sufficient))
        least = min((len(c) for c in all_subsets(items) if sufficient(c)), default=k + 1)
        for smallest in range(1, least + 1):
            calls = []
            found = minimal_subsets(items, lambda c: calls.append(c) or sufficient(c), smallest)
            assert list(found) == want, case
            assert min(map(len, calls), default=smallest) >= smallest, case


def seed_accepts(model, claim, combo, expertise, tau):
    # the seed's piece builders: the bare assertion over a kb-record
    # self-relation, and each top link as kb-record evidence
    presented = [
        EvidencePiece(
            Belief(claim, asserted(ASSERTED_LEVEL[expertise], "s", expertise)),
            Belief(supports_prop(claim, claim), Endorsement.kb_record(T)),
        )
    ]
    presented.extend(
        EvidencePiece(
            Belief(c.prop, Endorsement.kb_record(c.belief_level)),
            Belief(c.relation, Endorsement.kb_record(c.relation_level)),
        )
        for c in combo
    )
    return revise(model, claim, presented, tau=tau).outcome is VerdictOutcome.ACCEPT


def seed_select(chains, model, claim, tau, expertise):
    """The original algorithm: try all 2^k bundles, then drop supersets."""

    def accepts(combo):
        return seed_accepts(model, claim, combo, expertise, tau)

    def props(link):
        return [link.prop] + [p for child in link.children for p in props(child)]

    def score(combo):
        fresh = sum(
            1
            for chain in combo
            for p in props(chain)
            if model.own_belief(p) is None and model.own_belief(p.negate()) is None
        )
        return (
            -int(min(min(link.belief_level, link.relation_level)
                     for c in combo for link, _, _, done in walk(c) if not done)),
            -fresh,
            sum(len(props(c)) for c in combo),
            tuple(tuple(p.render() for p in props(c)) for c in combo),
        )

    pool = sorted(chains, key=lambda c: c.key())
    survivors = minimal_oracle(pool, accepts)
    if not survivors:
        return None, None
    ranked = sorted(survivors, key=score)
    best = ranked[0]
    rule = "only"
    if len(survivors) > 1:
        b, r = score(best), score(ranked[1])
        rule = ("confidence", "novelty", "size", "canonical")[
            next(i for i in range(4) if b[i] != r[i])
        ]
    record = {
        "agent": "s",
        "claim": claim.render(),
        "chosen": [c.prop.render() for c in best],
        "candidates": len(survivors),
        "rule": rule,
    }
    return best, record


def random_chain_case(rng):
    levels = [W, S, T]
    chains = []
    for i in range(rng.randint(1, 6)):
        prop = ground(f"e{i}")
        children = tuple(
            JustificationLink(
                ground(f"e{i}_{j}"),
                supports_prop(ground(f"e{i}_{j}"), prop),
                rng.choice(levels),
                rng.choice(levels),
            )
            for j in range(rng.choice([0, 0, 1, 2]))
        )
        link = JustificationLink(
            prop, supports_prop(prop, CLAIM), rng.choice(levels), rng.choice(levels), children
        )
        chains.append(link)
    beliefs = [rec(CLAIM.negate(), rng.choice(levels))]
    for i in range(rng.randint(0, 3)):
        beliefs.extend(backing(CLAIM.negate(), ground(f"c{i}"), rng.choice(levels)))
    for chain in chains:
        for link, _, _, done in walk(chain):
            if not done and rng.random() < 0.2:
                beliefs.append(rec(rng.choice([link.prop, link.prop.negate()]), W))
    model = KnowledgeBase(own=tuple(beliefs), expertise=rng.choice(list(Expertise)))
    return chains, model, rng.choice(list(Expertise)), rng.choice([1, 1, 2, 3])


def test_select_justification_matches_seed_algorithm():
    rng = random.Random(11)
    rules = set()
    for case in range(250):
        chains, model, expertise, tau = random_chain_case(rng)
        rng.shuffle(chains)
        want, record = seed_select(chains, model, CLAIM, tau, expertise)
        pool = tuple(sorted(chains, key=lambda c: c.key()))
        combos = all_subsets(pool)
        hit = next(
            (i for i, c in enumerate(combos) if seed_accepts(model, CLAIM, c, expertise, tau)),
            None,
        )
        checks = []

        def accepts(combo):
            checks.append(combo)
            return hearer_accepts(model, CLAIM, combo, Speaker("s", expertise), tau)

        # the search for a chain's children takes the first hit only
        got_children = next(minimal_subsets(pool, accepts), None)
        assert got_children == (None if hit is None else combos[hit]), case
        # stops at the first accepted combination
        assert len(checks) == (len(combos) if hit is None else hit + 1), case
        trace = Trace()
        if want is None:
            with pytest.raises(NoSufficientJustification):
                select_justification(
                    chains, model, CLAIM, tau, speaker=Speaker("s", expertise), trace=trace
                )
            continue
        chosen = select_justification(
            chains, model, CLAIM, tau, speaker=Speaker("s", expertise), trace=trace
        )
        assert chosen == tuple(want), case
        (heuristic,) = trace.by_kind("heuristic")
        assert heuristic.payload == record, case
        rules.add(record["rule"])
    assert rules == {"only", "confidence", "novelty", "size", "canonical"}


def test_flat_chain_keys_cost_linear_work(monkeypatch):
    # each link's key is built once, from its children's: sorting the chains
    # at every level of an n-link chain renders each link once, where
    # walking the sub-chain for every key renders about n^2/2 props
    counts = {}
    for n in (100, 400):
        kb = parse_scenario(json.dumps(flat_chain(n))).evaluator.kb
        calls = {"walk": 0, "render": 0}
        with monkeypatch.context() as patch:
            for owner, name in ((justification, "walk"), (Proposition, "render")):
                method = getattr(owner, name)

                def counted(*args, method=method, name=name, **kwargs):
                    calls[name] += 1
                    return method(*args, **kwargs)

                patch.setattr(owner, name, counted)
            chains = build_justification_chains(
                kb, kb.model_view(), parse_proposition("~s0"), speaker=Speaker("S", kb.expertise)
            )
        assert len(chains) == 1 and len(chains[0].key()) == n
        counts[n] = calls
    assert counts[400]["walk"] <= 4 * counts[100]["walk"]
    assert counts[400]["render"] <= 4 * counts[100]["render"]


def test_flat_chain_build_memory_grows_linearly():
    # a link keeps no copy of its descendants' keys: with one, the chains
    # of an n-link flat chain held n(n+1)/2 key texts, and doubling n
    # multiplied the traced peak by about 3.4
    peaks = {}
    for n in (1_000, 2_000):
        kb = parse_scenario(json.dumps(flat_chain(n))).evaluator.kb
        model, claim = kb.model_view(), parse_proposition("~s0")
        speaker = Speaker("S", kb.expertise)
        tracemalloc.start()
        try:
            chains = build_justification_chains(kb, model, claim, speaker=speaker)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chains) == 1 and len(chains[0].key()) == n
    assert peaks[2_000] <= 2.5 * peaks[1_000], peaks


def test_a_long_chain_hashes_compares_and_prints():
    # links compare by identity and print through the walk: with the
    # generated methods, hashing or printing this chain recursed once per
    # link and raised RecursionError
    top = None
    for i in range(3_000):
        prop = ground(f"s{i}")
        top = JustificationLink(
            prop, supports_prop(prop, ground(f"s{i + 1}")), W, S, () if top is None else (top,)
        )
    assert hash(top) == hash(top)
    assert top == top and top != JustificationLink(top.prop, top.relation, W, S, top.children)
    assert top in {top} and top.children[0] not in {top}
    assert repr(top).count("JustificationLink(") == 3_000
    assert repr(top).startswith("JustificationLink(s2999(x), supports(s2999(x), s3000(x)), weak, strong, [")
    nested = JustificationLink(A, supports_prop(A, CLAIM), S, T, (leaf_chain(B, W, A),))
    assert repr(nested) == (
        "JustificationLink(a(x), supports(a(x), claim(x)), strong, warranted, "
        "[JustificationLink(b(x), supports(b(x), a(x)), weak, weak)])"
    )


def recursive_build(kb, model, claim, tau, speaker, path=frozenset()):
    # the builder as it was while it called itself once per link, carrying
    # the claims above it in ``path``: the oracle for the one that keeps its
    # own stack
    path = path | {claim}
    chains = []
    for piece in build_evidence_set(kb, claim):
        if piece.consequent != claim:
            continue
        prop = piece.belief.prop
        if prop == claim or prop in path or prop.negate() in path:
            continue
        levels = (piece.belief.endorsement.level, piece.relation.endorsement.level)
        if justification.hearer_accepts(model, prop, (), speaker, tau):
            chains.append(JustificationLink(prop, piece.relation.prop, *levels))
            continue
        sub = recursive_build(kb, model, prop, tau, speaker, path)
        children = next(
            minimal_subsets(
                sub, lambda combo: justification.hearer_accepts(model, prop, combo, speaker, tau)
            ),
            None,
        )
        if children is None:
            continue
        chains.append(JustificationLink(prop, piece.relation.prop, *levels, children=children))
    return tuple(sorted(chains, key=lambda c: c.key()))


@st.composite
def support_graphs(draw):
    """A speaker's store holding one side of each name and relations from
    those literals to any literal, a hearer model and a claim.  Cycles,
    ``p``/``¬p`` pairs, diamonds and shared leaves all come up, and the
    hearer opposing a literal makes the speaker justify it in turn."""
    levels = st.sampled_from(LEVELS)
    literals = [ground(name, draw(st.booleans())) for name in TREE_NAMES]
    relations = [supports_prop(a, b) for a in literals for b in TREE_LITERALS if a != b]
    relations = draw(st.lists(st.sampled_from(relations), unique=True, min_size=4, max_size=16))
    held = [rec(p, draw(levels)) for p in literals + relations]
    # the hearer holds nothing on a name, the speaker's side or, twice as
    # often, the other
    stances = draw(st.lists(st.sampled_from([None, False, True, True]), min_size=4, max_size=4))
    model = [
        rec(p.negate() if s else p, draw(levels))
        for p, s in zip(literals, stances)
        if s is not None
    ]
    claim = draw(st.sampled_from([r.args[1] for r in relations]))
    speaker = Speaker("s", draw(st.sampled_from(Expertise)))
    return kb_of(*held), kb_of(*model), claim, draw(st.sampled_from([1, 1, 2])), speaker


def built_and_asked(monkeypatch, build, kb, model, claim, tau, speaker):
    # each link in preorder, with its levels and number of children, and
    # every question put to the hearer, in order
    asked = []

    def recorded(model, claim, chains, speaker, tau):
        chains = tuple(chains)
        asked.append((claim, tuple(c.key() for c in chains)))
        return hearer_accepts(model, claim, chains, speaker, tau)

    with monkeypatch.context() as patch:
        patch.setattr(justification, "hearer_accepts", recorded)
        chains = build(kb, model, claim, tau, speaker)
    links = [
        (link.key(), link.relation, link.belief_level, link.relation_level, len(link.children))
        for chain in chains
        for link, _, _, done in walk(chain)
        if not done
    ]
    return links, asked


def stacked_build(kb, model, claim, tau, speaker):
    return build_justification_chains(kb, model, claim, tau, speaker=speaker)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(support_graphs())
def test_stacked_builder_matches_recursive_builder(monkeypatch, graph):
    got = built_and_asked(monkeypatch, stacked_build, *graph)
    assert got == built_and_asked(monkeypatch, recursive_build, *graph)


def test_stacked_builder_matches_recursive_builder_on_a_flat_chain(monkeypatch):
    kb = parse_scenario(json.dumps(flat_chain(400))).evaluator.kb
    case = (kb, kb.model_view(), parse_proposition("~s0"), 1, Speaker("S", kb.expertise))
    links, asked = built_and_asked(monkeypatch, stacked_build, *case)
    # every link but the last is rejected bare and backed by the next
    assert len(links) == 400 and len(asked) == 2 * 400 - 1
    assert (links, asked) == built_and_asked(monkeypatch, recursive_build, *case)
