"""Acceptance suite: one test per shipped guarantee, each ending in a PASS line.

Run with ``pytest -v`` (or ``-s`` to see the PASS lines) to audit all seven.
"""

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from parley import (
    AgentSpec,
    Belief,
    Endorsement,
    EvidencePiece,
    Expertise,
    Speaker,
    StrengthLevel,
    VerdictOutcome,
    assimilate,
    predict,
    render_scenario,
    revise,
    supports_prop,
)
from parley.beliefs import piece_strength, revise_detail
from parley.focus import flips, select_min_set
from parley.trace import Trace

from conftest import (
    LEVELS,
    dissenters,
    ground,
    load_bundled,
    random_revision_case,
    random_scenario,
    random_store,
    run_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "parley" / "scenarios"

# the complete decision trace for the bundled smith scenario, in order
SMITH_GOLDEN = [
    ("act", {
        "act": "propose", "speaker": "U",
        "content": "PROPOSE ¬teaches(smith, ai) ⊣ on_sabbatical(smith, next_year)",
    }),
    ("revise", {
        "agent": "S", "target": "on_sabbatical(smith, next_year)",
        "supportScore": 2, "attackScore": 5, "outcome": "reject", "method": "scores",
    }),
    ("revise", {
        "agent": "S",
        "target": "supports(on_sabbatical(smith, next_year), ¬teaches(smith, ai))",
        "supportScore": 3, "attackScore": 0, "outcome": "accept", "method": "lookup",
    }),
    ("revise", {
        "agent": "S", "target": "¬teaches(smith, ai)",
        "supportScore": 2, "attackScore": 3, "outcome": "reject", "method": "scores",
    }),
    ("predict", {
        "agent": "S", "target": "on_sabbatical(smith, next_year)",
        "supportScore": 3, "attackScore": 5, "outcome": "reject",
        "removed": [], "note": "leaf",
    }),
    ("foci", {
        "agent": "S", "target": "on_sabbatical(smith, next_year)", "step": "leaf",
        "focus": ["on_sabbatical(smith, next_year)"], "cand": [],
    }),
    ("predict", {
        "agent": "S", "target": "¬teaches(smith, ai)",
        "supportScore": 0, "attackScore": 0, "outcome": "abandon",
        "removed": ["on_sabbatical(smith, next_year)"], "note": "evidence",
    }),
    ("minset", {
        "agent": "S", "target": "¬teaches(smith, ai)",
        "candidates": ["on_sabbatical(smith, next_year)"],
        "chosen": ["on_sabbatical(smith, next_year)"], "size": 1,
    }),
    ("foci", {
        "agent": "S", "target": "¬teaches(smith, ai)", "step": "evidence",
        "focus": ["on_sabbatical(smith, next_year)"],
        "cand": ["on_sabbatical(smith, next_year)"],
    }),
    ("recipe", {
        "agent": "S", "recipe": "correct-node",
        "focus": ["on_sabbatical(smith, next_year)"],
        "mutual_beliefs": ["¬on_sabbatical(smith, next_year)"],
    }),
    ("heuristic", {
        "agent": "S", "claim": "¬on_sabbatical(smith, next_year)",
        "chosen": ["postponed_sabbatical(smith, 1997)"],
        "candidates": 2, "rule": "confidence",
    }),
    ("act", {
        "act": "inform", "speaker": "S",
        "content": "INFORM ¬on_sabbatical(smith, next_year)",
    }),
    ("act", {
        "act": "inform", "speaker": "S",
        "content": "INFORM postponed_sabbatical(smith, 1997)",
    }),
    ("revise", {
        "agent": "U", "target": "postponed_sabbatical(smith, 1997)",
        "supportScore": 3, "attackScore": 0, "outcome": "accept", "method": "scores",
    }),
    ("revise", {
        "agent": "U",
        "target": "supports(postponed_sabbatical(smith, 1997), ¬on_sabbatical(smith, next_year))",
        "supportScore": 3, "attackScore": 0, "outcome": "accept", "method": "lookup",
    }),
    ("revise", {
        "agent": "U", "target": "¬on_sabbatical(smith, next_year)",
        "supportScore": 6, "attackScore": 3, "outcome": "accept", "method": "scores",
    }),
    ("act", {
        "act": "accept", "speaker": "U",
        "content": "ACCEPT ¬on_sabbatical(smith, next_year)",
    }),
    ("recipe", {
        "agent": "U", "recipe": "modify-node",
        "target": "on_sabbatical(smith, next_year)",
    }),
    ("revise", {
        "agent": "U", "target": "¬teaches(smith, ai)",
        "supportScore": 0, "attackScore": 0, "outcome": "abandon",
        "method": "scores", "note": "re-revise",
    }),
    ("recipe", {
        "agent": "U", "recipe": "alter-node", "target": "¬teaches(smith, ai)",
        "corrected": "teaches(smith, ai)",
    }),
    ("recipe", {
        "agent": "U", "recipe": "insert-correction", "target": "teaches(smith, ai)",
    }),
    ("revise", {
        "agent": "U", "target": "teaches(smith, ai)",
        "supportScore": 3, "attackScore": 0, "outcome": "accept", "method": "scores",
    }),
]


def test_p1_smith_golden_trace():
    scenario = load_bundled("smith")
    trace = Trace()
    started = time.perf_counter()
    transcript = run_scenario(scenario, trace)
    elapsed = time.perf_counter() - started

    assert transcript.realize() == [
        "U: PROPOSE ¬teaches(smith, ai) ⊣ on_sabbatical(smith, next_year)",
        "S: INFORM ¬on_sabbatical(smith, next_year)",
        "S: INFORM postponed_sabbatical(smith, 1997)",
        "U: ACCEPT ¬on_sabbatical(smith, next_year)",
    ]
    assert transcript.outcome == "agreement"
    assert transcript.ratified_root.render() == "teaches(smith, ai)"

    got = [(r.kind, r.payload) for r in trace.records]
    assert got == SMITH_GOLDEN
    assert [r.step for r in trace.records] == list(range(len(SMITH_GOLDEN)))
    assert elapsed < 1.0
    print(f"PASS P1: smith golden trace, {len(got)} records exact, {elapsed * 1000:.0f} ms")


def test_p2_focus_branch_coverage():
    expected = {
        "evidence": (
            ["leaf", "evidence"],
            [("leaf", ["certified(lab_a)"]), ("evidence", ["certified(lab_a)"])],
        ),
        "visit": (
            ["leaf", "belief"],
            [("leaf", None), ("belief", ["visits(vega)"])],
        ),
        "both": (
            ["leaf", "evidence", "belief", "both"],
            [("leaf", ["funded(lab)"]), ("both", ["funded(lab)", "upgrade(lab)"])],
        ),
    }
    for name, (notes, foci) in expected.items():
        trace = Trace()
        transcript = run_scenario(load_bundled(name), trace)
        assert transcript.outcome == "agreement", name
        assert [r.payload["note"] for r in trace.by_kind("predict")] == notes, name
        assert [
            (r.payload["step"], r.payload["focus"]) for r in trace.by_kind("foci")
        ] == foci, name
    print("PASS P2: evidence, belief and both branches each reach their hand-traced focus")


def _min_set_case(rng: random.Random):
    names = [f"p{i}" for i in range(rng.randint(4, 8))]
    model = random_store(rng, names, max_beliefs=8)
    target = ground(rng.choice(names), rng.choice([False, True]))
    menu = sorted(
        {
            b.prop
            for b in model.own
            if not b.prop.is_relation and b.prop not in (target, target.negate())
        }
    )
    if not menu:
        return None
    cand = tuple(sorted(rng.sample(menu, rng.randint(1, min(8, len(menu))))))
    hyp = ()
    if rng.random() < 0.5:
        hyp = Speaker("u", rng.choice(list(Expertise))).case(target)
    tau = rng.choice([1, 1, 2])
    if not flips(predict(model, target, hyp, cand, tau)):
        return None
    return model, target, cand, hyp, tau


def _min_set_oracle(model, target, cand, hyp, tau):
    # brute force over every subset, then one global min under the tie-break
    flipping = [
        combo
        for size in range(1, len(cand) + 1)
        for combo in itertools.combinations(cand, size)
        if flips(predict(model, target, hyp, combo, tau))
    ]
    return min(
        flipping,
        key=lambda c: (len(c), tuple(m.render() for m in c)),
    )


def test_p3_min_set_matches_exhaustive_oracle():
    started = time.perf_counter()
    cases = 0
    seed = 0
    while cases < 100:
        case = _min_set_case(random.Random(seed))
        seed += 1
        assert seed < 10_000, "generator failed to produce 100 qualifying cases"
        if case is None:
            continue
        cases += 1
        model, target, cand, hyp, tau = case
        got = select_min_set(target, cand, model, tau, hypothesized=hyp)
        assert got == _min_set_oracle(model, target, cand, hyp, tau), seed - 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS P3: 100/100 oracle agreement over {seed} draws, {elapsed:.2f} s")


def test_p4_revision_properties():
    # weakest link, all nine rank pairs
    t = ground("t")
    basis = ground("p")
    for belief_level in LEVELS:
        for relation_level in LEVELS:
            piece = EvidencePiece(
                Belief(basis, Endorsement.kb_record(belief_level)),
                Belief(supports_prop(basis, t), Endorsement.kb_record(relation_level)),
            )
            assert piece_strength(piece) == min(belief_level, relation_level)

    rank = {
        VerdictOutcome.REJECT: -1,
        VerdictOutcome.ABANDON: 0,
        VerdictOutcome.UNCERTAIN: 0,
        VerdictOutcome.ACCEPT: 1,
    }
    extra_basis = ground("extra")
    for seed in range(10_000):
        rng = random.Random(seed)
        kb, target, presented, tau = random_revision_case(rng)

        # monotonicity: one more support piece never hurts the target
        before = revise(kb, target, presented, tau)
        extra = EvidencePiece(
            Belief(extra_basis, Endorsement.kb_record(rng.choice(LEVELS))),
            Belief(supports_prop(extra_basis, target), Endorsement.kb_record(rng.choice(LEVELS))),
        )
        after = revise(kb, target, presented + [extra], tau)
        assert after.support_score >= before.support_score, seed
        assert after.attack_score == before.attack_score, seed
        assert rank[after.outcome] >= rank[before.outcome], seed

        # symmetry: the same pool argues the negation, with the two scores
        # swapped
        mirrored = revise(kb, target.negate(), presented, tau)
        assert (before.support_score, before.attack_score) == (
            mirrored.attack_score,
            mirrored.support_score,
        ), seed
        if before.outcome is VerdictOutcome.ACCEPT:
            assert mirrored.outcome is VerdictOutcome.REJECT, seed
        elif before.outcome is VerdictOutcome.REJECT:
            assert mirrored.outcome is VerdictOutcome.ACCEPT, seed

    # no sequence of assimilated verdicts ever leaves a store contradictory
    for seed in range(500):
        rng = random.Random(seed)
        kb = random_store(rng, [f"p{i}" for i in range(5)])
        for _ in range(8):
            target = ground(rng.choice([f"p{i}" for i in range(5)]), rng.choice([False, True]))
            verdict = revise_detail(kb, target, tau=rng.choice([1, 2]))
            if verdict.outcome is VerdictOutcome.UNCERTAIN:
                continue
            kb = assimilate(kb, verdict, target)
            assert not (kb.holds(target) and kb.holds(target.negate())), seed
    print("PASS P4: weakest link 9/9, monotonicity and symmetry 10000/10000, "
          "no contradictions over 500 assimilation sequences")


# sha256 over the bundled scenarios, sorted by name, then the 1,000 seeds:
# for each run, its transcript lines, outcome and trace NDJSON
P5_DIGEST = "6ee6e8c57989793b40ad3cbf8e2b01917c973faaf40299ca3f9a464a6217d29c"
# sha256 over the same runs in the same order: for each, the scenario as
# render_scenario writes it with both agents' final stores in place
P5_STORE_DIGEST = "bf009aca29562219a4f724f0da93a4ecada9183ad4dce20e95559bfaebe09b88"


def _fold(digest, transcript, trace) -> None:
    text = "\n".join(transcript.realize()) + "\0" + transcript.outcome + "\0" + trace.to_ndjson()
    digest.update(text.encode("utf-8"))


def _fold_stores(digest, scenario, transcript) -> None:
    agents = tuple(AgentSpec(a.id, transcript.final_beliefs[a.id]) for a in scenario.agents)
    digest.update(render_scenario(replace(scenario, agents=agents)).encode("utf-8"))


def test_p5_termination_and_determinism():
    digest, stores = hashlib.sha256(), hashlib.sha256()
    for path in sorted(SCENARIO_DIR.glob("*.scenario")):
        trace = Trace()
        scenario = load_bundled(path.stem)
        transcript = run_scenario(scenario, trace)
        _fold(digest, transcript, trace)
        _fold_stores(stores, scenario, transcript)
    worst = 0.0
    for seed in range(1000):
        scenario = random_scenario(random.Random(seed))
        total_beliefs = sum(len(agent.kb.own) for agent in scenario.agents)
        trace_a, trace_b = Trace(), Trace()
        first = run_scenario(scenario, trace_a)
        second = run_scenario(scenario, trace_b)
        assert first.rounds <= total_beliefs, (seed, first.rounds, total_beliefs)
        assert dissenters(first) == [], seed
        assert first.realize() == second.realize(), seed
        assert trace_a.to_ndjson() == trace_b.to_ndjson(), seed
        worst = max(worst, first.rounds / max(total_beliefs, 1))
        _fold(digest, first, trace_a)
        _fold_stores(stores, scenario, first)
    assert digest.hexdigest() == P5_DIGEST
    assert stores.hexdigest() == P5_STORE_DIGEST
    print(f"PASS P5: 1000 scenarios halted within the belief-count bound "
          f"(worst ratio {worst:.2f}), replayed byte-identically and matched the "
          f"recorded digest")


def test_p6_embedded_subdialogue():
    trace = Trace()
    transcript = run_scenario(load_bundled("nest"), trace)
    assert transcript.depth == 2
    assert transcript.outcome == "agreement"
    # the roles swap inside the embedded exchange: U defends S's counterclaim
    foci_agents = [r.payload["agent"] for r in trace.by_kind("foci")]
    assert foci_agents == ["S", "U", "U"]
    assert transcript.realize()[4].startswith("U: INFORM")
    print(f"PASS P6: nest fixture reached depth {transcript.depth} and agreed")


def test_p7_information_sharing_boundary():
    trace = Trace()
    transcript = run_scenario(load_bundled("tie"), trace)
    root = trace.by_kind("revise")[0].payload
    assert root["supportScore"] == root["attackScore"]
    assert transcript.outcome == "unresolved-needs-sharing"

    result = subprocess.run(
        [
            sys.executable, "-m", "parley", "run",
            str(SCENARIO_DIR / "tie.scenario"), "--format", "json",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert json.loads(result.stdout)["outcome"] == "unresolved-needs-sharing"
    print("PASS P7: tied evidence ends in unresolved-needs-sharing with exit code 2")
