import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parley
from parley import (
    ActKind,
    Belief,
    ContractViolation,
    DepthExceededError,
    Endorsement,
    Expertise,
    KnowledgeBase,
    NegotiationConfig,
    ProposalNode,
    ScenarioError,
    Speaker,
    StrengthLevel,
    StructureError,
    Verdict,
    VerdictOutcome,
    assimilate,
    assimilate_evaluated,
    evaluate_proposal,
    negotiate,
    parse_proposition,
    parse_scenario,
    record_proposal,
    render_tree,
    revise,
    supports_prop,
)
from parley.focus import predict, select_min_set
from parley import negotiation
from parley.negotiation import _apply_correction, _observe_acceptance, _Session
from parley.trace import Trace

from conftest import (
    ASSERTED_LEVEL,
    added_in_turn,
    assert_index_covers,
    asserted,
    beliefs_about,
    disputed_correction_scenario,
    dissenters,
    ground,
    load_bench,
    load_bundled,
    proposal_trees,
    random_scenario,
    run_scenario,
    store_beliefs,
)

W, S, T = StrengthLevel.WEAK, StrengthLevel.STRONG, StrengthLevel.WARRANTED

FIXTURES = {
    "smith": (
        [
            "U: PROPOSE ¬teaches(smith, ai) ⊣ on_sabbatical(smith, next_year)",
            "S: INFORM ¬on_sabbatical(smith, next_year)",
            "S: INFORM postponed_sabbatical(smith, 1997)",
            "U: ACCEPT ¬on_sabbatical(smith, next_year)",
        ],
        "agreement", 1, 2, "teaches(smith, ai)",
    ),
    "evidence": (
        [
            "U: PROPOSE ¬retest(lab_a) ⊣ certified(lab_a)",
            "S: INFORM ¬certified(lab_a)",
            "S: INFORM expired_audit(lab_a)",
            "U: ACCEPT ¬certified(lab_a)",
        ],
        "agreement", 1, 2, "retest(lab_a)",
    ),
    "visit": (
        [
            "U: PROPOSE visits(vega) ⊣ host(vega)",
            "S: INFORM ¬visits(vega)",
            "S: INFORM declined(vega)",
            "S: INFORM supports(declined(vega), ¬visits(vega))",
            "U: ACCEPT ¬visits(vega)",
        ],
        "agreement", 1, 2, "¬visits(vega)",
    ),
    "both": (
        [
            "U: PROPOSE upgrade(lab) ⊣ funded(lab)",
            "S: INFORM ¬funded(lab)",
            "S: INFORM audit(lab)",
            "S: INFORM supports(audit(lab), ¬funded(lab))",
            "S: INFORM ¬upgrade(lab)",
            "U: ACCEPT ¬funded(lab)",
            "U: ACCEPT ¬upgrade(lab)",
        ],
        "agreement", 1, 3, "¬upgrade(lab)",
    ),
    "nest": (
        [
            "U: PROPOSE approve(plan)",
            "S: INFORM ¬approve(plan)",
            "S: INFORM flawed(plan)",
            "S: INFORM supports(flawed(plan), ¬approve(plan))",
            "U: INFORM ¬flawed(plan)",
            "U: INFORM tested(plan)",
            "U: INFORM supports(tested(plan), ¬flawed(plan))",
            "S: ACCEPT ¬flawed(plan)",
        ],
        "agreement", 2, 4, "approve(plan)",
    ),
    "tie": (
        ["U: PROPOSE relocate(hq)", "S: INFOSHARE relocate(hq)"],
        "unresolved-needs-sharing", 0, 1, None,
    ),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_bundled_outcomes(name):
    acts, outcome, depth, rounds, ratified = FIXTURES[name]
    t = run_scenario(load_bundled(name))
    assert t.realize() == acts
    assert t.outcome == outcome
    assert (t.depth, t.rounds) == (depth, rounds)
    assert dissenters(t) == []
    if ratified is None:
        assert t.ratified_root is None
    else:
        assert t.ratified_root == parse_proposition(ratified)


def test_tie_ends_in_a_request_for_information():
    t = run_scenario(load_bundled("tie"))
    assert [act.kind for act in t.acts] == [ActKind.PROPOSE, ActKind.INFO_SHARE_REQUEST]
    assert t.conceded_by is None


# runs the bundled scenarios and writes each transcript, outcome and trace
BUNDLED_RUN = """
import sys
from importlib import resources
from parley import NegotiationConfig, negotiate, parse_scenario
from parley.trace import Trace

for entry in sorted(resources.files("parley.scenarios").iterdir(), key=lambda e: e.name):
    if not entry.name.endswith(".scenario"):
        continue
    s = parse_scenario(entry.read_text(encoding="utf-8"))
    trace = Trace()
    config = NegotiationConfig(tau=s.tau, max_depth=s.max_depth)
    t = negotiate({a.id: a.kb for a in s.agents}, s.proposer.id, s.proposal, config, trace=trace)
    text = "\\n".join(t.realize()) + "\\0" + t.outcome + "\\0" + trace.to_ndjson()
    sys.stdout.buffer.write(text.encode("utf-8"))
"""


def test_output_does_not_depend_on_hash_seed():
    # set iteration follows string hashes; dict iteration follows write
    # order; neither may reach a transcript or a trace
    outputs = []
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-c", BUNDLED_RUN],
            capture_output=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0].count(b"\0") == 12
    assert outputs[0] == outputs[1]


def test_bench_golden_digests():
    # the benchmark's recorded outputs for the first default-seed inputs of
    # every workload, and smith's README transcript
    run = load_bench("run")
    for workload in run.workloads.WORKLOADS:
        checks = run.Checks()
        run.check_golden(parley, workload, checks)
        assert checks.notes == [], workload
        assert (checks.attempted, checks.failed) == (len(run.golden_cases(workload)) + 2, 0)


def test_inputs_never_mutated(smith):
    before = {a.id: a.kb for a in smith.agents}
    snapshots = {aid: (kb.own, kb.user_model) for aid, kb in before.items()}
    t = run_scenario(smith)
    assert t.outcome == "agreement"
    for aid, kb in before.items():
        assert (kb.own, kb.user_model) == snapshots[aid]
        assert t.final_beliefs[aid] is not kb


def test_final_beliefs_reflect_agreement(smith):
    t = run_scenario(smith)
    corrected = parse_proposition("~on_sabbatical(smith, next_year)")
    assert t.final_beliefs["U"].holds(corrected)
    assert not t.final_beliefs["U"].holds(corrected.negate())
    for kb in t.final_beliefs.values():  # the ratified root lands on both sides
        assert kb.holds(t.ratified_root)


def test_depth_bound_enforced():
    scenario = load_bundled("nest")  # needs a depth-2 subdialogue
    kbs = {a.id: a.kb for a in scenario.agents}

    def run(max_depth: int):
        config = NegotiationConfig(tau=scenario.tau, max_depth=max_depth)
        return negotiate(kbs, scenario.proposer.id, scenario.proposal, config)

    # the bound is inclusive: exactly the depth needed negotiates in full
    transcript = run(2)
    assert (transcript.depth, transcript.outcome) == (2, "agreement")
    assert transcript.realize() == run_scenario(scenario).realize()
    with pytest.raises(DepthExceededError):
        run(1)


def test_correction_prunes_whole_subtrees_and_keeps_the_first_recipe():
    # the member is the relation from a to b and, in the other branch, a
    # node with c beneath it; the relation comes first in preorder
    t, a, b, c = (parse_proposition(f"{name}(x)") for name in "tabc")
    member = supports_prop(a, b)
    strong = StrengthLevel.STRONG
    tree = ProposalNode(t, strong, (
        ProposalNode(b, strong, (ProposalNode(a, strong),)),
        ProposalNode(member, strong, (ProposalNode(c, strong),)),
    ))
    pruned, recipe = _apply_correction(tree, member)
    assert (render_tree(pruned), recipe) == ("t(x) ⊣ b(x)", "remove-node")


def test_correction_walks_no_pruned_subtree():
    # p ⊣ c ⊣ supports(c, p), the member being that relation: the edge from
    # p to c is removed before the node beneath c, which would be modified,
    # is reached
    p, c = parse_proposition("p(x)"), parse_proposition("c(x)")
    member = supports_prop(c, p)
    strong = StrengthLevel.STRONG
    tree = ProposalNode(p, strong, (ProposalNode(c, strong, (ProposalNode(member, strong),)),))
    assert _apply_correction(tree, member) == (ProposalNode(p, strong), "remove-node")


def test_self_contradictory_proposal_is_refused():
    # judged against one store, both branches of p ⊣ ¬q, q are accepted by
    # a hearer holding q weakly; adopting ¬q would then drop q, leaving
    # nothing to adopt q from
    q = parse_proposition("q(x)")
    strong = StrengthLevel.STRONG
    branches = (ProposalNode(q.negate(), strong), ProposalNode(q, strong))
    tree = ProposalNode(parse_proposition("p(x)"), strong, branches)
    hearer = KnowledgeBase(
        own=(Belief(q, Endorsement.kb_record(StrengthLevel.WEAK)),),
        user_model=(),
        expertise=Expertise.EXPERT,
    )
    speaker = KnowledgeBase(own=(), user_model=(), expertise=Expertise.EXPERT)
    with pytest.raises(StructureError, match=r"asserts both ¬q\(x\) and q\(x\)$"):
        negotiate({"u": speaker, "s": hearer}, "u", tree)
    with pytest.raises(ScenarioError, match=r"\$\.proposal: proposal tree asserts both"):
        dialogue(
            ("expert", []),
            ("expert", [("q(x)", "weak")]),
            ("p(x)", "strong", [("~q(x)", "strong"), ("q(x)", "strong")]),
        )


def test_retry_that_presents_nothing_new_is_a_contract_violation(monkeypatch):
    # each retried round must grow what the session has presented; that
    # measure is what bounds the rounds.  With nothing ever recorded as
    # presented, nest's first retry grows nothing
    monkeypatch.setattr(negotiation._Session, "already_presented", lambda self, *args: False)
    with pytest.raises(ContractViolation) as info:
        run_scenario(load_bundled("nest"))
    assert str(info.value) == (
        "a retried round of U to S on approve(plan) at depth 0 "
        "left the presented propositions unchanged"
    )


def test_deep_chain_is_near_linear():
    # near linear in d: when every store write re-sorted and re-indexed the
    # whole store, d=300 took 0.83 s of CPU time on a 2-CPU VM
    case = load_bench("workloads").deep_chain_case(random.Random(0), 300)
    scenario = parse_scenario(case.text)
    start = time.process_time()
    transcript = run_scenario(scenario, Trace())
    assert time.process_time() - start < 0.5
    assert transcript.outcome == "agreement"


def test_needs_exactly_two_agents(smith):
    kbs = {a.id: a.kb for a in smith.agents}
    with pytest.raises(ContractViolation):
        negotiate({"U": kbs["U"]}, "U", smith.proposal)
    with pytest.raises(ContractViolation):
        negotiate(kbs, "nobody", smith.proposal)


def test_refuses_a_store_that_is_no_knowledge_base(smith):
    kbs = {"U": smith.agents[0].kb, "S": "x"}
    with pytest.raises(ContractViolation) as info:
        negotiate(kbs, "U", smith.proposal)
    assert str(info.value) == "agent 'S' needs a KnowledgeBase, got 'x'"


def test_refuses_a_proposal_that_is_no_tree(smith):
    kbs = {a.id: a.kb for a in smith.agents}
    with pytest.raises(ContractViolation) as info:
        negotiate(kbs, "U", "p")
    assert str(info.value) == "proposal must be a ProposalNode, got 'p'"


@pytest.mark.parametrize(
    "bad",
    [{"tau": 0}, {"tau": True}, {"tau": 1.5}, {"tau": "1"}]
    + [{"max_depth": 0}, {"max_depth": False}, {"max_depth": 2.5}, {"max_depth": None}],
    ids=repr,
)
def test_config_takes_only_positive_integers(bad):
    # a bool is an int, and a float or a str must not reach a comparison
    with pytest.raises(ContractViolation, match="at least 1"):
        NegotiationConfig(**bad)


@pytest.mark.parametrize("tau", [True, 1.5, "1", 0], ids=repr)
@pytest.mark.parametrize("entry", ["revise", "predict", "evaluate_proposal"])
def test_every_threshold_takes_only_positive_integers(entry, tau):
    # the check NegotiationConfig makes: True and 1.5 used to pass here, and
    # "1" to crash the comparison with a TypeError
    target, kb = ground("t"), KnowledgeBase(own=())
    calls = {
        "revise": lambda: revise(kb, target, tau=tau),
        "predict": lambda: predict(kb, target, tau=tau),
        "evaluate_proposal": lambda: evaluate_proposal(
            kb,
            ProposalNode(target, StrengthLevel.STRONG),
            tau,
            proposer=Speaker("U", Expertise.EXPERT),
        ),
    }
    message = f"threshold must be an integer at least 1, got {tau!r}"
    with pytest.raises(ContractViolation) as info:
        calls[entry]()
    assert str(info.value) == message


def test_unwinnable_defense_concedes():
    prop = ground("t")
    backing = lambda p, basis: (  # noqa: E731 - local table builder
        Belief(ground(basis), Endorsement.kb_record(T)),
        Belief(supports_prop(ground(basis), p), Endorsement.kb_record(T)),
    )
    u_own = (
        Belief(prop, Endorsement.kb_record(S)),
        *backing(prop, "a"),
        *backing(prop, "d"),
    )
    kbs = {
        "U": KnowledgeBase(own=u_own, expertise=Expertise.NON_EXPERT),
        "S": KnowledgeBase(
            own=(Belief(prop.negate(), Endorsement.kb_record(T)), *backing(prop.negate(), "q")),
            user_model=u_own,
            expertise=Expertise.EXPERT,
        ),
    }
    trace = Trace()
    t = negotiate(kbs, "U", ProposalNode(prop, S), trace=trace)
    assert t.outcome == "concession:S"
    assert t.conceded_by == "S"
    assert t.realize() == ["U: PROPOSE t(x)", "S: ACCEPT t(x)"]
    assert t.ratified_root == prop
    assert t.final_beliefs["S"].holds(prop)
    # the conceding side saw no winnable modification anywhere
    foci = trace.by_kind("foci")
    assert [r.payload["step"] for r in foci] == ["leaf"]
    assert foci[0].payload["focus"] is None


def test_reruns_are_byte_identical(smith):
    t1, tr1 = run_scenario(smith), Trace()
    t2, tr2 = run_scenario(smith), Trace()
    run_scenario(smith, tr1)
    run_scenario(smith, tr2)
    assert t1.realize() == t2.realize()
    assert tr1.to_ndjson() == tr2.to_ndjson()


def test_act_content_leaves_out_a_speaker_id_with_a_colon():
    doc = json.loads(
        resources.files("parley.scenarios").joinpath("smith.scenario").read_text()
    )
    doc["agents"][0]["id"] = "U: x"
    trace = Trace()
    transcript = run_scenario(parse_scenario(json.dumps(doc)), trace)
    first = trace.by_kind("act")[0].payload
    assert first["speaker"] == "U: x"
    assert first["content"] == FIXTURES["smith"][0][0].removeprefix("U: ")
    assert transcript.realize()[0] == f"U: x: {first['content']}"


def test_each_act_is_rendered_once(smith, monkeypatch):
    # the session renders each act's content for the trace, and the
    # transcript reuses that text: realizing it walks no proposal again
    transcript = run_scenario(smith)
    walked = []
    render = negotiation.render_tree
    monkeypatch.setattr(negotiation, "render_tree", lambda t: walked.append(t) or render(t))
    assert transcript.realize() == FIXTURES["smith"][0] and walked == []
    # the kept text takes no part in equality or repr
    act = transcript.acts[0]
    fresh = negotiation.DiscourseAct(act.kind, act.speaker, act.prop, act.proposal)
    assert fresh == act and hash(fresh) == hash(act) and repr(fresh) == repr(act)
    assert fresh.content() == act.content() and len(walked) == 1


VERDICT_KEYS = {"agent", "target", "supportScore", "attackScore", "outcome"}
VERDICT_RECORDS = {
    # (kind, method, has note) -> exact payload keys
    ("revise", "scores", False): VERDICT_KEYS | {"method"},
    ("revise", "scores", True): VERDICT_KEYS | {"method", "note"},
    ("revise", "lookup", False): VERDICT_KEYS | {"method"},
    ("predict", None, True): VERDICT_KEYS | {"removed", "note"},
}


def bundled_records():
    """(scenario name, trace record) over every bundled scenario."""
    for name in sorted(FIXTURES):
        trace = Trace()
        run_scenario(load_bundled(name), trace)
        for record in trace.records:
            yield name, record


def test_verdict_records_have_exact_keys():
    seen = set()
    for name, record in bundled_records():
        if record.kind not in ("revise", "predict"):
            continue
        payload = record.payload
        variant = (record.kind, payload.get("method"), "note" in payload)
        assert variant in VERDICT_RECORDS, (name, record.step, variant)
        assert set(payload) == VERDICT_RECORDS[variant], (name, record.step)
        assert payload.get("note", "x") != ""
        seen.add(variant)
    assert seen == set(VERDICT_RECORDS)


TRACE_RECORDS = {
    # (kind, recipe) -> exact payload keys, for every kind but revise/predict
    ("act", None): {"speaker", "act", "content"},
    ("foci", None): {"agent", "target", "step", "focus", "cand"},
    ("minset", None): {"agent", "target", "candidates", "chosen", "size"},
    ("heuristic", None): {"agent", "claim", "chosen", "candidates", "rule"},
    ("recipe", "correct-node"): {"agent", "recipe", "focus", "mutual_beliefs"},
    ("recipe", "modify-node"): {"agent", "recipe", "target"},
    ("recipe", "alter-node"): {"agent", "recipe", "target", "corrected"},
    ("recipe", "insert-correction"): {"agent", "recipe", "target"},
}


def test_other_trace_records_have_exact_keys():
    seen = set()
    for name, record in bundled_records():
        if record.kind in ("revise", "predict"):
            continue
        variant = (record.kind, record.payload.get("recipe"))
        assert variant in TRACE_RECORDS, (name, record.step, variant)
        assert set(record.payload) == TRACE_RECORDS[variant], (name, record.step)
        seen.add(variant)
    assert seen == set(TRACE_RECORDS)


def dialogue(proposer, evaluator, proposal, tau: int = 1, ids=("A", "B")):
    """A scenario in which A proposes to B, or ``ids`` to each other.  Each
    agent is ``(expertise, beliefs)``; a belief is ``(prop, level)``,
    recorded, or ``(prop, level, source)``; a proposal node is ``(prop,
    level, children)``."""

    def agent(agent_id, expertise, beliefs):
        beliefs = [
            {"prop": b[0], "level": b[1], "source": b[2] if len(b) > 2 else "kb-record"}
            for b in beliefs
        ]
        return {"id": agent_id, "expertise": expertise, "beliefs": beliefs, "userModel": []}

    def node(prop, level, children=()):
        return {"prop": prop, "assertedLevel": level, "children": [node(*c) for c in children]}

    doc = {
        "v": 1,
        "agents": [agent(ids[0], *proposer), agent(ids[1], *evaluator)],
        "proposal": node(*proposal),
        "config": {"tau": tau, "maxDepth": 16},
    }
    return parse_scenario(json.dumps(doc))


def moves(trace) -> list[tuple]:
    """The trace without its scores, as short tuples: each act, recipe and
    foci step, and each re-revision or relation prediction."""
    out = []
    for r in trace.records:
        p = r.payload
        if r.kind == "act":
            out.append((p["speaker"], p["act"], p["content"]))
        elif r.kind == "recipe":
            out.append((p["agent"], p["recipe"]))
        elif r.kind == "foci":
            out.append((p["agent"], "foci", p["target"], p["step"], p["focus"]))
        elif p.get("note") in ("re-revise", "relation"):
            out.append((p["agent"], r.kind, p["note"], p["target"], p["outcome"]))
    return out


def test_proposer_keeps_its_re_judgement():
    # B corrects A's claim, A concedes the sub-claim, re-judges its own claim
    # and still accepts it.  A keeps that judgement and proposes again; B has
    # nothing new to present and concedes, so both end holding the claim.
    scenario = dialogue(
        (
            "non-expert",
            [
                ("~p0(x)", "warranted"),
                ("~p4(x)", "strong"),
                ("p1(x)", "weak"),
                ("~p2(x)", "warranted"),
                ("supports(~p3(x), p2(x))", "weak"),
                ("supports(~p3(x), p1(x))", "strong"),
                ("supports(~p0(x), ~p4(x))", "warranted"),
                ("supports(~p3(x), ~p0(x))", "warranted"),
            ],
        ),
        (
            "non-expert",
            [
                ("~p3(x)", "weak"),
                ("~p4(x)", "strong", {"derived": {"from": ["~p3(x)"]}}),
                ("~p2(x)", "warranted"),
                ("p0(x)", "warranted"),
                ("p1(x)", "strong"),
                ("supports(~p2(x), p4(x))", "warranted"),
            ],
        ),
        ("~p4(x)", "strong"),
    )
    trace = Trace()
    t = run_scenario(scenario, trace)
    assert t.realize() == [
        "A: PROPOSE ¬p4(x)",
        "B: INFORM p4(x)",
        "B: INFORM ¬p2(x)",
        "B: INFORM supports(¬p2(x), p4(x))",
        "A: ACCEPT p4(x)",
        "B: ACCEPT ¬p4(x)",
    ]
    assert (t.outcome, t.ratified_root) == ("concession:B", parse_proposition("~p4(x)"))
    assert dissenters(t) == []
    assert t.final_beliefs["A"].holds(t.ratified_root)
    steps = [m for m in moves(trace) if m[1] != "foci"]
    assert steps == [
        ("A", "propose", "PROPOSE ¬p4(x)"),
        ("B", "correct-node"),
        ("B", "inform", "INFORM p4(x)"),
        ("B", "inform", "INFORM ¬p2(x)"),
        ("B", "inform", "INFORM supports(¬p2(x), p4(x))"),
        ("A", "accept", "ACCEPT p4(x)"),
        # the re-judged claim still stands, so A proposes it again ...
        ("A", "revise", "re-revise", "¬p4(x)", "accept"),
        # ... and B, whose case A has heard, concedes
        ("B", "correct-node"),
        ("B", "accept", "ACCEPT ¬p4(x)"),
    ]


def test_relation_focus_of_an_accepted_child_removes_the_edge():
    # B takes p1 but holds that it does not support ¬p2: the focus is the
    # link, which A gives up, so A's proposal loses that child
    scenario = dialogue(
        ("non-expert", []),
        ("expert", [("p2(x)", "warranted"), ("~supports(p1(x), ~p2(x))", "warranted")]),
        ("~p2(x)", "strong", [("p1(x)", "strong")]),
    )
    trace = Trace()
    t = run_scenario(scenario, trace)
    assert t.realize() == [
        "A: PROPOSE ¬p2(x) ⊣ p1(x)",
        "B: INFORM ¬supports(p1(x), ¬p2(x))",
        "A: ACCEPT ¬supports(p1(x), ¬p2(x))",
        "A: INFOSHARE ¬p2(x)",
    ]
    assert t.outcome == "unresolved-needs-sharing"
    link = "supports(p1(x), ¬p2(x))"
    assert [m for m in moves(trace) if m[1] in ("foci", "predict", "remove-node")] == [
        ("B", "predict", "relation", link, "reject"),
        ("B", "foci", link, "relation", [link]),
        ("B", "foci", "¬p2(x)", "evidence", [link]),
        ("A", "remove-node"),
    ]
    (removal,) = [r for r in trace.by_kind("recipe") if r.payload["recipe"] == "remove-node"]
    assert removal.payload == {"agent": "A", "recipe": "remove-node", "target": link}


def test_relation_focus_of_an_unshakeable_child():
    # B cannot move A on ¬p1 and holds the negation of its link; the link
    # is tried as the focus, does not flip either, and B concedes
    scenario = dialogue(
        ("non-expert", []),
        (
            "non-expert",
            [
                ("p1(x)", "strong"),
                ("p2(x)", "weak"),
                ("supports(p1(x), p2(x))", "strong"),
                ("~supports(~p1(x), ~p2(x))", "strong"),
            ],
        ),
        ("~p2(x)", "strong", [("~p1(x)", "strong")]),
    )
    trace = Trace()
    t = run_scenario(scenario, trace)
    assert t.realize() == ["A: PROPOSE ¬p2(x) ⊣ ¬p1(x)", "B: ACCEPT ¬p2(x)"]
    assert t.outcome == "concession:B"
    assert moves(trace)[1:-1] == [
        ("B", "foci", "¬p1(x)", "leaf", None),
        ("B", "predict", "relation", "supports(¬p1(x), ¬p2(x))", "uncertain"),
        ("B", "foci", "¬p2(x)", "nil", None),
    ]


def test_flippable_link_of_an_unshakeable_child_is_the_focus():
    # as above, but B also holds weak evidence against the link: A's belief
    # in ¬p1 still cannot be moved, the link can, and it becomes the focus
    # of the root, which names ¬p1 as its only candidate
    link = "supports(¬p1(x), ¬p2(x))"
    scenario = dialogue(
        ("non-expert", []),
        (
            "non-expert",
            [
                ("p1(x)", "strong"),
                ("p2(x)", "weak"),
                ("supports(p1(x), p2(x))", "strong"),
                ("~supports(~p1(x), ~p2(x))", "strong"),
                ("e(x)", "weak"),
                ("supports(e(x), ~supports(~p1(x), ~p2(x)))", "weak"),
            ],
        ),
        ("~p2(x)", "strong", [("~p1(x)", "strong")]),
    )
    trace = Trace()
    t = run_scenario(scenario, trace)
    assert t.realize() == [
        "A: PROPOSE ¬p2(x) ⊣ ¬p1(x)",
        f"B: INFORM ¬{link}",
        "B: INFORM e(x)",
        f"B: INFORM supports(e(x), ¬{link})",
        f"A: ACCEPT ¬{link}",
        "A: INFOSHARE ¬p2(x)",
    ]
    assert t.outcome == "unresolved-needs-sharing"
    assert [r.payload for r in trace.by_kind("foci")] == [
        {"agent": "B", "target": "¬p1(x)", "step": "leaf", "focus": None, "cand": []},
        {"agent": "B", "target": "¬p2(x)", "step": "evidence", "focus": [link], "cand": ["¬p1(x)"]},
    ]
    (correction,) = [r for r in trace.by_kind("recipe") if r.payload["recipe"] == "correct-node"]
    assert correction.payload == {
        "agent": "B", "recipe": "correct-node", "focus": [link], "mutual_beliefs": [f"¬{link}"]
    }
    assert ("B", "predict", "relation", link, "reject") in moves(trace)


def test_disputed_ratification_asks_for_information():
    # A gives up c and, with it, r; B's correction ¬r is not enough for A to
    # take on the evidence A holds, so A asks for more
    scenario = dialogue(
        (
            "non-expert",
            [
                ("c(x)", "strong"),
                ("supports(c(x), r(x))", "warranted"),
                ("r(x)", "strong", {"derived": {"from": ["c(x)"]}}),
                ("e(x)", "weak"),
                ("supports(e(x), r(x))", "weak"),
            ],
        ),
        (
            "non-expert",
            [
                ("~c(x)", "warranted"),
                ("d(x)", "warranted"),
                ("supports(d(x), ~c(x))", "warranted"),
                ("~r(x)", "warranted"),
                ("f(x)", "warranted"),
                ("supports(f(x), ~r(x))", "warranted"),
            ],
        ),
        ("r(x)", "strong", [("c(x)", "strong")]),
        tau=2,
    )
    trace = Trace()
    t = run_scenario(scenario, trace)
    assert t.realize() == [
        "A: PROPOSE r(x) ⊣ c(x)",
        "B: INFORM ¬c(x)",
        "B: INFORM d(x)",
        "B: INFORM supports(d(x), ¬c(x))",
        "A: ACCEPT ¬c(x)",
        "A: INFOSHARE ¬r(x)",
    ]
    assert (t.outcome, t.ratified_root) == ("unresolved-needs-sharing", None)
    assert [m for m in moves(trace) if m[1] not in ("foci", "inform")][-6:] == [
        ("A", "accept", "ACCEPT ¬c(x)"),
        ("A", "modify-node"),
        ("A", "revise", "re-revise", "r(x)", "abandon"),
        ("A", "alter-node"),
        ("A", "insert-correction"),
        ("A", "info-share-request", "INFOSHARE ¬r(x)"),
    ]
    # A withdrew r and heard ¬r, but took neither side
    assert not t.final_beliefs["A"].holds(parse_proposition("r(x)"))
    assert not t.final_beliefs["A"].holds(parse_proposition("~r(x)"))


# random_scenario seeds whose request for information comes inside a
# counter-proposal: the deepest nesting and the transcript of each
NESTED_STALLS = {
    # A, hearing B's counter-claim p0 at depth 1, is uncertain of it
    16: (
        1,
        [
            "A: PROPOSE ¬p0(x)",
            "B: INFORM p0(x)",
            "B: INFORM ¬p2(x)",
            "B: INFORM supports(¬p2(x), p0(x))",
            "A: INFOSHARE p0(x)",
        ],
    ),
    # A concedes p0 at depth 3, then its re-revision of ¬p0 at depth 2 is
    # uncertain
    2519: (
        3,
        [
            "A: PROPOSE ¬p0(x)",
            "B: INFORM p0(x)",
            "A: INFORM ¬p0(x)",
            "A: INFORM ¬p2(x)",
            "A: INFORM supports(¬p2(x), ¬p0(x))",
            "B: INFORM p0(x)",
            "B: INFORM ¬p1(x)",
            "B: INFORM supports(¬p1(x), p0(x))",
            "A: ACCEPT p0(x)",
            "A: INFOSHARE ¬p0(x)",
        ],
    ),
    # A, hearing B's counter-claim p0 again at depth 3, is uncertain of it
    30539: (
        3,
        [
            "A: PROPOSE ¬p0(x)",
            "B: INFORM p0(x)",
            "A: INFORM ¬p0(x)",
            "A: INFORM ¬p1(x)",
            "A: INFORM supports(¬p1(x), ¬p0(x))",
            "B: INFORM p0(x)",
            "B: INFORM p2(x)",
            "B: INFORM supports(p2(x), p0(x))",
            "A: INFOSHARE p0(x)",
        ],
    ),
}


@pytest.mark.parametrize("seed", sorted(NESTED_STALLS))
def test_a_request_for_information_in_a_subdialogue_ends_the_whole_dialogue(seed):
    depth, lines = NESTED_STALLS[seed]
    trace = Trace()
    t = run_scenario(random_scenario(random.Random(seed)), trace)
    assert (t.outcome, t.ratified_root, t.depth) == ("unresolved-needs-sharing", None, depth)
    # a concession inside the subdialogue settled nothing
    assert t.conceded_by is None
    assert t.realize() == lines
    assert t.acts[-1].kind is ActKind.INFO_SHARE_REQUEST
    # nothing is heard after the request: it is the last trace record
    last = json.loads(trace.to_ndjson().splitlines()[-1])
    assert (last["kind"], last["payload"]["act"]) == ("act", "info-share-request")


def test_disputed_correction_is_proposed_by_the_corrector():
    # P gives up m and rejects its own r, adopting ¬r derived from r alone.
    # Hearing E's correction ¬r, P scores it 2 to 2 and finds its own ¬r
    # baseless, so the ratification hearing abandons rather than accepts,
    # and E proposes ¬r itself
    scenario = dialogue(
        (
            "expert",
            [
                ("r", "warranted", {"derived": {"from": ["q"]}}),
                ("supports(r, ~r)", "strong"),
                ("x", "weak"),
                ("supports(x, r)", "strong"),
                ("supports(~r, r)", "weak"),
            ],
        ),
        (
            "non-expert",
            [
                ("~r", "warranted"),
                ("~m", "warranted"),
                ("y", "strong"),
                ("supports(y, ~m)", "strong"),
                ("supports(~m, ~r)", "weak"),
            ],
        ),
        ("r", "weak", [("m", "strong")]),
        ids=("P", "E"),
    )
    trace = Trace()
    t = run_scenario(scenario, trace)
    assert t.realize() == [
        "P: PROPOSE r ⊣ m",
        "E: INFORM ¬m",
        "E: INFORM y",
        "E: INFORM supports(y, ¬m)",
        "P: ACCEPT ¬m",
        "E: PROPOSE ¬r",
        "P: ACCEPT ¬r",
    ]
    assert (t.outcome, t.depth, t.rounds) == ("concession:P", 1, 3)
    assert t.ratified_root == parse_proposition("~r")
    # P hears ¬r once: the first round of E's proposal reuses the
    # ratification hearing rather than judging the same tree again
    heard = [
        (r.step, r.payload["outcome"], r.payload["supportScore"], r.payload["attackScore"])
        for r in trace.by_kind("revise")
        if r.payload["agent"] == "P" and r.payload["target"] == "¬r"
    ]
    assert heard == [(22, "abandon", 2, 2)]


# sha256 over disputed_correction_scenario seeds 0-999: for each run, its
# transcript lines, outcome, depth, rounds, ratified root and trace NDJSON
DISPUTED_DIGEST = "2cee13552ed7451dab28bbb858add04c41bd559da0c5c69100e7af5ee90c499d"


def test_seeded_disputed_corrections_are_pinned():
    # a disputed correction is the next round of its level: the corpus pins
    # what follows it, a concession, agreement, a stall or a counter one
    # level deeper
    digest, disputed = hashlib.sha256(), Counter()
    for seed in range(1000):
        trace = Trace()
        t = run_scenario(disputed_correction_scenario(random.Random(seed)), trace)
        lines = t.realize()
        root = "" if t.ratified_root is None else t.ratified_root.render()
        fields = ("\n".join(lines), t.outcome, str(t.depth), str(t.rounds), root)
        digest.update(("\0".join(fields) + "\0" + trace.to_ndjson()).encode("utf-8"))
        if sum(act.kind is ActKind.PROPOSE for act in t.acts) > 1:
            disputed[t.outcome.split(":")[0]] += 1
    assert sum(disputed.values()) >= 30
    assert {"concession", "agreement", "unresolved-needs-sharing"} <= disputed.keys()
    assert digest.hexdigest() == DISPUTED_DIGEST


# ---------------------------------------------------------------------------
# the three writers of a heard proposal against one write per belief


def seed_record_proposal(kb, tree, *, speaker, expertise):
    """``record_proposal`` as it was, with one model write per belief."""

    def note(kb, prop, endorsement):
        if kb.model_view().own_belief(prop) is not None:
            return kb
        return kb.model_add(Belief(prop, endorsement))

    def walk(kb, node):
        for child in node.children:
            kb = walk(kb, child)
            kb = note(
                kb,
                supports_prop(child.prop, node.prop),
                asserted(child.asserted_level, speaker, expertise),
            )
        if node.children:
            support = (child.prop for child in node.children)
            endorsement = Endorsement.derived(node.asserted_level, support)
        else:
            endorsement = asserted(node.asserted_level, speaker, expertise)
        return note(kb, node.prop, endorsement)

    return walk(kb, tree)


def seed_assimilate_evaluated(kb, evaluated):
    """``assimilate_evaluated`` as it was, with one ``assimilate`` per
    adopted proposition."""
    agreed = []

    def walk(kb, ev):
        for child, relation, verdict in zip(ev.children, ev.node.relations, ev.relation_verdicts):
            if child.accepted:
                kb = walk(kb, child)
            if verdict.outcome is VerdictOutcome.ACCEPT:
                agreed.append(relation)
                kb = assimilate(kb, verdict, relation)
        agreed.append(ev.prop)
        return assimilate(kb, ev.verdict, ev.prop)

    kb = walk(kb, evaluated)
    return kb, tuple(sorted(set(agreed)))


def seed_observe_acceptance(session, observer, acceptor, props):
    """``_observe_acceptance`` as it was, with one model write per belief."""
    expertise = session.kbs[acceptor].expertise
    level = ASSERTED_LEVEL[expertise]
    kb = session.kbs[observer]
    for prop in sorted(props):
        existing = kb.model_view().own_belief(prop)
        if existing is not None and existing.endorsement.level >= level:
            continue
        kb = kb.model_add(
            Belief(prop, asserted(level, acceptor, expertise))
        )
    session.kbs[observer] = kb


def assert_same_store(kb, expected):
    assert kb == expected
    assert_index_covers(kb)
    assert_index_covers(expected)


@settings(max_examples=200, deadline=None)
@given(proposal_trees(), st.sampled_from(Expertise), st.data())
def test_heard_proposal_writes_match_one_write_per_belief(tree, expertise, data):
    # each store holds some of the tree's propositions and relations, or
    # their negations, at any level, beside other beliefs
    about_tree = beliefs_about(tree.props())
    own, model, observed = (
        added_in_turn(data.draw(st.lists(st.one_of(about_tree, store_beliefs), max_size=10)))
        for _ in range(3)
    )
    kb = KnowledgeBase(own=own, user_model=model, expertise=expertise)
    heard = record_proposal(kb, tree, speaker=Speaker("u", expertise))
    assert_same_store(heard, seed_record_proposal(kb, tree, speaker="u", expertise=expertise))

    asserted = set(tree.props())
    if any(prop.negate() in asserted for prop in asserted):
        # a tree holding p in one branch and ¬p in another is not judged:
        # each branch would be judged against the same store, and adopting
        # both could leave one of them with nothing to adopt it from
        with pytest.raises(StructureError, match="asserts both"):
            evaluate_proposal(heard, tree, proposer=Speaker("u", expertise))
    else:
        evaluated = evaluate_proposal(heard, tree, proposer=Speaker("u", expertise))
        if evaluated.accepted:
            adopted, agreed = assimilate_evaluated(heard, evaluated)
            expected, expected_agreed = seed_assimilate_evaluated(heard, evaluated)
            assert agreed == expected_agreed
            assert_same_store(adopted, expected)

    # the speaker sees the hearer accept every proposition of the tree
    speaker = KnowledgeBase(own=(), user_model=observed, expertise=expertise)
    speakers = {"u": Speaker("u", expertise), "s": Speaker("s", expertise)}
    sessions = [
        _Session({"u": speaker, "s": kb}, speakers, NegotiationConfig(), Trace())
        for _ in range(2)
    ]
    _observe_acceptance(sessions[0], "u", "s", tree.props())
    seed_observe_acceptance(sessions[1], "u", "s", tree.props())
    assert_same_store(sessions[0].kbs["u"], sessions[1].kbs["u"])


# ---------------------------------------------------------------------------
# a call outside its contract names what it was called with


def _unaccepted_evaluation(prop):
    kb = KnowledgeBase(own=(Belief(prop.negate(), Endorsement.kb_record(StrengthLevel.WARRANTED)),))
    tree = ProposalNode(prop, StrengthLevel.WEAK)
    return kb, evaluate_proposal(kb, tree, proposer=Speaker("u", Expertise.NON_EXPERT))


CONTRACT_CALLS = {
    "negotiate": (
        lambda: negotiate(
            {name: KnowledgeBase(own=()) for name in ("ann", "bea", "cy")},
            "ann",
            ProposalNode(ground("p"), StrengthLevel.STRONG),
        ),
        ["'ann', 'bea', 'cy'", "proposer 'ann'"],
    ),
    # a wrong config or trace used to raise a raw AttributeError when the
    # session first read it
    "negotiate-config": (
        lambda: negotiate(
            {name: KnowledgeBase(own=()) for name in ("ann", "bea")},
            "ann",
            ProposalNode(ground("p"), StrengthLevel.STRONG),
            {"tau": 1},
        ),
        ["config must be a NegotiationConfig, got {'tau': 1}"],
    ),
    "negotiate-trace": (
        lambda: negotiate(
            {name: KnowledgeBase(own=()) for name in ("ann", "bea")},
            "ann",
            ProposalNode(ground("p"), StrengthLevel.STRONG),
            trace="out.ndjson",
        ),
        ["trace must be a Trace or None, got 'out.ndjson'"],
    ),
    "assimilate": (
        lambda: assimilate(
            KnowledgeBase(own=()), Verdict(VerdictOutcome.UNCERTAIN, 0, 0), ground("open")
        ),
        ["open(x)"],
    ),
    "assimilate_evaluated": (
        lambda: assimilate_evaluated(*_unaccepted_evaluation(ground("denied"))),
        ["denied(x)"],
    ),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_CALLS))
def test_contract_violations_name_their_arguments(name):
    call, named = CONTRACT_CALLS[name]
    with pytest.raises(ContractViolation) as caught:
        call()
    for text in named:
        assert text in str(caught.value)


@pytest.mark.parametrize(
    "target, cand",
    [(ground("lonely"), []), (ground("firm"), [ground("q")])],
    ids=["select_min_set-empty", "select_min_set-no-flip"],
)
def test_select_min_set_without_a_flipping_set_finds_none(target, cand):
    # no candidates, or a full set whose removal leaves the target standing,
    # is an answer of the search, not a broken precondition
    trace = Trace()
    assert select_min_set(target, cand, KnowledgeBase(own=()), trace=trace) is None
    assert trace.by_kind("minset") == []
