"""parley: deterministic belief negotiation between two simulated agents."""

from .beliefs import (
    Belief,
    ContradictionError,
    ContractViolation,
    Endorsement,
    EvidencePiece,
    Expertise,
    KnowledgeBase,
    Proposition,
    SourceKind,
    Speaker,
    StrengthLevel,
    StructureError,
    Verdict,
    VerdictOutcome,
    assimilate,
    build_evidence_set,
    parse_proposition,
    revise,
    supports_prop,
)
from .evaluation import (
    EvaluatedNode,
    ProposalNode,
    assimilate_evaluated,
    evaluate_proposal,
    record_proposal,
    render_tree,
    validate_tree,
)
from .focus import predict, select_focus_modification
from .justification import (
    JustificationLink,
    NoSufficientJustification,
    build_justification_chains,
    hearer_accepts,
    select_justification,
)
from .negotiation import (
    ActKind,
    DepthExceededError,
    DiscourseAct,
    NegotiationConfig,
    Transcript,
    negotiate,
)
from .scenario import AgentSpec, Scenario, ScenarioError, parse_scenario, render_scenario
from .trace import Trace, TraceRecord

__version__ = "0.1.0"

