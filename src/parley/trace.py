"""Machine-readable decision trace: ordered records explaining every verdict."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

TRACE_KINDS = ("revise", "predict", "foci", "minset", "heuristic", "recipe", "act")

# what json.dumps(..., sort_keys=True, ensure_ascii=False) builds on every
# call; an encoder keeps no state between calls, so one serves every record
_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


@dataclass(frozen=True)
class TraceRecord:
    step: int
    kind: str
    payload: dict[str, Any]

    def to_json(self) -> str:
        return _ENCODER.encode({"step": self.step, "kind": self.kind, "payload": self.payload})


@dataclass
class Trace:
    """Append-only record collector with contiguous step ordinals."""

    records: list[TraceRecord] = field(default_factory=list)

    def emit(self, kind: str, **payload: Any) -> TraceRecord:
        if kind not in TRACE_KINDS:
            raise ValueError(f"unknown trace kind: {kind}")
        record = TraceRecord(step=len(self.records), kind=kind, payload=payload)
        self.records.append(record)
        return record

    def by_kind(self, kind: str) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def to_ndjson(self) -> str:
        return "".join(r.to_json() + "\n" for r in self.records)
