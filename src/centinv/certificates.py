"""Structured verification outcomes.

Every check run by the toolkit produces a certificate: the claim being
verified, an exact PASS/FAIL status (tolerance is always exact), and a
machine-readable witness payload.  Resource refusals (symbolic budget)
are ERROR certificates so the remaining commands still run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"


def jsonable(value):
    """Recursively convert witnesses to JSON-safe values; rationals to 'p/q'."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class Certificate:
    claim: str
    status: str
    partition: str
    algebra: str
    witnesses: dict = field(default_factory=dict)
    error_kind: str | None = None

    def to_json(self) -> dict:
        out = {
            "claim": self.claim,
            "status": self.status,
            "partition": self.partition,
            "algebra": self.algebra,
            "tolerance": "exact",
            "witnesses": jsonable(self.witnesses),
        }
        if self.error_kind:
            out["error_kind"] = self.error_kind
        return out
