"""Three-valued verdicts for property decisions.

A Certified or Refuted verdict is a claim with provenance: the
certificate kind says which argument closed the case, and a refutation
always carries a witness that the caller has recechecked against the
property before emitting.  Inconclusive carries its search evidence so a
bigger budget can be tried.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


class RecheckFailed(AssertionError):
    """An independent recheck disagreed with the answer it was checking.

    Raised explicitly rather than by ``assert``, so it survives
    ``python -O``.
    """


def _recheck(ok: bool, message: str) -> None:
    """An explicit raise, so the recheck still runs under python -O."""
    if not ok:
        raise RecheckFailed(message)


CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass
class Verdict:
    status: str
    certificate: Optional[str] = None
    witness: Optional[Tuple] = None
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in (CERTIFIED, REFUTED, INCONCLUSIVE):
            raise ValueError(f"bad verdict status: {self.status!r}")
        if self.status == REFUTED and self.witness is None:
            raise ValueError("a refutation must carry a witness")

    @classmethod
    def certified(cls, certificate: str, **evidence) -> "Verdict":
        return cls(CERTIFIED, certificate=certificate, evidence=evidence)

    @classmethod
    def refuted(cls, witness: Tuple, **evidence) -> "Verdict":
        return cls(REFUTED, witness=tuple(witness), evidence=evidence)

    @classmethod
    def inconclusive(cls, **evidence) -> "Verdict":
        return cls(INCONCLUSIVE, evidence=evidence)

    @property
    def is_certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def is_refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def is_inconclusive(self) -> bool:
        return self.status == INCONCLUSIVE

    def exit_code(self) -> int:
        return {CERTIFIED: 0, REFUTED: 1, INCONCLUSIVE: 2}[self.status]

    def to_json_dict(self, field_desc=None) -> dict:
        witness = None
        if self.witness is not None:
            witness = _witness_json(self.witness, field_desc)
        return {
            "status": self.status,
            "certificate": self.certificate,
            "witness": witness,
            "evidence": {k: _jsonable(v) for k, v in sorted(self.evidence.items())},
        }


def _witness_json(v, field_desc):
    """Scalars through the field's canonical writer; tuples recursively
    (a witness may be a vector, a pair of vectors, or a row list)."""
    if isinstance(v, (list, tuple)):
        return [_witness_json(x, field_desc) for x in v]
    if field_desc is not None and field_desc.contains(v):
        return field_desc.to_str(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)
