"""Three-valued verdicts for property decisions.

A Certified or Refuted verdict is a claim with provenance: the
certificate kind says which argument closed the case, and a refutation
always carries a witness that the caller has recechecked against the
property before emitting.  Inconclusive carries its search evidence so a
bigger budget can be tried.
"""
from __future__ import annotations

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


class _Record:
    """A plain slotted record: equal to a record of the same class with
    equal slots, and shown as ``Class(slot=value, ...)`` in slot order."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Verdict(_Record):
    __slots__ = ("status", "certificate", "witness", "evidence")

    def __init__(
        self,
        status: str,
        certificate: Optional[str] = None,
        witness: Optional[Tuple] = None,
        evidence: Optional[dict] = None,
    ):
        if status not in (CERTIFIED, REFUTED, INCONCLUSIVE):
            raise ValueError(f"bad verdict status: {status!r}")
        if status == REFUTED and witness is None:
            raise ValueError("a refutation must carry a witness")
        self.status = status
        self.certificate = certificate
        self.witness = witness
        self.evidence = {} if evidence is None else evidence

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
