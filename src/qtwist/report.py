"""Check records and campaign reports with deterministic serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

PASS = "pass"
FAIL = "fail"
WARN = "warn"

_encode_str = json.encoder.encode_basestring_ascii  # C-accelerated when available
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,
    type(None): lambda x: "null",
}


def _layout(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    With an indent, json.dumps runs json's pure-Python encoder.  Here only
    the nesting is laid out in Python; string leaves go to json's C string
    encoder.  Dict keys must be strings, as they are in a report.
    """
    enc = _LEAVES.get(type(obj))
    if enc is not None:
        return enc(obj)
    out: list = []
    _pieces(obj, pad, out)
    return "".join(out)


def _pieces(obj, pad: str, out: list) -> None:
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{\n" + inner
        for k in sorted(obj):
            v = obj[k]
            enc = _LEAVES.get(type(v))
            if enc is not None:
                out.append(sep + _encode_str(k) + ": " + enc(v))
            else:
                out.append(sep + _encode_str(k) + ": ")
                _pieces(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep = "[\n" + inner
        for x in obj:
            # one string per item keeps the piece list of a long list short
            out.append(sep + _layout(x, inner))
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(obj))


@dataclass
class CheckRecord:
    id: str
    family: str = ""
    i: Optional[int] = None
    j: Optional[int] = None
    lam: Optional[tuple] = None
    status: str = PASS
    scalar: str = ""
    witness: str = ""

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "family": self.family,
            "i": None if self.i is None else self.i + 1,
            "j": None if self.j is None else self.j + 1,
            "lambda": None if self.lam is None else list(self.lam),
            "status": self.status,
            "scalar": self.scalar,
        }
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    campaign: str
    datum: str = ""
    case: str = ""
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    def add(self, record: CheckRecord) -> CheckRecord:
        self.checks.append(record)
        return record

    def extend(self, records) -> None:
        self.checks.extend(records)

    def merge(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        self.elapsed_ms += other.elapsed_ms

    def finalize(self) -> "Report":
        self.checks.sort(key=lambda c: c.id)
        return self

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "warn": 0}
        for c in self.checks:
            counts[c.status] = counts.get(c.status, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return self.summary["fail"] == 0

    def failures(self) -> list:
        return [c for c in self.checks if c.status == FAIL]

    def identity_dict(self) -> dict:
        """Everything except wall-clock timing; the determinism contract."""
        from . import __version__

        return {
            "campaign": self.campaign,
            "datum": self.datum,
            "case": self.case,
            "engine": __version__,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }

    def to_dict(self, include_timing: bool = True) -> dict:
        out = self.identity_dict()
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def to_json(self, include_timing: bool = True) -> str:
        """json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True),
        byte for byte."""
        return _layout(self.to_dict(include_timing))

    def to_text(self) -> str:
        lines = ["campaign: %s  datum: %s  case: %s" % (self.campaign, self.datum, self.case)]
        for c in self.checks:
            line = "  [%s] %s" % (c.status.upper(), c.id)
            if c.scalar:
                line += "  scalar=%s" % c.scalar
            if c.witness:
                line += "  witness=%s" % c.witness
            lines.append(line)
        s = self.summary
        lines.append(
            "  summary: %d pass, %d fail, %d warn  (%d ms)"
            % (s["pass"], s["fail"], s["warn"], self.elapsed_ms)
        )
        return "\n".join(lines)
