"""Check records and campaign reports with deterministic serialization."""

from __future__ import annotations

import json
import time
from collections import Counter
from operator import attrgetter

PASS = "pass"
FAIL = "fail"
WARN = "warn"

_encode_str = json.encoder.encode_basestring_ascii  # C-accelerated when available
_id = attrgetter("id")
_status = attrgetter("status")

# One check record of Report.to_json, its keys in sorted order, laid out at
# the depth of the "checks" list; "witness" goes out only when non-empty.
_RECORD = (
    '%s\n    {\n      "family": %s,\n      "i": %s,\n      "id": %s,\n      "j": %s,'
    '\n      "lambda": %s,\n      "scalar": %s,\n      "status": %s'
)
_RECORD_END = _RECORD + "\n    }"
_RECORD_WITNESS = _RECORD + ',\n      "witness": %s\n    }'


class CheckRecord:
    __slots__ = ("id", "family", "i", "j", "lam", "status", "scalar", "witness")

    def __init__(self, id: str, family: str = "", i: int | None = None,
                 j: int | None = None, lam: tuple | None = None, status: str = PASS,
                 scalar: str = "", witness: str = ""):
        self.id = id
        self.family = family
        self.i = i
        self.j = j
        self.lam = lam
        self.status = status
        self.scalar = scalar
        self.witness = witness

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


class Report:
    __slots__ = ("campaign", "datum", "case", "checks", "elapsed_ms", "started")

    def __init__(self, campaign: str, datum: str = "", case: str = "",
                 checks: list | None = None, elapsed_ms: int = 0):
        self.campaign = campaign
        self.datum = datum
        self.case = case
        self.checks = [] if checks is None else checks
        self.elapsed_ms = elapsed_ms
        # time.monotonic() when the report was made; finalize measures from it
        self.started = time.monotonic()

    def add(self, record: CheckRecord) -> CheckRecord:
        self.checks.append(record)
        return record

    def extend(self, records) -> None:
        self.checks.extend(records)

    def merge(self, other: "Report") -> None:
        """Take other's checks; its time was spent inside this report's span."""
        self.checks.extend(other.checks)

    def finalize(self) -> "Report":
        """Sort the checks and set elapsed_ms to the wall time since the
        report was made."""
        self.checks.sort(key=_id)
        self.elapsed_ms = int((time.monotonic() - self.started) * 1000)
        return self

    @property
    def summary(self) -> dict:
        """Records per status: pass, fail and warn, then any other status in
        order of first appearance, counted in one pass (Counter)."""
        counts = {PASS: 0, FAIL: 0, WARN: 0}
        counts.update(Counter(map(_status, self.checks)))
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
        byte for byte, from fixed templates in one join.

        The document's keys are fixed, so they go out in sorted order without
        sorting; strings go to json's C string encoder, and each distinct
        lambda is laid out once per call.
        """
        from . import __version__

        enc = _encode_str
        lams = {None: "null", (): "[]"}
        parts = ['{\n  "campaign": ', enc(self.campaign), ',\n  "case": ', enc(self.case),
                 ',\n  "checks": [']
        sep = ""
        for c in self.checks:
            lam = lams.get(c.lam)
            if lam is None:
                lam = lams[c.lam] = "[\n        %s\n      ]" % ",\n        ".join(map(str, c.lam))
            fields = (sep, enc(c.family), "null" if c.i is None else c.i + 1, enc(c.id),
                      "null" if c.j is None else c.j + 1, lam, enc(c.scalar), enc(c.status))
            if c.witness:
                parts.append(_RECORD_WITNESS % (*fields, enc(c.witness)))
            else:
                parts.append(_RECORD_END % fields)
            sep = ","
        parts += ["\n  ]" if self.checks else "]", ',\n  "datum": ', enc(self.datum)]
        if include_timing:
            parts += [',\n  "elapsed_ms": ', str(self.elapsed_ms)]
        parts += [',\n  "engine": ', enc(__version__), ',\n  "summary": {']
        parts += [",".join("\n    %s: %d" % (enc(k), n) for k, n in sorted(self.summary.items())),
                  "\n  }\n}"]
        return "".join(parts)

    def to_text(self, include_timing: bool = True) -> str:
        lines = ["campaign: %s  datum: %s  case: %s" % (self.campaign, self.datum, self.case)]
        for c in self.checks:
            line = "  [%s] %s" % (c.status.upper(), c.id)
            if c.scalar:
                line += "  scalar=%s" % c.scalar
            if c.witness:
                line += "  witness=%s" % c.witness
            lines.append(line)
        s = self.summary
        line = "  summary: %d pass, %d fail, %d warn" % (s["pass"], s["fail"], s["warn"])
        if include_timing:
            line += "  (%d ms)" % self.elapsed_ms
        lines.append(line)
        return "\n".join(lines)
