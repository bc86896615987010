"""Structured pass/fail records for every verification, serializable to JSON."""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


def _format_value(v):
    """Fixed-precision float formatting so reports are byte-reproducible;
    non-finite floats become None (JSON null)."""
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return float(f"{v:.12e}") if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _format_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_format_value(x) for x in v]
    return v


@dataclass
class VerificationReport:
    check: str
    gamma: str
    n: int
    status: str = "pass"
    max_rel_err: float = 0.0
    details: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def record(self, ok: bool, rel_err: float = 0.0, detail=None):
        """Fold in one sub-check; any failure or non-finite error flips the
        whole report, and a nan error stays the maximum once recorded."""
        if not ok or not math.isfinite(rel_err):
            self.status = "fail"
        if math.isnan(rel_err) or rel_err > self.max_rel_err:
            self.max_rel_err = rel_err
        if detail is not None:
            self.details.append(detail)

    def fail(self, detail):
        self.record(False, detail=detail)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "check": self.check,
            "gamma": self.gamma,
            "n": self.n,
            "status": self.status,
            "max_rel_err": _format_value(self.max_rel_err),
            "details": _format_value(self.details),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_atomic(path: str, data: bytes):
    """Write via a sibling temp file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-fractrace-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def reports_to_csv(reports) -> str:
    """Flat CSV mirror of the JSON reports (scalar fields only); a
    non-finite max_rel_err is written as nan."""
    lines = ["schema,check,gamma,n,status,max_rel_err"]
    for r in reports:
        d = r.to_dict()
        err = d["max_rel_err"]
        err = "nan" if err is None else f"{err:.12e}"
        lines.append(f"{d['schema']},{d['check']},{d['gamma']},{d['n']},{d['status']},{err}")
    return "\n".join(lines) + "\n"
