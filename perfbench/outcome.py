"""Pass/fail outcome of one benchmark op, and the checks that decide it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Outcome:
    ok: bool
    kind: str
    # name of the known defect this failure reproduces, or None
    known: str | None = None
    reason: str = ""


class OpFailure(Exception):
    """An output that is wrong by the mathematics or by the CLI contract."""


def require(cond, what):
    if not cond:
        raise OpFailure(what)


def close(got, want, tol, what):
    """max|got - want| <= tol * max(1, max|want|); NaN never passes."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not err <= tol * scale:
        raise OpFailure(f"{what}: off by {err:.3e}")
