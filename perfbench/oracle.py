"""Independent oracle for CLI reports.

Expected verdicts come from the theory (README.md), never from stored
output, and failure witnesses are re-checked here with this file's own
arithmetic: Fraction ranks for rays and set arithmetic on valuations for
propositional theories.  Nothing here imports the program.
"""

from __future__ import annotations

import json
from fractions import Fraction

HOLDS = ("pass", "sampled_pass")


def rank(rows):
    """Rank of a list of rational row vectors, by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _contains(generators, v):
    return rank(list(generators) + [v]) == rank(generators)


def _ray(text, dim):
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"not a nonzero ray: {text!r}")
    v = [int(p) for p in text[1:-1].split(",")]
    if len(v) != dim or not any(v):
        raise ValueError(f"not a nonzero ray of Q^{dim}: {text!r}")
    return v


def _theory(text):
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a theory: {text!r}")
    return frozenset(p for p in text[1:-1].split(",") if p)


def witness_error(model, prop, witness):
    """Why a failure witness does not show a violation, or None if it does."""
    if model.kind == "ray":
        dim = len(next(g for gens in model.subspaces.values() for g in gens))
        family = list(model.subspaces.values())
        if prop == "separability":
            x, y = (_ray(w, dim) for w in witness)
            if rank([x, y]) < 2:
                return "the two rays coincide"
            if any(_contains(g, x) and not _contains(g, y) for g in family):
                return "a listed subspace contains x but not y"
            return None
        if prop == "strong_separability":
            (x,) = (_ray(w, dim) for w in witness)
            if any(len(g) == 1 and _contains(g, x) for g in family):
                return "a listed line is the point measurement of x"
            return None
    if model.kind == "propositional":
        # all_theories: every valuation set S is a measurement x -> x & S.
        if prop == "separability":
            x, y = (_theory(w) for w in witness)
            if not x or not y or x == y:
                return "states must be distinct and consistent"
            if not y <= x:
                return "the measurement for x's own model set separates them"
            return None
        if prop == "strong_separability":
            (x,) = (_theory(w) for w in witness)
            if len(x) < 2:
                return "a single valuation has its point measurement"
            return None
    return f"no witness rule for {prop} on a {model.kind} model"


def judge(op, code, stdout, stderr, timed_out):
    """Return (ok, wrong, reason).

    ``ok`` is false for any failed operation: a timeout, a traceback, an
    unexpected exit code or a report this oracle rejects.  ``wrong`` marks a
    verdict or refusal that contradicts the oracle, as opposed to a crash.
    """
    if timed_out:
        return False, False, "timed out"
    if "Traceback (most recent call last)" in stderr:
        return False, False, "traceback: " + stderr.strip().splitlines()[-1][:200]
    if code != op.exit_code:
        return False, code in (0, 1, 2, 3), f"exit {code}, expected {op.exit_code}"
    if op.exit_code >= 2:
        if stdout.strip():
            return False, True, "a refusal printed a report"
        return True, False, ""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return False, True, "report is not JSON"
    if not isinstance(report, dict):
        return False, True, "report is not a JSON object"
    reason = _report_error(op, report)
    return reason is None, reason is not None, reason or ""


def _report_error(op, report):
    model = op.model
    summary = report.get("model", {})
    if summary.get("kind") != model.kind:
        return f"model kind {summary.get('kind')!r}, expected {model.kind!r}"
    if model.measurements is not None and summary.get("measurements") != model.measurements:
        return f"{summary.get('measurements')} measurements, expected {model.measurements}"
    if model.states is not None and summary.get("states") != model.states:
        return f"{summary.get('states')} states, expected {model.states}"
    checks = report.get("checks", [])
    got = tuple(c.get("property") for c in checks)
    if got != op.checks:
        return f"checks {got}, expected {op.checks}"
    for c in checks:
        prop, status, witnesses = c["property"], c["status"], c["witnesses"]
        if prop in op.fails:
            if status != "fail" or not witnesses:
                return f"{prop} is {status}, expected a failure with witnesses"
            for w in witnesses:
                try:
                    error = witness_error(model, prop, w)
                except ValueError as exc:
                    error = str(exc)
                if error:
                    return f"{prop} witness {w}: {error}"
            continue
        allowed = HOLDS + ("vacuous",) if op.vacuous_ok else HOLDS
        if status not in allowed:
            return f"{prop} is {status}, expected it to hold"
        if c.get("advisory"):
            return f"{prop} is advisory on an algebra that passes the defining laws"
    overall = "fail" if op.fails else "pass"
    if report.get("overall") != overall:
        return f"overall {report.get('overall')!r}, expected {overall!r}"
    return None
