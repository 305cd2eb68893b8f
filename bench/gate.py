"""Correctness gate: every benchmark operation is checked against a reference.

A faster wrong answer must count as a failure, so each check returns a list
of failure messages (empty when the operation passed).  The references are
the analytic values pinned by the acceptance tests:

* ``ex1_twosided``: boundary pair (0.5, 2.5);
* ``ex1_onesided``: lower-edge interval ]0, sqrt(2 (4 - (19/30)^2))];
* ``ex2_right``: two intervals, the first with pair (sqrt(3) - 1, sqrt(3) + 1);
* ``ex2_left``: one merged interval (a, a + 4), a = -2 + sqrt(4 + 4 / rhs),
  rhs = 1 + 2/2.5 - 2/3.5, pinned at 1e-4;
* the two-barrier hitting probability of the criterion-6 problem, 2/3.
"""

from __future__ import annotations

import math

from stopflow.intervals import Kind

SQ3 = math.sqrt(3.0)
_RHS = 1.0 + 2.0 / 2.5 - 2.0 / 3.5
_EX2_LEFT_A = -2.0 + math.sqrt(4.0 + 4.0 / _RHS)

# config -> reference (a, b) per interval, None where no analytic value exists
REFERENCES = {
    "ex1_twosided": [(0.5, 2.5)],
    "ex1_onesided": [(0.0, math.sqrt(2.0 * (4.0 - (19.0 / 30.0) ** 2)))],
    "ex2_right": [(SQ3 - 1.0, SQ3 + 1.0), None],
    "ex2_left": [(_EX2_LEFT_A, _EX2_LEFT_A + 4.0)],
}
CLOSED_TOL = {"ex2_left": 1e-4}   # default 1e-6
NUMERICAL_TOL = 1e-3              # against the reference and the closed form
HIT_PROB = 2.0 / 3.0
Z_LIMIT = 3.0


def boundary_failures(name: str, mode: str, res, closed=None) -> tuple[list[str], float]:
    """Interval count, endpoint kinds and boundary positions of one solve.

    ``closed`` holds the closed-form (a, b) pairs of the same config; a
    numerical solve must agree with them within 1e-3 as well.  Returns the
    failures and the largest |boundary - reference| seen.
    """
    refs = REFERENCES[name]
    tol = NUMERICAL_TOL if mode == "numerical" else CLOSED_TOL.get(name, 1e-6)
    if len(res) != len(refs):
        return [f"{name}: {len(res)} intervals, expected {len(refs)}"], math.inf
    fails: list[str] = []
    if closed is not None and len(closed) != len(res):
        fails.append(f"{name}: closed form has {len(closed)} intervals")
        closed = None
    err_max = 0.0
    for i, (mi, ref) in enumerate(zip(res, refs)):
        edge_lo = name == "ex1_onesided"
        if (mi.a_kind is Kind.DOMAIN_EDGE) != edge_lo or mi.b_kind is not Kind.INTERIOR:
            fails.append(f"{name}[{i}]: endpoint kinds {mi.a_kind.value}, {mi.b_kind.value}")
        if ref is not None:
            err = max(abs(mi.a - ref[0]), abs(mi.b - ref[1]))
            err_max = max(err_max, err)
            if not err <= tol:
                fails.append(f"{name}[{i}]: ({mi.a!r}, {mi.b!r}) misses {ref} by {err:.3g}")
        if closed is not None:
            a_c, b_c = closed[i]
            err = max(abs(mi.a - a_c), abs(mi.b - b_c))
            if not err <= NUMERICAL_TOL:
                fails.append(f"{name}[{i}]: {err:.3g} from the closed form")
    return fails, err_max


def certificate_failures(name: str, problem, res) -> list[str]:
    """Every boundary curve must be globally nonnegative up to the floor."""
    fails = []
    for i, mi in enumerate(res):
        floor = -problem.tol.nonneg_tol * mi.curve.scale()
        if not mi.certificate.global_min >= floor:
            fails.append(f"{name}[{i}]: certificate min {mi.certificate.global_min:.3g} "
                         f"below {floor:.3g}")
    return fails


def hjb_failures(name: str, problem, vf, rep) -> list[str]:
    """The variational-inequality report must pass at the problem's tolerances."""
    scale = max((mi.curve.scale() for mi in vf.intervals), default=1.0)
    if rep.passed(problem.tol.hjb_tol, problem.tol.nonneg_tol, scale):
        return []
    return [f"{name}: HJB check failed (continue {rep.max_violation_continue:.3g}, "
            f"stop {rep.max_violation_stop:.3g}, min V {rep.min_v:.3g})"]


def exit_code_failures(name: str, rc: int) -> list[str]:
    return [] if rc == 0 else [f"{name}: verify exited with {rc}"]


def z_score(estimate: float, std_error: float, reference: float) -> float:
    if not std_error > 0.0:
        return 0.0 if estimate == reference else math.inf
    return (estimate - reference) / std_error


def mc_failures(label: str, z: float, confirm) -> list[str]:
    """|z| > 3 against the reference, confirmed on an independent estimate.

    A run makes three of these checks and a regression comparison makes
    dozens of runs, so a bare 3-sigma test would fail a correct program by
    chance in a sizeable share of comparisons.  An outlier is therefore re-estimated once with independent
    seeds (``confirm`` returns the new z); it fails only when the second
    estimate is also beyond 3 sigma on the same side, which a correct
    program does with probability below 4e-6 per check.
    """
    if abs(z) <= Z_LIMIT:
        return []
    z2 = confirm()
    if abs(z2) > Z_LIMIT and (z2 > 0) == (z > 0):
        return [f"{label}: Monte Carlo z = {z:+.2f}, confirmed at {z2:+.2f}"]
    return []
