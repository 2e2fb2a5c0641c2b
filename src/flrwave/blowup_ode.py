"""Comparison ODE F'' + (mu/t) F' = A1 (t+R)^(-q) |F|^p: blow-up runs and
lifespan scaling fits.

The ODE is the equality version of the comparison-lemma hypothesis and is
used as the extremal generator of blow-up trajectories: integrate from t = 1
with F(1), F'(1) proportional to eps, detect the finite-time blow-up, sweep
eps, and fit log T against log eps.  For the heatlike wiring
q = n(1-alpha)(p-1) the fitted slope is expected near
-(p-1)/(2 - n(1-alpha)(p-1)); at q = 2 the lifespan grows superpolynomially
in 1/eps and log T is convex in log(1/eps).

scipy is imported lazily: ``integrate`` binds the module attribute
``solve_ivp`` from ``scipy.integrate`` on its first call.  Importing scipy
costs more than half a second and about 45 MB, and only the ``ode`` commands
integrate; ``pde`` needs only ``fit_loglog`` and the other commands nothing
from here, so they start without it.  Tests replace ``solve_ivp`` through
the same attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

solve_ivp = None  # scipy.integrate.solve_ivp, bound by the first ``integrate``

__all__ = [
    "OdeConfig",
    "OdeResult",
    "FitResult",
    "integrate",
    "monotone_invariant_check",
    "fit_loglog",
    "fit_lifespans",
    "sweep",
    "predicted_slope",
    "kato_consistency_check",
    "convexity_margin",
]


@dataclass(frozen=True)
class OdeConfig:
    """One comparison-ODE run.

    Initial data F(1) = eps * F_init_scale, F'(1) = eps * dF_init_scale.
    Blow-up is declared when F crosses ``blowup_threshold``; with p <= 3 the
    remaining time to the actual singularity beyond that crossing is
    negligible at the default threshold.
    """

    p: float
    mu: float
    q: float
    A1: float = 1.0
    R: float = 1.0
    F_init_scale: float = 1.0
    dF_init_scale: float = 1.0
    eps: float = 1.0
    blowup_threshold: float = 1e12
    t_max: float = 1e6
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (self.mu >= 0.0 and self.q >= 0.0):
            raise ValueError("mu and q must be nonnegative")
        if not (self.A1 > 0.0 and self.R >= 0.0):
            raise ValueError("require A1 > 0 and R >= 0")
        if not (self.eps >= 0.0 and self.F_init_scale >= 0.0 and self.dF_init_scale >= 0.0):
            raise ValueError("eps and initial-data scales must be nonnegative")
        if not self.blowup_threshold > self.eps * self.F_init_scale:
            raise ValueError("blow-up threshold must exceed the initial data")
        if not 1.0 < self.t_max < math.inf:
            raise ValueError(
                f"t_max must be finite and exceed the initial time 1, got {self.t_max}"
            )
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("integrator tolerances must be positive")


@dataclass
class OdeResult:
    """Outcome of one run: blow-up flag, lifespan estimate, accepted-step trace."""

    blew_up: bool
    T_num: float
    t: np.ndarray
    F: np.ndarray
    dF: np.ndarray
    termination: str  # "threshold" | "horizon" | "step_underflow" | "solver_failure"


def integrate(cfg: OdeConfig) -> OdeResult:
    """Adaptive explicit integration from t = 1 until threshold crossing,
    horizon, or solver failure.

    The threshold crossing is bracketed by the accepted steps and refined by
    root-finding on the step interpolant, so T_num is resolved well below
    the step size.  A solver failure is a blow-up ("step_underflow") only
    while F is within 1e-3 of the threshold and rising, else "solver_failure".
    """
    global solve_ivp
    if solve_ivp is None:
        from scipy.integrate import solve_ivp

    def rhs(t, y):
        f, df = y
        return (
            df,
            cfg.A1 * (t + cfg.R) ** (-cfg.q) * abs(f) ** cfg.p - cfg.mu * df / t,
        )

    def crossing(t, y):
        return y[0] - cfg.blowup_threshold

    crossing.terminal = True
    crossing.direction = 1.0

    y0 = [cfg.eps * cfg.F_init_scale, cfg.eps * cfg.dF_init_scale]
    sol = solve_ivp(
        rhs,
        (1.0, cfg.t_max),
        y0,
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        events=crossing,
    )
    t = np.asarray(sol.t)
    F = np.asarray(sol.y[0])
    dF = np.asarray(sol.y[1])
    if sol.status == 1:
        return OdeResult(True, float(sol.t_events[0][0]), t, F, dF, "threshold")
    if sol.status == 0:
        return OdeResult(False, cfg.t_max, t, F, dF, "horizon")
    ramping = bool(F[-1] >= 1e-3 * cfg.blowup_threshold and dF[-1] > 0.0)
    termination = "step_underflow" if ramping else "solver_failure"
    return OdeResult(ramping, float(t[-1]), t, F, dF, termination)


def monotone_invariant_check(res: OdeResult, mu: float) -> bool:
    """Verify that t^mu F'(t) is nondecreasing along the trace.

    The ODE gives (t^mu F')' = t^mu * RHS >= 0, so any decrease beyond a
    relative 1e-8 per step indicates an integration artifact.
    """
    if res.t.size == 0:
        raise ValueError("empty trace")
    g = res.t**mu * res.dF
    return bool(np.all(g[1:] >= g[:-1] - 1e-8 * np.abs(g[:-1])))


@dataclass
class FitResult:
    """Least-squares fit of log T against log eps."""

    slope: float
    intercept: float
    r_squared: float
    eps_values: list
    T_values: list


MIN_FIT_POINTS = 4  # fewest sweep points fit_loglog accepts


def fit_loglog(eps_values: Sequence[float], T_values: Sequence[float]) -> FitResult:
    eps = [float(e) for e in eps_values]
    T = [float(v) for v in T_values]
    if len(eps) != len(T):
        raise ValueError("eps and lifespan lists differ in length")
    if len(set(eps)) != len(eps):
        raise ValueError("duplicate eps values make the fit degenerate")
    if len(eps) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} sweep points for a fit, got {len(eps)}")
    x = np.log(np.asarray(eps))
    y = np.log(np.asarray(T))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 0.0
    return FitResult(float(slope), float(intercept), r2, eps, T)


def fit_lifespans(t_max: float, eps: Sequence[float], results: Sequence) -> FitResult:
    """Fit the lifespans ``T_num`` of ``results``, the runs of ``eps``, against
    eps.  Every run must have blown up before ``t_max``; otherwise the
    offending eps values are reported and no fit is produced."""
    stalled = [e for e, r in zip(eps, results) if not r.blew_up]
    if stalled:
        raise RuntimeError(
            f"no blow-up before t_max={t_max} for eps={stalled}; "
            "increase the horizon or the data size"
        )
    return fit_loglog(eps, [r.T_num for r in results])


def sweep(cfg: OdeConfig, eps_grid: Sequence[float]) -> FitResult:
    """Run ``cfg`` across ``eps_grid`` and fit the lifespans (``fit_lifespans``)."""
    eps = [float(e) for e in eps_grid]
    return fit_lifespans(cfg.t_max, eps, [integrate(replace(cfg, eps=e)) for e in eps])


def predicted_slope(p: float, q: float) -> float:
    """Asymptotic log T / log eps slope -(p-1)/(2-q) of the subcritical
    comparison lemma with the standard wiring (a = mu + q, b = mu + 2)."""
    if q >= 2.0:
        raise ValueError(f"power-type scaling requires q < 2, got q={q}")
    return -(p - 1.0) / (2.0 - q)


def kato_consistency_check(fit: FitResult, p: float, q: float) -> tuple[bool, list[float]]:
    """Upper-envelope check T(eps) <= K eps^(-s), s = (p-1)/(2-q).

    K is calibrated on the largest-eps run (where the inequality is tight by
    construction); the lemma's upper-bound character requires every smaller
    eps to stay below the envelope, up to a margin of -1e-9.  Returns
    (ok, margins) with margin = K eps^(-s) / T - 1 per run.
    """
    s = -predicted_slope(p, q)
    pairs = sorted(zip(fit.eps_values, fit.T_values))
    e_max, T_anchor = pairs[-1]
    K = T_anchor * e_max**s
    margins = [K * e ** (-s) / T - 1.0 for e, T in pairs]
    return all(m >= -1e-9 for m in margins), margins


def convexity_margin(eps_values: Sequence[float], T_values: Sequence[float]) -> float:
    """Minimum second difference of log T over the uniform log(1/eps) grid.

    A nonnegative (up to tolerance) margin means log T grows convexly in
    log(1/eps), the signature of superpolynomial lifespan growth.
    """
    pairs = sorted(zip(eps_values, T_values), key=lambda et: -et[0])
    if len(pairs) < 3:
        raise ValueError("need at least 3 points for second differences")
    x = np.array([math.log(1.0 / e) for e, _ in pairs])
    gaps = np.diff(x)
    if np.any(np.abs(gaps - gaps[0]) > 1e-6 * abs(gaps[0])):
        raise ValueError("eps grid must be uniform in log scale")
    y = np.array([math.log(T) for _, T in pairs])
    d2 = y[2:] - 2.0 * y[1:-1] + y[:-2]
    return float(d2.min())
