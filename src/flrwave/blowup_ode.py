"""Comparison ODE F'' + (mu/t) F' = A1 (t+R)^(-q) |F|^p: blow-up runs and
lifespan scaling fits.

The ODE is the equality version of the comparison-lemma hypothesis and is
used as the extremal generator of blow-up trajectories: integrate from t = 1
with F(1), F'(1) proportional to eps, detect the finite-time blow-up, sweep
eps, and fit log T against log eps.  For the heatlike wiring q = n(1-alpha)(p-1)
the fitted slope is expected near -(p-1)/(2 - n(1-alpha)(p-1)); at q = 2 the
lifespan grows superpolynomially in 1/eps and log T is convex in log(1/eps).
Each check takes what it judges, a run or a sweep's runs, with its config.

The integrator, ``_dopri45``, is the Dormand-Prince 5(4) pair on Python
floats.  It makes every choice of scipy's ``RK45`` that affects the answer
(Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4), so both take the same
accepted steps and end the same way:

* the Dormand-Prince tableau, error weights and quartic dense output;
* the Hairer-Norsett-Wanner starting step for an order-4 error estimate;
* the step controller: RMS error norm with scale
  ``abs_tol + max(|y|, |y_new|) * rel_tol`` (``OdeConfig`` refuses a
  ``rel_tol`` below RK45's floor of 100 eps, or at or above 1, where a step
  may err by as much as the solution itself), step factor
  ``0.9 * err^(-1/5)`` clamped to [0.2, 10], no growth right after a
  rejection, a NaN error counted as a rejection, and a step collapse once
  the step falls below 10 ulp(t);
* the event rule: an upward crossing of ``blowup_threshold`` by F during an
  accepted step is located on the step's quartic interpolant by bisection
  to 4 eps, and the crossing time and the state there end the trace.

Float digits differ from scipy's in the last places (numpy's stage sums
round differently); accepted steps and endings agree.  No scipy is needed:
a step on two floats costs a few microseconds instead of the ~100 of
scipy's generic array machinery.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

__all__ = [
    "OdeConfig",
    "OdeResult",
    "FitResult",
    "integrate",
    "monotone_invariant_check",
    "fit_lifespans",
    "sweep_eps",
    "sweep",
    "predicted_slope",
    "kato_consistency_check",
    "convexity_margin",
]

# RK45's floor for the relative tolerance; a smaller rel_tol is refused.
MIN_REL_TOL = 100 * sys.float_info.epsilon
# ln of the largest float; exp of anything above it overflows
LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class OdeConfig:
    """One comparison-ODE run.

    Initial data F(1) = eps * F_init_scale, F'(1) = eps * dF_init_scale.
    Blow-up is declared when F crosses ``blowup_threshold``; with p <= 3 the
    remaining time to the actual singularity beyond that crossing is
    negligible at the default threshold.  Above p = 3 the step can collapse
    first, at a smaller F the larger p is (``ode run``'s defaults with only
    p changed: F ~ 4e10 at p 3.5, 6.2e8 at p 4, 3.7e6 at p 5).  Within 1e-3
    of the threshold that is still a blow-up (p 3.5 ends by
    ``step_underflow``); below it, a ``solver_failure`` (p 4 and 5).  A
    threshold under the collapse (1e8 at p 4, 1e6 at p 5) is crossed at the
    same instant, to 1e-12 relative.
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
        if not (MIN_REL_TOL <= self.rel_tol < 1.0 and self.abs_tol > 0.0):
            raise ValueError(
                f"rel_tol must be at least {MIN_REL_TOL!r} (100 eps) and below 1, and "
                f"abs_tol positive, got rel_tol={self.rel_tol!r}, abs_tol={self.abs_tol!r}"
            )


@dataclass
class OdeResult:
    """Outcome of one run: lifespan estimate, accepted-step trace, ending, config."""

    T_num: float
    t: np.ndarray
    F: np.ndarray
    dF: np.ndarray
    termination: str  # "threshold" | "horizon" | "step_underflow" | "solver_failure"
    config: OdeConfig

    @property
    def blew_up(self) -> bool:
        return self.termination in ("threshold", "step_underflow")


# Dormand-Prince 5(4) as in scipy's RK45: nodes, stage weights, solution
# weights, error weights (the 7th stage is the derivative at the new point,
# reused as the next step's first) and Shampine's dense-output matrix.
DP_C = (0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1)
DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
DP_B = (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
DP_E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
DP_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
EVENT_TOL = 4 * sys.float_info.epsilon  # bisection width, relative to 1 + t


def _rms(x: float, y: float) -> float:
    return math.sqrt(x * x + y * y) / 2**0.5


def _dopri45(cfg: OdeConfig) -> tuple[str, list[tuple[float, float, float]]]:
    """Integrate y = (F, F') from t = 1 and return the ending ("threshold",
    "horizon" or "collapse") and the trace (t, F, F') of the accepted steps.

    Stage i holds F' = v_i and F'' = a_i; stage 1 is the current point
    (v, a) and stage 7 the new one.  Zero tableau entries are skipped.
    """
    A1, R, mq, p, mu = cfg.A1, cfg.R, -cfg.q, cfg.p, cfg.mu
    rtol, atol, t_max, thr = cfg.rel_tol, cfg.abs_tol, cfg.t_max, cfg.blowup_threshold
    _, c2, c3, c4, c5, _ = DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = DP_A
    b1, _, b3, b4, b5, b6 = DP_B
    e1, _, e3, e4, e5, e6, e7 = DP_E

    def acc(t, f, v):  # F''; |F|^p overflows to inf, as in numpy
        try:
            fp = abs(f) ** p
        except OverflowError:
            fp = math.inf
        return A1 * (t + R) ** mq * fp - mu * v / t

    t, f, v = 1.0, cfg.eps * cfg.F_init_scale, cfg.eps * cfg.dF_init_scale
    a = acc(t, f, v)
    trace = [(t, f, v)]
    # the starting step: a trial Euler step sizes the second derivative
    sf, sv = atol + abs(f) * rtol, atol + abs(v) * rtol
    d0, d1 = _rms(f / sf, v / sv), _rms(v / sf, a / sv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_max - t)
    v2 = v + h0 * a
    d2 = _rms((v2 - v) / sf, (acc(t + h0, f + h0 * v, v2) - a) / sv) / h0 if h0 else math.inf
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, t_max - t)
    while True:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # NaN-safe
                return "collapse", trace
            t_new = min(t + h_abs, t_max)
            h = t_new - t
            v2 = v + a * a21 * h
            a2 = acc(t + c2 * h, f + v * a21 * h, v2)
            v3 = v + (a * a31 + a2 * a32) * h
            a3 = acc(t + c3 * h, f + (v * a31 + v2 * a32) * h, v3)
            v4 = v + (a * a41 + a2 * a42 + a3 * a43) * h
            a4 = acc(t + c4 * h, f + (v * a41 + v2 * a42 + v3 * a43) * h, v4)
            v5 = v + (a * a51 + a2 * a52 + a3 * a53 + a4 * a54) * h
            a5 = acc(t + c5 * h, f + (v * a51 + v2 * a52 + v3 * a53 + v4 * a54) * h, v5)
            v6 = v + (a * a61 + a2 * a62 + a3 * a63 + a4 * a64 + a5 * a65) * h
            a6 = acc(t + h, f + (v * a61 + v2 * a62 + v3 * a63 + v4 * a64 + v5 * a65) * h, v6)
            f7 = f + h * (v * b1 + v3 * b3 + v4 * b4 + v5 * b5 + v6 * b6)
            v7 = v + h * (a * b1 + a3 * b3 + a4 * b4 + a5 * b5 + a6 * b6)
            a7 = acc(t + h, f7, v7)
            err = _rms(
                (v * e1 + v3 * e3 + v4 * e4 + v5 * e5 + v6 * e6 + v7 * e7) * h
                / (atol + max(abs(f), abs(f7)) * rtol),
                (a * e1 + a3 * e3 + a4 * e4 + a5 * e5 + a6 * e6 + a7 * e7) * h
                / (atol + max(abs(v), abs(v7)) * rtol),
            )
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.2)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err**-0.2)
            rejected = True
        if f <= thr <= f7:
            stages = (v, v2, v3, v4, v5, v6, v7), (a, a2, a3, a4, a5, a6, a7)
            Q = [[sum(k * w for k, w in zip(ks, col)) for col in zip(*DP_P)] for ks in stages]

            def dense(s):
                x = (s - t) / h
                powers = (x, x * x, x * x * x, x * x * x * x)
                return [y + h * sum(c * xj for c, xj in zip(q, powers)) for y, q in zip((f, v), Q)]

            lo, hi = t, t_new
            while hi - lo > EVENT_TOL * (1.0 + hi):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if dense(mid)[0] < thr else (lo, mid)
            trace.append((hi, *dense(hi)))
            return "threshold", trace
        t, f, v, a = t_new, f7, v7, a7
        trace.append((t, f, v))
        if t == t_max:
            return "horizon", trace


def integrate(cfg: OdeConfig) -> OdeResult:
    """Adaptive explicit integration (``_dopri45``) from t = 1 until
    threshold crossing, horizon, or solver failure.

    The threshold crossing is bracketed by the accepted steps and refined by
    bisection on the step interpolant, so T_num, the trace's last time (t_max
    at the horizon), is resolved well below the step size.  A step collapse is
    a blow-up ("step_underflow") only while F is within 1e-3 of the threshold
    and rising, else "solver_failure".  The result holds ``cfg``.
    """
    ending, trace = _dopri45(cfg)
    t, F, dF = map(np.array, zip(*trace))
    if ending == "collapse":
        ramping = F[-1] >= 1e-3 * cfg.blowup_threshold and dF[-1] > 0.0
        ending = "step_underflow" if ramping else "solver_failure"
    return OdeResult(float(t[-1]), t, F, dF, ending, cfg)


def monotone_invariant_check(res: OdeResult) -> bool:
    """Verify that t^mu F'(t), mu = ``res.config.mu``, is nondecreasing along the trace.

    The ODE gives (t^mu F')' = t^mu * RHS >= 0, so any decrease beyond a
    relative 1e-8 per step indicates an integration artifact.  Each step is
    compared divided by t_{k+1}^mu, so t^mu (inf past t 35 at mu 200) is never formed.
    """
    if res.t.size == 0:
        raise ValueError("empty trace")
    t, dF = res.t, res.dF
    decay = (t[:-1] / t[1:]) ** res.config.mu
    return bool(np.all(dF[1:] >= decay * (dF[:-1] - 1e-8 * np.abs(dF[:-1]))))


@dataclass
class FitResult:
    """Least-squares fit of log T against log eps over a sweep's runs, kept in
    grid order: an ``OdeResult`` or ``pde.PdeResult`` each, holding its config."""

    slope: float
    intercept: float
    r_squared: float
    runs: list

    @property
    def eps_values(self) -> list[float]:
        return [r.config.eps for r in self.runs]

    @property
    def T_values(self) -> list[float]:
        return [r.T_num for r in self.runs]


MIN_FIT_POINTS = 4  # fewest sweep points fit_lifespans accepts
# Most eps values one sweep may ask for (over 100x the presets); a sweep
# integrates every one, so a larger grid is refused before its first run.
MAX_SWEEP_POINTS = 1024


def sweep_eps(eps_values: Sequence[float]) -> list[float]:
    """A sweep's eps grid as floats: ``MIN_FIT_POINTS`` to ``MAX_SWEEP_POINTS``
    distinct values in (0, inf), where the log-log fit can take them."""
    eps = [float(e) for e in eps_values]
    if not MIN_FIT_POINTS <= len(eps) <= MAX_SWEEP_POINTS:
        raise ValueError(f"need {MIN_FIT_POINTS} to {MAX_SWEEP_POINTS} eps values, got {len(eps)}")
    bad = [e for e in eps if not 0.0 < e < math.inf]  # NaN fails too
    if bad:
        raise ValueError(f"eps values must be positive and finite, got {bad}")
    if len(set(eps)) != len(eps):
        raise ValueError("duplicate eps values make the fit degenerate")
    return eps


def fit_lifespans(runs: list) -> FitResult:
    """Fit log ``T_num`` against log ``config.eps`` over a sweep's ``runs``, whose
    eps must make a ``sweep_eps`` grid.  Every run must have blown up before its
    ``config.t_max``; else no fit is made and the eps values are reported by ending."""
    refused = {}
    for r in runs:
        if not r.blew_up:
            refused.setdefault(r.termination, []).append(r.config.eps)
    if refused:
        head = f"no blow-up before t_max={runs[0].config.t_max}"
        stalled = refused.pop("horizon", None)
        reasons = [f"eps={es} ended by {end}" for end, es in refused.items()]
        if stalled:
            reasons.insert(0, f"{head} for eps={stalled}; increase the horizon or the data size")
        else:
            reasons[0] = f"{head}: {reasons[0]}"
        raise RuntimeError("; ".join(reasons))
    x = np.log(sweep_eps([r.config.eps for r in runs]))
    y = np.log([r.T_num for r in runs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 0.0
    return FitResult(float(slope), float(intercept), r2, runs)


def sweep(cfg: OdeConfig, eps_grid: Sequence[float]) -> FitResult:
    """Run ``cfg`` across ``eps_grid`` (``sweep_eps``) and fit the lifespans
    (``fit_lifespans``); the fit keeps the runs, in grid order.  Every run's
    config is built, and so checked, before the first run."""
    configs = [replace(cfg, eps=e) for e in sweep_eps(eps_grid)]
    return fit_lifespans([integrate(c) for c in configs])


def predicted_slope(p: float, q: float) -> float:
    """Asymptotic log T / log eps slope -(p-1)/(2-q) of the subcritical
    comparison lemma with the standard wiring (a = mu + q, b = mu + 2)."""
    if q >= 2.0:
        raise ValueError(f"power-type scaling requires q < 2, got q={q}")
    return -(p - 1.0) / (2.0 - q)


def kato_consistency_check(runs: Sequence[OdeResult]) -> tuple[bool, list[float]]:
    """Upper-envelope check T(eps) <= K eps^(-s), s = (p-1)/(2-q), of ``runs`` of one p and q.

    K is calibrated on the largest-eps run (where the inequality is tight by
    construction); the lemma's upper-bound character requires every smaller
    eps to stay below the envelope, up to a margin of -1e-9.  Returns
    (ok, margins) with margin = K eps^(-s) / T - 1 per run, in eps order;
    a margin past the float range is inf.
    """
    exponents = {(r.config.p, r.config.q) for r in runs}
    if len(exponents) != 1:
        raise ValueError(f"the runs must share p and q, got (p, q) in {sorted(exponents)}")
    [(p, q)] = exponents
    s = -predicted_slope(p, q)
    pairs = sorted((r.config.eps, r.T_num) for r in runs)
    e_max, T_anchor = pairs[-1]
    # margin + 1 = (e_max/eps)^s T_anchor/T, formed by its log: at q = 1.995
    # (s = 400 at p 3) a power of an eps ratio leaves the float range
    logs = [s * math.log(e_max / e) + math.log(T_anchor / T) for e, T in pairs]
    margins = [math.expm1(x) if x <= LOG_FLOAT_MAX else math.inf for x in logs]
    return all(m >= -1e-9 for m in margins), margins


def convexity_margin(runs: Sequence[OdeResult]) -> float:
    """Minimum second difference of log T over the runs' uniform log(1/eps) grid.

    A nonnegative (up to tolerance) margin means log T grows convexly in
    log(1/eps), the signature of superpolynomial lifespan growth.
    """
    pairs = sorted(((r.config.eps, r.T_num) for r in runs), key=lambda et: -et[0])
    if len(pairs) < 3:
        raise ValueError("need at least 3 points for second differences")
    x = np.array([math.log(1.0 / e) for e, _ in pairs])
    gaps = np.diff(x)
    if np.any(np.abs(gaps - gaps[0]) > 1e-6 * abs(gaps[0])):
        raise ValueError("eps grid must be uniform in log scale")
    y = np.array([math.log(T) for _, T in pairs])
    d2 = y[2:] - 2.0 * y[1:-1] + y[:-2]
    return float(d2.min())
