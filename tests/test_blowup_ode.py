import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from flrwave import blowup_ode
from flrwave.blowup_ode import (
    OdeConfig,
    convexity_margin,
    fit_lifespans,
    fit_loglog,
    integrate,
    kato_consistency_check,
    monotone_invariant_check,
    predicted_slope,
    sweep,
)


def autonomous_oracle_lifespan():
    """Energy-method lifespan of F'' = F^2, F(1) = 1, F'(1) = 0.

    Conserved E = F'^2/2 - F^3/3 gives F' = sqrt((2/3)(F^3 - 1)), so
    T = 1 + integral_1^inf dF / sqrt((2/3)(F^3 - 1)).
    """
    value, err = quad(
        lambda f: 1.0 / math.sqrt((2.0 / 3.0) * (f**3 - 1.0)), 1.0, np.inf, limit=200
    )
    assert err < 1e-7
    return 1.0 + value


class TestIntegrate:
    def test_against_energy_oracle(self):
        cfg = OdeConfig(p=2.0, mu=0.0, q=0.0, A1=1.0, R=0.0, eps=1.0, dF_init_scale=0.0)
        res = integrate(cfg)
        assert res.blew_up and res.termination == "threshold"
        oracle = autonomous_oracle_lifespan()
        assert abs(res.T_num - oracle) / oracle < 1e-3

    def test_deterministic(self):
        cfg = OdeConfig(p=1.8, mu=2.0, q=0.8, eps=0.05)
        assert integrate(cfg).T_num == integrate(cfg).T_num

    def test_tolerance_halving_convergence(self):
        cfg = OdeConfig(p=1.8, mu=2.0, q=0.8, eps=0.05)
        base = integrate(cfg).T_num
        tight = integrate(replace(cfg, rel_tol=cfg.rel_tol / 2, abs_tol=cfg.abs_tol / 2))
        assert abs(tight.T_num - base) / base < 0.005

    def test_lifespan_decreases_with_eps(self):
        cfg = OdeConfig(p=1.8, mu=2.0, q=0.8)
        lifespans = [integrate(replace(cfg, eps=e)).T_num for e in (0.02, 0.04, 0.08)]
        assert lifespans[0] > lifespans[1] > lifespans[2]

    def test_trace_strictly_increasing(self):
        # with F'(1) > 0 the damped derivative stays positive, so F climbs
        res = integrate(OdeConfig(p=1.8, mu=2.0, q=0.8, eps=0.05))
        assert np.all(np.diff(res.F) > 0.0)

    def test_zero_data_reaches_horizon(self):
        cfg = OdeConfig(p=2.0, mu=1.0, q=1.0, eps=0.0, t_max=100.0)
        res = integrate(cfg)
        assert not res.blew_up and res.termination == "horizon"
        assert float(np.max(np.abs(res.F))) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OdeConfig(p=1.0, mu=0.0, q=0.0)
        with pytest.raises(ValueError):
            OdeConfig(p=2.0, mu=-1.0, q=0.0)
        with pytest.raises(ValueError):
            OdeConfig(p=2.0, mu=0.0, q=0.0, eps=2.0, blowup_threshold=1.0)


def scipy_rk45(cfg):
    """The run of ``cfg`` through scipy's RK45: termination, trace size, T."""

    def rhs(t, y):
        f, df = y
        return df, cfg.A1 * (t + cfg.R) ** (-cfg.q) * abs(f) ** cfg.p - cfg.mu * df / t

    def crossing(t, y):
        return y[0] - cfg.blowup_threshold

    crossing.terminal, crossing.direction = True, 1.0
    y0 = [cfg.eps * cfg.F_init_scale, cfg.eps * cfg.dF_init_scale]
    sol = solve_ivp(rhs, (1.0, cfg.t_max), y0, method="RK45", rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, events=crossing)
    termination = {1: "threshold", 0: "horizon"}.get(sol.status, "collapse")
    T = sol.t_events[0][0] if sol.status == 1 else sol.t[-1]
    return termination, sol.t.size, float(T)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


# the worst lifespan difference seen over 500 random configs was 3.7e-15
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    p=st.floats(1.2, 3.0), mu=st.floats(0.0, 4.0), q=st.floats(0.0, 2.5),
    t_max=log_uniform(10.0, 1e4), eps=log_uniform(1e-3, 1.0),
)
def test_matches_scipy_rk45(p, mu, q, t_max, eps):
    cfg = OdeConfig(p=p, mu=mu, q=q, t_max=t_max, eps=eps)
    res = integrate(cfg)
    termination, size, T = scipy_rk45(cfg)
    ending = {"step_underflow": "collapse", "solver_failure": "collapse"}
    assert ending.get(res.termination, res.termination) == termination
    assert res.t.size == size
    assert abs(res.T_num - T) <= 1e-12 * T


class TestMonotoneInvariant:
    def test_holds_on_blowup_run(self):
        cfg = OdeConfig(p=1.8, mu=2.0, q=0.8, eps=0.05)
        res = integrate(cfg)
        assert monotone_invariant_check(res, cfg.mu)

    def test_fails_on_negated_trace(self):
        cfg = OdeConfig(p=1.8, mu=2.0, q=0.8, eps=0.05)
        res = integrate(cfg)
        res.dF = -res.dF
        assert not monotone_invariant_check(res, cfg.mu)

    def test_reduces_to_plain_monotonicity_without_damping(self):
        cfg = OdeConfig(p=2.0, mu=0.0, q=0.0, A1=1.0, R=0.0, eps=1.0)
        res = integrate(cfg)
        assert monotone_invariant_check(res, 0.0)
        assert np.all(np.diff(res.dF) >= -1e-8 * np.abs(res.dF[:-1]))

    def test_empty_trace_rejected(self):
        empty = np.array([])
        res = blowup_ode.OdeResult(False, 1.0, empty, empty, empty, "solver_failure")
        with pytest.raises(ValueError, match="empty trace"):
            monotone_invariant_check(res, 1.0)


class TestFitting:
    def test_duplicate_eps_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_loglog([0.1, 0.1, 0.2, 0.4], [1.0, 1.0, 2.0, 3.0])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            fit_loglog([0.1, 0.2, 0.4, 0.8], [1.0, 2.0, 3.0])

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog([0.1, 0.2, 0.4], [1.0, 2.0, 3.0])

    def test_exact_power_law_recovered(self):
        eps = [0.01, 0.02, 0.05, 0.1, 0.4]
        T = [3.0 * e**-0.75 for e in eps]
        fit = fit_loglog(eps, T)
        assert fit.slope == pytest.approx(-0.75, rel=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


class TestSweep:
    def test_heatlike_scaling(self):
        cfg = OdeConfig(p=1.8, mu=2.0, q=0.8)
        fit = sweep(cfg, np.geomspace(1e-2, 1e-1, 5))
        predicted = predicted_slope(1.8, 0.8)
        assert abs(fit.slope - predicted) / abs(predicted) < 0.2
        assert fit.r_squared > 0.99
        assert all(b < a for a, b in zip(fit.T_values, fit.T_values[1:]))

    def test_horizon_failure_lists_eps(self):
        cfg = OdeConfig(p=1.8, mu=2.0, q=0.8, t_max=5.0)
        with pytest.raises(RuntimeError, match="no blow-up"):
            sweep(cfg, np.geomspace(1e-3, 1e-2, 4))

    def test_refusal_names_each_ending(self):
        endings = ["threshold", "horizon", "overflow", "horizon"]
        runs = [SimpleNamespace(blew_up=e == "threshold", termination=e, T_num=9.0) for e in endings]
        with pytest.raises(RuntimeError) as refused:
            fit_lifespans(5.0, [1.0, 2.0, 3.0, 4.0], runs)
        assert str(refused.value) == (
            "no blow-up before t_max=5.0 for eps=[2.0, 4.0]; increase the horizon or the "
            "data size; eps=[3.0] ended by overflow"
        )

    def test_kato_consistency_envelope(self):
        cfg = OdeConfig(p=1.8, mu=2.0, q=0.8)
        fit = sweep(cfg, np.geomspace(1e-2, 1e-1, 5))
        ok, margins = kato_consistency_check(fit, cfg.p, cfg.q)
        assert ok
        assert len(margins) == 5
        # anchor run is tight by construction
        assert min(abs(m) for m in margins) < 1e-12


class TestConvexity:
    def test_superpolynomial_growth_detected(self):
        y = [math.exp(2.0 / e) for e in (0.5, 0.25, 0.125)]
        assert convexity_margin([0.5, 0.25, 0.125], y) > 0.0

    def test_uniform_grid_required(self):
        with pytest.raises(ValueError, match="uniform"):
            convexity_margin([0.5, 0.3, 0.1], [1.0, 2.0, 3.0])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            convexity_margin([0.5, 0.25], [1.0, 2.0])


class TestPredictedSlope:
    def test_values(self):
        assert predicted_slope(1.8, 0.8) == pytest.approx(-2.0 / 3.0, rel=1e-14)

    def test_critical_wiring_rejected(self):
        with pytest.raises(ValueError):
            predicted_slope(2.0, 2.0)


def collapsing_at(F_last, dF_last):
    """A ``_dopri45`` stand-in whose step collapses at t = 1.5."""

    def dopri45(cfg):
        start = (1.0, cfg.eps * cfg.F_init_scale, cfg.eps * cfg.dF_init_scale)
        return "collapse", [start, (1.5, F_last, dF_last)]

    return dopri45


@pytest.mark.parametrize(
    "threshold, termination", [(1e15, "step_underflow"), (1e300, "solver_failure")]
)
def test_real_step_collapse(threshold, termination):
    # F'' = F^3 from F = 1 is singular at t ~ 2.31; the step falls below
    # 10 ulp(t) once F ~ 1e13, near a threshold of 1e15 but far from 1e300
    cfg = OdeConfig(p=3.0, mu=0.0, q=0.0, R=0.0, eps=1.0, blowup_threshold=threshold, t_max=10.0)
    res = integrate(cfg)
    assert res.termination == termination
    assert res.blew_up is (termination == "step_underflow")
    assert 1e12 < res.F[-1] < 1e14 and res.dF[-1] > 0.0
    assert res.T_num == res.t[-1] and 2.3 < res.T_num < 2.32


class TestSolverFailure:
    # the default threshold is 1e12, so "near" means F >= 1e9
    @pytest.mark.parametrize(
        "F_last, dF_last, termination",
        [
            (1e10, 1e12, "step_underflow"),
            (1e9, 1.0, "step_underflow"),
            (1e10, -1.0, "solver_failure"),
            (1e10, 0.0, "solver_failure"),
            (1e8, 1e12, "solver_failure"),
            (float("nan"), 1.0, "solver_failure"),
        ],
    )
    def test_blowup_needs_evidence(self, monkeypatch, F_last, dF_last, termination):
        monkeypatch.setattr(blowup_ode, "_dopri45", collapsing_at(F_last, dF_last))
        res = integrate(OdeConfig(p=2.0, mu=1.0, q=1.0, eps=0.5))
        assert res.termination == termination
        assert res.blew_up is (termination == "step_underflow")
        assert res.T_num == 1.5

    def test_sweep_rejects_solver_failure(self, monkeypatch):
        monkeypatch.setattr(blowup_ode, "_dopri45", collapsing_at(1.0, 1.0))
        with pytest.raises(RuntimeError, match="no blow-up .* ended by solver_failure"):
            sweep(OdeConfig(p=1.8, mu=2.0, q=0.8), np.geomspace(1e-2, 1e-1, 4))


@pytest.mark.parametrize(
    "field", ["p", "mu", "q", "A1", "R", "eps", "blowup_threshold", "t_max", "rel_tol"]
)
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        OdeConfig(**{"p": 2.0, "mu": 1.0, "q": 1.0, field: float("nan")})


def test_config_rel_tol_floor():
    floor = OdeConfig(p=2.0, mu=1.0, q=1.0, rel_tol=blowup_ode.MIN_REL_TOL)
    assert floor.rel_tol == 100 * 2.0**-52
    with pytest.raises(ValueError, match="rel_tol must be at least"):
        OdeConfig(p=2.0, mu=1.0, q=1.0, rel_tol=math.nextafter(blowup_ode.MIN_REL_TOL, 0.0))
    # at or above 1 a step may err by as much as the solution itself
    assert OdeConfig(p=2.0, mu=1.0, q=1.0, rel_tol=0.5).rel_tol == 0.5
    with pytest.raises(ValueError, match="rel_tol must be at least"):
        OdeConfig(p=2.0, mu=1.0, q=1.0, rel_tol=1.0)


def test_config_rejects_infinite_horizon():
    with pytest.raises(ValueError, match="finite"):
        OdeConfig(p=2.0, mu=1.0, q=1.0, t_max=math.inf)
