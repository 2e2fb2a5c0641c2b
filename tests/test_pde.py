import math
import tracemalloc
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flrwave import blowup_ode, pde
from flrwave.exponents import ModelParams
from flrwave.pde import (
    CFL_LIMITS,
    SUPPORT_REL_TOL,
    PdeConfig,
    PdeResult,
    _last_above,
    _next_dt,
    _pitch,
    _quadrature,
    _raise_to,
    _run_batch,
    _Stripes,
    _weights,
    ball_volume,
    bump3,
    f_monotone_check,
    holder_check,
    lifespan_sweep,
    light_cone_radius,
    run,
    sphere_area,
    support_check,
)


def integral_dx(u, dr, n):
    """Trapezoid rule for int u dx = sigma_(n-1) int u r^(n-1) dr, written
    out independently of the solver's cached weights; 0 on an empty grid."""
    u = np.asarray(u, dtype=float)
    if u.size == 0:
        return 0.0
    y = u * (dr * np.arange(u.size)) ** (n - 1.0)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return float(area * dr * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def integral_abs_p(u, dr, n, p):
    return integral_dx(np.abs(np.asarray(u, dtype=float)) ** p, dr, n)


BASE = PdeConfig(
    params=ModelParams(2, 0.5, 2.0), p=2.0, eps=0.5, R=1.0, dr=1.0 / 50.0, t_max=50.0
)


def stripes(fields, dr, n, stride=None):
    """A fresh ``_Stripes`` whose levels 0, 1, ... hold ``fields``, each one
    row or rows of one length, in rows of ``stride`` cells (default: the row
    length, no padding); every other cell is zero."""
    fields = [np.asarray(f, dtype=float) for f in fields]
    m = fields[0].shape[-1]
    grid = [f.reshape(-1, m) for f in fields]
    s = _Stripes(grid[0].shape[0], stride or m, dr, n)
    for level, f in zip(s.levels, grid):
        level[:, :m] = f
    return s


def laplacian(u, dr, n):
    """Lap u through the solver's stencil, each row zero past its last cell."""
    s = stripes([u], dr, n)
    s.stencil(1, 0, 2, 1.0, 0.0)
    return s.grid[1].reshape(np.shape(u))


def update(u_prev, u_curr, t, dt_old, dt_new, dr, n, alpha, mu, source):
    """The solver's new level from u_prev, u_curr and the source |u_curr|^p."""
    s = stripes([u_prev, u_curr, source], dr, n)
    s.step(2, 0, 1, t, dt_old, dt_new, alpha, mu, s.stride)
    return s.grid[2].reshape(np.shape(u_curr))


class TestRadialLaplacian:
    def test_quadratic_is_exact(self):
        dr = 0.02
        r = dr * np.arange(120)
        u = r**2
        lap = laplacian(u, dr, 2)
        # zero ghost past the boundary corrupts only the last cell
        assert np.allclose(lap[:-1], 4.0, rtol=0, atol=1e-9)

    def test_constant_gives_zero(self):
        u = np.full(50, 3.7)
        lap = laplacian(u, 0.1, 3)
        assert np.allclose(lap[:-1], 0.0, atol=1e-11)

    def test_rows_stay_apart(self):
        # rows of a batch are laid end to end; not even inf or NaN crosses
        u = np.array([[1.0, 2.0, math.inf, 4.0], [1.0, 2.0, 3.0, 0.5], [math.nan, 1.0, 2.0, 3.0]])
        lap = laplacian(u, 0.1, 2)
        for row, lap_row in zip(u, lap):
            assert np.array_equal(lap_row, laplacian(row, 0.1, 2), equal_nan=True)
        assert np.all(np.isfinite(lap[1]))

    def test_short_grid_rejected(self):
        with pytest.raises(ValueError):
            laplacian(np.zeros(2), 0.1, 2)

    def test_second_order_richardson(self):
        def interior_error(dr, n=3):
            r = dr * np.arange(int(2.0 / dr) + 1)
            u = bump3(r, 1.0)
            inside = np.clip(1.0 - r**2, 0.0, None)
            exact = np.where(
                r < 1.0,
                -6.0 * inside**2 + 24.0 * r**2 * inside - 6.0 * (n - 1.0) * inside**2,
                0.0,
            )
            exact[0] = -6.0 * n
            num = laplacian(u, dr, n)
            sel = (r > 4.0 * dr) & (r < 0.8)
            return float(np.max(np.abs(num[sel] - exact[sel])))

        e1, e2 = interior_error(1.0 / 50.0), interior_error(1.0 / 100.0)
        assert 3.5 < e1 / e2 < 4.5


class TestQuadrature:
    def test_bump_average_matches_exact_integral(self):
        # 2 pi int_0^1 (1-r^2)^3 r dr = pi/4
        dr = 1.0 / 400.0
        u = bump3(dr * np.arange(500), 1.0)
        assert integral_dx(u, dr, 2) == pytest.approx(math.pi / 4.0, rel=2e-5)

    def test_zero_field(self):
        assert integral_dx(np.zeros(10), 0.1, 2) == 0.0

    def test_empty_grid_dx(self):
        assert integral_dx(np.array([]), 0.1, 2) == 0.0

    def test_empty_grid_abs_p(self):
        assert integral_abs_p(np.array([]), 0.1, 2, 2.0) == 0.0

    def test_linearity_in_eps(self):
        dr = 1.0 / 100.0
        u = bump3(dr * np.arange(150), 1.0)
        assert integral_dx(2.0 * u, dr, 2) == pytest.approx(
            2.0 * integral_dx(u, dr, 2), rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_solver_quadrature_matches_oracle(self, n):
        # the solver's cached trapezoid weights against the oracle above, on
        # one profile and on a batch of rows
        dr = 1.0 / 400.0
        r = dr * np.arange(500)
        u = bump3(r, 1.0)
        quad = _weights(u.size, dr, n)[2]
        assert float(_quadrature(u, quad)) == pytest.approx(integral_dx(u, dr, n), rel=1e-12)
        rows = np.stack([u, 0.5 * u**3, 1.0 + r, np.zeros_like(u)])  # 1 + r weighs both ends
        for got, row in zip(_quadrature(rows, quad), rows):
            assert got == pytest.approx(integral_dx(row, dr, n), rel=1e-12, abs=0.0)

    def test_surface_and_volume_constants(self):
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def support_radius(u, dr):
    """The support radius as the stepping loop takes it: the last r with
    |u| above SUPPORT_REL_TOL * sup|u|, along the last axis."""
    a = np.abs(u)
    return _last_above(a, SUPPORT_REL_TOL * a.max(axis=-1, keepdims=True), dr)


class TestSupportRadius:
    def test_zero_field(self):
        assert support_radius(np.zeros(20), 0.1) == 0.0

    def test_localized_field(self):
        u = np.zeros(100)
        u[30] = 1.0
        u[40] = 1e-15  # below the relative floor
        assert support_radius(u, 0.1) == pytest.approx(3.0)

    def test_light_cone_monotone_in_alpha(self):
        assert light_cone_radius(5.0, 0.6, 1.0) < light_cone_radius(5.0, 0.3, 1.0)


def last_above_reference(a, floors, dr):
    """Largest i*dr with a[i] > floor in each row, by a plain scan; 0 if none."""
    out = []
    for row, floor in zip(a.tolist(), floors.tolist()):
        last = 0.0
        for i, value in enumerate(row):
            if value > floor:
                last = i * dr
        out.append(last)
    return out


@st.composite
def support_rows(draw):
    """Rows of one length, each all zero, with support anywhere, or with
    support only in its first half; NaN may appear."""
    m = draw(st.integers(1, 200))
    kinds = draw(st.lists(st.sampled_from(["zero", "any", "head"]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = [0.0, 0.0, 0.0, 1e-13, 1e-3, 0.5, 2.0, math.nan]
    a = rng.choice(palette, (len(kinds), m))
    for row, kind in zip(a, kinds):
        if kind == "zero":
            row[:] = 0.0
        elif kind == "head":
            row[m // 2 :] = 0.0
    return a


class TestSupportScan:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(a=support_rows(), floor=st.sampled_from([0.0, 1e-12, 0.3, math.nan]))
    def test_last_above_matches_a_full_scan(self, a, floor):
        floors = np.full(a.shape[0], floor)
        got = _last_above(a, floors[:, None], 0.01)
        assert got.tolist() == last_above_reference(a, floors, 0.01)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(a=support_rows(), sign=st.sampled_from([1.0, -1.0]))
    def test_support_radius_matches_a_full_scan(self, a, sign):
        u = sign * a
        floors = SUPPORT_REL_TOL * np.max(np.abs(u), axis=-1)  # NaN where a row has one
        want = last_above_reference(np.abs(u), floors, 0.01)
        assert support_radius(u, 0.01).tolist() == want
        assert support_radius(u[0], 0.01).tolist() == want[0]


def one_sample(F, lp, radius, n=2, p=2.0):
    """A run of one sample, at t = 1, with F and int |u|^p dx given and a
    light cone of ``radius`` (alpha 0, so the cone is the data radius R)."""
    cfg = PdeConfig(params=ModelParams(n, 0.0, 0.0), p=p, eps=0.5, R=radius)
    one = np.ones(1)
    return PdeResult(1.0, "threshold", one, one, np.array([F]), np.array([lp]), one, cfg)


class TestHolder:
    # a constant profile meets the Hoelder bound with equality: its ratio
    # passes the check, and 3e-6 less fails it
    def test_constant_profile_equality(self):
        dr = 1.0 / 200.0
        m = 301
        u = np.full(m, 2.0)
        edge = dr * (m - 1)
        F = integral_dx(u, dr, 2)
        lp = integral_abs_p(u, dr, 2, 2.0)
        assert holder_check(one_sample(F, lp, edge))
        assert not holder_check(one_sample(F, lp * (1.0 - 3e-6), edge))

    def test_halved_radius_violates(self):
        dr = 1.0 / 200.0
        m = 301
        u = np.full(m, 2.0)
        edge = dr * (m - 1)
        F = integral_dx(u, dr, 2)
        lp = integral_abs_p(u, dr, 2, 2.0)
        assert not holder_check(one_sample(F, lp, 0.5 * edge))

    def test_ratio_terms_past_the_float_range(self):
        # pde run --n 3 --R 100 --p 70 --eps 0.1 --dr 0.5 --t_max 2: every F
        # and int |u|^p dx is finite and the log ratio is at least 124, but
        # lp vol^69 and |F|^70 both overflow, so the plain ratio is inf/inf
        cfg = PdeConfig(params=ModelParams(3, 0.5, 2.0), p=70.0, eps=0.1, R=100.0, dr=0.5,
                        t_max=2.0)
        res = run(cfg)
        assert res.termination == "horizon" and res.t_samples.size == 11
        assert np.all(np.isfinite(res.F_series)) and np.all(np.isfinite(res.lp_series))
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(res.F_series ** cfg.p))
        assert holder_check(res)


class TestScheme:
    def test_zero_data_is_fixed_point(self):
        res = run(replace(BASE, eps=0.0, t_max=2.0))
        assert not res.blew_up and res.termination == "horizon"
        assert float(np.max(res.sup_series)) == 0.0
        assert float(np.max(np.abs(res.F_series))) == 0.0

    def test_taylor_start_formula(self):
        # the first level after t = 1, as a run's snapshot at 1 + dt shows it
        for n, mu, p in [(2, 2.0, 2.0), (3, 0.5, 1.5)]:
            cfg = replace(BASE, params=ModelParams(n, 0.5, mu), p=p, t_max=1.2)
            dt = _next_dt(1.0, cfg)
            res = run(replace(cfg, snapshot_times=(1.0, 1.0 + dt)))
            (_, u0), (t1, got) = res.snapshots
            assert t1 == 1.0 + dt
            assert np.array_equal(u0, 0.5 * bump3(cfg.dr * np.arange(u0.size), 1.0))
            expected = u0 + dt * u0 + 0.5 * dt * dt * (
                laplacian(u0, cfg.dr, n) - mu * u0 + np.abs(u0) ** p
            )
            assert np.array_equal(got, expected)

    def test_plane_wave_energy_conservation(self):
        # n = 1, constant speed, no damping, no source: leapfrog on the
        # half-line with a symmetry origin; drift must stay below 1%
        dr = 1.0 / 200.0
        cfl = 0.5
        dt = cfl * dr
        m = int(25.0 / dr) + 1
        x = dr * np.arange(m)
        u0 = bump3(np.abs(x - 12.0), 1.0)
        u1 = u0 + 0.5 * dt * dt * laplacian(u0, dr, 1)
        silent = np.zeros(m)  # no source

        def energy(ua, ub):
            ut = (ub - ua) / dt
            um = 0.5 * (ua + ub)
            return 0.5 * dr * (float(np.sum(ut**2)) + float(np.sum(np.diff(um) ** 2)) / dr**2)

        u_prev, u_curr, t = u0, u1, 1.0 + dt
        e0 = energy(u0, u1)
        lo = hi = e0
        while t < 10.0:
            u_next = update(u_prev, u_curr, t, dt, dt, dr, 1, 0.0, 0.0, silent)
            u_prev, u_curr, t = u_curr, u_next, t + dt
            e = energy(u_prev, u_curr)
            lo, hi = min(lo, e), max(hi, e)
        assert (hi - lo) / e0 < 0.01
        # pulses transported at unit speed
        left_peak = float(x[np.argmax(u_curr[: int(12.0 / dr)])])
        assert left_peak == pytest.approx(12.0 - (t - 1.0), abs=2 * dr)

    def test_first_sample_support_inside_data_ball(self):
        res = run(replace(BASE, t_max=1.2))
        assert res.support_series[0] <= BASE.R + 2.0 * BASE.dr

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(n=st.integers(2, 5), alpha=st.floats(0.0, 0.9), mu=st.floats(0.0, 5.0),
           share=st.floats(0.1, 0.99))
    def test_manufactured_solution_converges_at_second_order(self, n, alpha, mu, share):
        # u = (2 + sin t)(1 - r^2)^6 on r < 1 solves the equation with the
        # forcing f = g'' h - t^(-2 alpha) g Lap h + (mu/t) g' h as its source;
        # stepping the nonuniform, damped step with the solver's own dt to
        # t = 3 must cut the error about 4x a halving of dr
        cfl = share * CFL_LIMITS[n]

        def error(dr):
            cfg = PdeConfig(params=ModelParams(n, alpha, mu), p=2.0, eps=0.0, dr=dr, cfl=cfl)
            r = dr * np.arange(int(1.25 / dr) + 1)
            inside = np.clip(1.0 - r * r, 0.0, None)
            h = inside**6
            lap_h = -12.0 * n * inside**5 + 120.0 * r * r * inside**4
            s = _Stripes(1, r.size, dr, n)
            dt = _next_dt(1.0, cfg)
            s.grid[0][0] = (2.0 + math.sin(1.0)) * h  # the exact levels at 1 and 1 + dt
            s.grid[1][0] = (2.0 + math.sin(1.0 + dt)) * h
            prev, curr, nxt, t = 0, 1, 2, 1.0 + dt
            while t < 3.0:
                source = s.grid[nxt][0]
                np.multiply(h, mu / t * math.cos(t) - math.sin(t), out=source)
                source -= t ** (-2.0 * alpha) * (2.0 + math.sin(t)) * lap_h
                dt_new = _next_dt(t, cfg)
                s.step(nxt, prev, curr, t, dt, dt_new, alpha, mu, r.size)
                t, dt = t + dt_new, dt_new
                prev, curr, nxt = curr, nxt, prev
            exact = (2.0 + math.sin(t)) * h
            return float(np.max(np.abs(s.grid[curr][0] - exact)) / np.max(exact))

        errors = [error(1.0 / cells) for cells in (50, 100, 200)]
        assert errors[0] / errors[1] >= 3.5 and errors[1] / errors[2] >= 3.5


class TestRun:
    def test_blowup_with_structural_checks(self):
        res = run(BASE)
        assert res.blew_up and res.termination == "threshold"
        assert res.T_num < BASE.t_max
        assert support_check(res)
        assert holder_check(res)
        assert f_monotone_check(res)
        assert res.F_series[0] == pytest.approx(0.5 * math.pi / 4.0, rel=1e-3)

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="ROADMAP item 2: at n 4-5 the stencil's weight (3-n)/(2dr^2) next to the "
        "origin is negative, and F falls from t ~ 28.55 on; the flux form must mend this",
    )
    @pytest.mark.parametrize("n", [4, 5])
    def test_f_nondecreasing_up_to_the_horizon_at_n4_and_n5(self, n):
        res = run(PdeConfig(params=ModelParams(n, 0.5, 2.0), p=2.0, eps=0.05, dr=0.02, t_max=60.0))
        if res.termination != "horizon":  # not an AssertionError, so not the expected failure
            pytest.fail(f"the probe no longer reaches its horizon: {res.termination}")
        assert f_monotone_check(res)

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="the domain-of-dependence cut (width in _run_batch) drains F: (t^mu F')' >= 0 "
        "forces F >= F(1), yet F(1) = 0.0784 falls to 0.0100 by the horizon; without the "
        "cut F stays at or above F(1) and ends at 0.1231",
    )
    def test_f_never_falls_below_its_start_at_alpha_0(self):
        cfg = PdeConfig(params=ModelParams(2, 0.0, 2.0), p=3.0, eps=0.1, dr=0.05, t_max=100.0)
        res = run(cfg)
        if res.termination != "horizon":  # not an AssertionError, so not the expected failure
            pytest.fail(f"the probe no longer reaches its horizon: {res.termination}")
        assert res.F_series.min() >= res.F_series[0]

    def test_first_sample_matches_oracles(self):
        # F and int |u|^p dx at t = 1 come from the solver's own quadrature
        cfg = replace(BASE, params=ModelParams(3, 0.5, 2.0), p=1.5, t_max=1.2)
        res = run(replace(cfg, snapshot_times=(1.0,)))
        t0, u0 = res.snapshots[0]
        assert t0 == 1.0
        assert res.F_series[0] == pytest.approx(integral_dx(u0, cfg.dr, 3), rel=1e-12)
        assert res.lp_series[0] == pytest.approx(integral_abs_p(u0, cfg.dr, 3, 1.5), rel=1e-12)

    def test_lifespan_decreases_with_eps(self):
        lifespans = [run(replace(BASE, eps=e)).T_num for e in (0.25, 0.5, 1.0)]
        assert lifespans[0] > lifespans[1] > lifespans[2]

    def test_refinement_stability(self):
        t_coarse = run(BASE).T_num
        t_mid = run(replace(BASE, dr=BASE.dr / 2.0)).T_num
        t_fine = run(replace(BASE, dr=BASE.dr / 4.0)).T_num
        assert abs(t_mid - t_coarse) / t_mid < 0.10
        assert abs(t_fine - t_mid) / t_fine < 0.05

    def test_determinism(self):
        assert run(BASE).T_num == run(BASE).T_num

    def test_snapshots(self):
        res = run(replace(BASE, snapshot_times=(1.0, 2.0)))
        assert len(res.snapshots) == 2
        t0, u0 = res.snapshots[0]
        assert t0 == 1.0 and float(np.max(u0)) == pytest.approx(0.5)
        assert res.snapshots[1][0] == pytest.approx(2.0, abs=2e-2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PdeConfig(params=ModelParams(2, 0.5, 2.0), p=1.0, eps=0.5)
        with pytest.raises(ValueError):
            PdeConfig(params=ModelParams(2, 0.5, 2.0), p=2.0, eps=0.5, cfl=1.5)
        # an infinite dr once passed as a NaN cell count and failed in numpy
        for dr in (math.inf, math.nan):
            with pytest.raises(ValueError, match="dr positive and finite"):
                replace(BASE, dr=dr)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_damping_runs_below_mu_dt_2_and_is_refused_at_2(self, alpha):
        # dt(1) = cfl dr = 1/32 exactly, so mu = 64 puts mu dt at 2
        cfg = replace(BASE, params=ModelParams(2, alpha, math.nextafter(64.0, 0.0)),
                      dr=0.0625, cfl=0.5, t_max=5.0)
        assert cfg.params.mu * _next_dt(1.0, cfg) < 2.0
        res = run(cfg)
        assert res.termination == "horizon" and f_monotone_check(res)
        with pytest.raises(ValueError, match=r"mu \* dt at t = 1 must be below 2, .* got 2;"):
            replace(cfg, params=ModelParams(2, alpha, 64.0))


def stencil_matrix(m, dr, n):
    """The stencil's matrix on m cells: column j is Lap e_j, the stencil
    applied to the j-th unit vector (one row of the batch each)."""
    return laplacian(np.eye(m), dr, n).T


class TestStability:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cfl_limit_is_the_stencils(self, n):
        # leapfrog on u_tt = t^(-2 alpha) Lap u with dt = cfl dr t^alpha is
        # stable for cfl < 2/sqrt(rho dr^2), rho the spectral radius of the
        # matrix; its largest mode sits at the origin, so 60 cells resolve it
        dr = 0.01
        for m in (60, 240):
            rho = float(np.max(np.abs(np.linalg.eigvals(stencil_matrix(m, dr, n)))))
            limit = 2.0 / math.sqrt(rho * dr * dr)
            assert CFL_LIMITS[n] <= limit < CFL_LIMITS[n] + 1e-4

    def test_config_refuses_cfl_at_the_limit(self):
        for n, limit in CFL_LIMITS.items():
            params = ModelParams(n, 0.5, 2.0)
            for cfl in (0.45, math.nextafter(limit, 0.0)):  # the default stays legal
                assert replace(BASE, params=params, cfl=cfl).cfl == cfl
            for cfl in (limit, 0.95, 0.0):
                with pytest.raises(ValueError, match=rf"cfl must lie in \(0, {limit}\)"):
                    replace(BASE, params=params, cfl=cfl)


class TestSweep:
    def test_scaling_and_monotonicity(self):
        fit = lifespan_sweep(replace(BASE, t_max=400.0), np.geomspace(0.2, 0.8, 4))
        assert abs(fit.slope - (-1.0)) < 0.3
        assert all(b < a for a, b in zip(fit.T_values, fit.T_values[1:]))

    def test_keeps_its_runs_bit_for_bit(self):
        # each row of the fit is the run of its eps alone with no sample
        # clock, its first and last samples included, in grid order
        cfg = replace(BASE, dr=0.05)
        eps = [0.5, 0.6, 0.7, 0.8]
        fit = lifespan_sweep(cfg, eps)
        assert len(fit.runs) == len(eps)
        for e, row in zip(eps, fit.runs):
            alone = run(replace(cfg, eps=e, sample_dt=math.inf))
            assert (row.T_num, row.termination) == (alone.T_num, alone.termination)
            assert row.t_samples.size == 2
            for name in SERIES:
                assert getattr(row, name).tobytes() == getattr(alone, name).tobytes(), name
        assert fit.eps_values == [row.config.eps for row in fit.runs] == eps
        assert fit.T_values == [row.T_num for row in fit.runs]

    def test_samples_only_at_the_start_and_the_leaves(self, monkeypatch):
        # a sweep has no sample clock: it scans the support once at t = 1
        # and once on each step that rows leave on, and nowhere else
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return _last_above(*args, **kwargs)

        cfg = replace(BASE, dr=0.05)
        eps = [0.5, 0.6, 0.7, 0.8]
        want = [run(replace(cfg, eps=e)).T_num for e in eps]
        monkeypatch.setattr(pde, "_last_above", counted)
        assert lifespan_sweep(cfg, eps).T_values == want
        assert len(calls) <= 1 + len(eps)
        assert calls[0] == len(eps) and sum(calls[1:]) == len(eps)

    def test_is_not_refused_for_samples_it_does_not_take(self):
        cfg = replace(BASE, dr=0.05, t_max=3.0, sample_dt=1e-7)  # 2e7 samples
        with pytest.raises(ValueError, match="sample budget"):
            run(cfg)
        eps = [10.0, 30.0, 100.0, 1000.0]
        want = [run(replace(cfg, eps=e, sample_dt=0.05)).T_num for e in eps]
        assert lifespan_sweep(cfg, eps).T_values == want

    def test_single_eps_rejected(self):
        with pytest.raises(ValueError):
            lifespan_sweep(BASE, [0.5])

    def test_bad_grids_refused_before_any_run(self, monkeypatch):
        # both library sweeps check the grid (blowup_ode.sweep_eps) before
        # they step or integrate anything
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep ran before its grid was checked")

        monkeypatch.setattr(pde, "_run_batch", refuse)
        monkeypatch.setattr(blowup_ode, "integrate", refuse)
        over = blowup_ode.MAX_SWEEP_POINTS + 1
        refusals = {
            "need 4 to 1024 eps values, got 0": [],
            "need 4 to 1024 eps values, got 1": [0.5],
            "duplicate eps values make the fit degenerate": [0.5, 0.5, 0.6, 0.7],
            f"need 4 to 1024 eps values, got {over}": np.geomspace(0.01, 0.9, over),
            "eps values must be positive and finite, got [0.0]": [0.0, 0.5, 0.6, 0.7],
            "eps values must be positive and finite, got [-0.1]": [0.5, 0.6, 0.7, -0.1],
            "eps values must be positive and finite, got [inf]": [0.5, math.inf, 0.6, 0.7],
            "eps values must be positive and finite, got [nan]": [math.nan, 0.5, 0.6, 0.7],
        }
        ode = blowup_ode.OdeConfig(p=1.8, mu=2.0, q=0.8)
        for sweep in (partial(lifespan_sweep, BASE), partial(blowup_ode.sweep, ode)):
            for message, grid in refusals.items():
                with pytest.raises(ValueError) as refused:
                    sweep(grid)
                assert str(refused.value) == message
        # a row whose data reaches the threshold: F(1) = 1e13 > 1e12
        with pytest.raises(ValueError) as refused:
            blowup_ode.sweep(ode, [0.01, 0.02, 0.05, 1e13])
        assert str(refused.value) == "blow-up threshold must exceed the initial data"

    def test_horizon_failure(self):
        with pytest.raises(RuntimeError, match="no blow-up"):
            lifespan_sweep(replace(BASE, t_max=3.0), [0.05, 0.06, 0.07, 0.08])


@pytest.mark.parametrize(
    "field",
    ["p", "eps", "R", "dr", "cfl", "blowup_threshold", "t_max", "sample_dt"],
)
def test_config_rejects_nan(field):
    with pytest.raises(ValueError):
        replace(BASE, **{field: float("nan")})


def test_config_rejects_infinite_horizon():
    with pytest.raises(ValueError, match="finite"):
        replace(BASE, t_max=math.inf)


SERIES = ("t_samples", "sup_series", "F_series", "lp_series", "support_series")


def assert_same_run(row, alone):
    assert row.config == alone.config
    assert (row.blew_up, row.T_num, row.termination) == (
        alone.blew_up, alone.T_num, alone.termination
    )
    for name in SERIES:
        assert np.array_equal(getattr(row, name), getattr(alone, name)), name
    assert [t for t, _ in row.snapshots] == [t for t, _ in alone.snapshots]
    for (_, profile), (_, solo) in zip(row.snapshots, alone.snapshots):
        assert np.array_equal(profile, solo)


def assert_same_sweep_row(row, alone):
    """A row of a batch with no sample clock (``sample_dt = inf``) and no
    snapshots ends as its own run does, and its series are that run's first
    and last samples, bit for bit: the first alone after an overflow."""
    swept = replace(alone.config, sample_dt=math.inf, snapshot_times=())
    assert (row.config, row.blew_up, row.T_num, row.termination) == (
        swept, alone.blew_up, alone.T_num, alone.termination
    )
    kept = [0] if alone.termination == "overflow" else [0, -1]
    for name in SERIES:
        assert np.array_equal(getattr(row, name), getattr(alone, name)[kept], equal_nan=True), name


class TestBatch:
    @settings(derandomize=True, database=None, max_examples=8, deadline=None)
    @given(st.lists(st.floats(0.2, 0.8), min_size=1, max_size=3))
    @example([0.2, 0.5, 0.8])  # the first row to cross is the level's last, and in
    # the sweep no sample is due then: only the quiet step's whole-level max sees it
    def test_row_is_bit_identical_to_its_own_run(self, eps_values):
        # so a row never depends on which other eps share its batch; the
        # eps = 0 row stays exactly zero, so nothing leaks between stripes
        eps_values = [0.0, *eps_values]
        snapshot_times = (1.0, 5.0, 30.0)
        rows = _run_batch(replace(BASE, snapshot_times=snapshot_times), eps_values)
        swept = _run_batch(replace(BASE, sample_dt=math.inf), eps_values)
        assert len(rows) == len(swept) == len(eps_values)
        for e, row, sweep_row in zip(eps_values, rows, swept):
            assert row.config.eps == e
            alone = run(replace(BASE, eps=e, snapshot_times=snapshot_times))
            assert_same_run(row, alone)
            assert_same_sweep_row(sweep_row, alone)
        zero = rows[0]
        assert len(zero.snapshots) == len(snapshot_times)
        assert not np.any(zero.sup_series) and not np.any(zero.support_series)

    def test_overflowing_row_leaves_its_neighbour_alone(self):
        cfg = replace(BASE, p=3.0, dr=0.05, t_max=2.0, blowup_threshold=1e300)
        overflow, finite = _run_batch(cfg, [1e200, 0.5])
        assert overflow.termination == "overflow"
        assert finite.termination == "horizon"
        assert_same_run(finite, run(replace(cfg, eps=0.5)))
        swept = _run_batch(replace(cfg, sample_dt=math.inf), [1e200, 0.5])
        for e, row in zip([1e200, 0.5], swept):
            assert_same_sweep_row(row, run(replace(cfg, eps=e)))

    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.3, 3.0, 30.0, 1e7, 1e200]), min_size=1, max_size=4),
           st.sampled_from([1e8, 1e300]))
    @example([0.3, 1e7], 1e8)  # horizon and threshold
    @example([1e200, 1e7, 0.3], 1e300)  # overflow twice and horizon
    def test_the_leave_step_is_observed(self, eps_values, threshold):
        # a recorded row that leaves finite is sampled at T_num; an
        # overflowed level never is
        cfg = replace(BASE, p=3.0, dr=0.05, t_max=4.0, blowup_threshold=threshold)
        eps_values = [e for e in eps_values if e < threshold] or [0.0]
        for row in _run_batch(cfg, eps_values):
            if row.termination == "overflow":
                assert np.all(row.t_samples < row.T_num)
            else:
                assert row.t_samples[-1] == row.T_num


def test_config_rejects_steps_lost_at_t_max():
    # below half the float spacing at t_max, t + x == t and time stops
    for value in (1e-300, 1e-15):
        with pytest.raises(ValueError, match="resolvable"):
            replace(BASE, sample_dt=value)
    # a first step cfl dr below half the spacing at t_max; and one of exactly
    # half of it, 2^-53, where t_max (odd mantissa) + dt rounds up but 1 + dt
    # rounds back to 1
    for changes in (
        dict(t_max=1.00000000000001, cfl=1e-13, dr=0.001),
        dict(t_max=1.0000000000000007, cfl=2.0**-13, dr=2.0**-40, R=1e-9),
    ):
        with pytest.raises(ValueError, match="resolvable"):
            replace(BASE, **changes)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40),
       st.sampled_from([2.0, 3.0, 1.5]))
def test_raise_to_is_the_power_ufunc(values, p):
    a = np.abs(np.array(values))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        expected = a**p
        _raise_to(a, p)
    assert np.array_equal(a, expected, equal_nan=True)


def textbook_laplacian(u, dr, n):
    """Unfolded central differences in long double, zero past the last cell."""
    g = np.append(np.asarray(u, dtype=np.longdouble), np.longdouble(0))
    dr = np.longdouble(dr)
    r = dr * np.arange(1, g.size - 1, dtype=np.longdouble)
    lap = np.empty(g.size - 1, dtype=np.longdouble)
    lap[1:] = (g[2:] - 2 * g[1:-1] + g[:-2]) / dr**2 + (n - 1) / r * (g[2:] - g[:-2]) / (2 * dr)
    lap[0] = 2 * n * (g[1] - g[0]) / dr**2
    return lap


def textbook_update(u_prev, u_curr, t, dt_old, dt_new, dr, n, alpha, mu, source):
    """2(u+ - u)/(span dt_new) - 2(u - u-)/(span dt_old) + (mu/t)(u+ - u-)/span
    = t^(-2 alpha) Lap u + source, solved for u+ in long double."""
    L = np.longdouble
    t, dt_old, dt_new, mu = L(t), L(dt_old), L(dt_new), L(mu)
    u_prev, u_curr = np.asarray(u_prev, dtype=L), np.asarray(u_curr, dtype=L)
    span = dt_old + dt_new
    rhs = (
        t ** (-2 * L(alpha)) * textbook_laplacian(u_curr, dr, n) + np.asarray(source, dtype=L)
        + 2 * u_curr / (span * dt_new) + 2 * (u_curr - u_prev) / (span * dt_old)
        + mu / t * u_prev / span
    )
    return rhs / (2 / (span * dt_new) + mu / t / span)


class TestFoldedStencil:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 5),
        alpha=st.floats(0.0, 0.9),
        mu=st.floats(0.0, 4.0),
        t=st.floats(1.0, 50.0),
        dr=st.floats(0.005, 0.2),
        cfl_old=st.floats(0.05, 0.95),
        cfl_new=st.floats(0.05, 0.95),
        cells=st.integers(3, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_unfolded_long_double_reference(
        self, n, alpha, mu, t, dr, cfl_old, cfl_new, cells, seed
    ):
        # CFL-sized steps, as the solver takes them; the fields are random
        rng = np.random.default_rng(seed)
        u_prev, u_curr = rng.uniform(-1.0, 1.0, (2, cells))
        source = np.abs(u_curr) ** 2
        dt_old, dt_new = cfl_old * dr * t**alpha, cfl_new * dr * t**alpha
        scale = float(np.max(np.abs([u_prev, u_curr])))

        lap = laplacian(u_curr, dr, n)
        want = textbook_laplacian(u_curr, dr, n)
        assert np.max(np.abs(lap - want)) <= 1e-12 * scale / dr**2

        got = update(u_prev, u_curr, t, dt_old, dt_new, dr, n, alpha, mu, source)
        want = textbook_update(u_prev, u_curr, t, dt_old, dt_new, dr, n, alpha, mu, source)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 5),
        alpha=st.floats(0.0, 0.9),
        mu=st.floats(0.0, 4.0),
        t=st.floats(1.0, 50.0),
        dr=st.floats(0.005, 0.2),
        cfl_old=st.floats(0.05, 0.95),
        cfl_new=st.floats(0.05, 0.95),
        cells=st.integers(3, 60),
        pad=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_three_row_stripe(self, n, alpha, mu, t, dr, cfl_old, cfl_new, cells, pad, seed):
        # rows laid end to end with zero padding, as the stepping loop holds them
        rows, stride = 3, cells + pad
        rng = np.random.default_rng(seed)
        u_prev, u_curr = rng.uniform(-1.0, 1.0, (2, rows, cells))
        source = np.abs(u_curr) ** 2
        dt_old, dt_new = cfl_old * dr * t**alpha, cfl_new * dr * t**alpha
        scale = float(np.max(np.abs([u_prev, u_curr])))

        s = stripes([u_curr], dr, n, stride)
        s.stencil(1, 0, 2, 1.0, 0.0)
        lap = s.grid[1]
        s = stripes([u_prev, u_curr, source], dr, n, stride)
        s.step(2, 0, 1, t, dt_old, dt_new, alpha, mu, cells)
        out = s.grid[2]
        unpadded = laplacian(u_curr, dr, n)  # rows of stride = cells
        for i in range(rows):
            prev, curr, src = u_prev[i], u_curr[i], source[i]
            assert np.array_equal(lap[i, :cells], laplacian(curr, dr, n))
            assert np.array_equal(unpadded[i], lap[i, :cells])
            want = textbook_laplacian(curr, dr, n)
            assert np.max(np.abs(lap[i, :cells] - want)) <= 1e-12 * scale / dr**2
            assert np.array_equal(
                out[i, :cells], update(prev, curr, t, dt_old, dt_new, dr, n, alpha, mu, src)
            )
            want = textbook_update(prev, curr, t, dt_old, dt_new, dr, n, alpha, mu, src)
            assert np.max(np.abs(out[i, :cells] - want)) <= 1e-12 * scale
        # a step zeroes every cell from its width on: with width = cells,
        # exactly the padding; with a smaller width, the cut-off columns too
        assert np.all(out[:, cells:] == 0.0)
        width = int(rng.integers(0, cells + 1))
        s = stripes([u_prev, u_curr, source], dr, n, stride)
        s.step(2, 0, 1, t, dt_old, dt_new, alpha, mu, width)
        assert np.array_equal(s.grid[2][:, :width], out[:, :width])
        assert np.all(s.grid[2][:, width:] == 0.0)


def levels_at(offset, rows, stride, dr, n):
    """A fresh ``_Stripes`` whose levels start ``offset`` bytes past a 64-byte
    boundary, built while ``pde._aligned`` moves each start by ``offset``."""
    aligned, skip = pde._aligned, offset // 8
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pde, "_aligned", lambda size: aligned(size + skip)[skip:])
        s = _Stripes(rows, stride, dr, n)
    assert s.levels.ctypes.data % 64 == offset
    return s


def relaid(levels, dr, n):
    """A fresh ``_Stripes`` holding a copy of ``levels``."""
    s = _Stripes(*levels.shape[1:], dr, n)
    s.levels[:] = levels
    return s


class TestStripeViews:
    """A layout is never edited: ``laid_out`` lays rows out afresh, the rows
    that stay at the same pitch when some leave and every row at a wider
    pitch when the grid grows, row by row with no temporary copy.  After
    either, a step gives each row the bits that a fresh layout of the same
    rows gives it, and the flat views a step writes through are the grid's
    own memory.  Every layout of a run starts on a 64-byte boundary with a
    pitch of whole cache lines, and that alignment changes no bit; every
    full-length pass stores on a cache line, and no value of the guard
    double ahead of level 0 reaches a row."""

    @staticmethod
    def step(s, cells):
        assert all(np.shares_memory(flat, grid) for flat, grid in zip(s.flat, s.grid))
        s.step(2, 0, 1, 3.0, 0.02, 0.021, 0.5, 2.0, cells)
        s.stencil(0, 2, 1, 1.0, 0.5)  # and the stencil alone, on the new level
        return s.levels[:3]

    @pytest.mark.parametrize("n", [2, 5])
    def test_keep_and_lay_out_match_a_fresh_layout(self, n):
        rows, cells, dr = 4, 40, 0.05
        levels = np.zeros((4, rows, _pitch(cells)))
        levels[:3, :, :cells] = np.random.default_rng(n).uniform(-1.0, 1.0, (3, rows, cells))
        levels[2, :, :cells] **= 2  # the source |u|^p
        kept = np.array([True, False, True, True])
        s = relaid(levels, dr, n)
        s = s.laid_out(np.flatnonzero(kept), s.stride)  # as a leave lays it out
        assert s.levels.shape[1] == 3 and s.flat[0].size == 3 * s.stride
        fresh = relaid(levels[:, kept], dr, n)
        narrow = self.step(s, cells)
        for got, want in zip(narrow, self.step(fresh, cells)):
            assert np.array_equal(got, want)

        # the rows left after the step, laid out again for a grid of 90 cells
        wide = s.laid_out(range(3), _pitch(90))
        assert (wide.levels.shape[1], wide.stride) == (3, _pitch(90))
        fresh = _Stripes(3, _pitch(90), dr, n)
        fresh.levels[:, :, : s.stride] = s.levels
        widened = self.step(wide, 80)
        for got, want in zip(widened, self.step(fresh, 80)):
            assert np.array_equal(got, want)
        assert np.all(widened[2][:, 80:] == 0.0)

    def test_a_leave_lays_out_without_a_temporary(self):
        # 6 rows of 6,000 cells keep 5: the new layout holds 0.95 MiB of
        # levels, which np.compress(..., out=) overshot by 0.42 MiB
        s = _Stripes(6, _pitch(6000), 0.01, 3)
        tracemalloc.start()
        try:
            kept = s.laid_out([0, 1, 3, 4, 5], s.stride)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept.levels.shape == (4, 5, s.stride)
        assert peak - held < kept.levels.nbytes / 4

    def test_every_layout_of_a_run_starts_on_a_cache_line(self, monkeypatch):
        layouts = []
        init = _Stripes.__init__

        def record(s, rows, stride, dr, n):
            init(s, rows, stride, dr, n)
            layouts.append((s.levels.ctypes.data % 64, *s.levels.shape[1:]))

        monkeypatch.setattr(_Stripes, "__init__", record)
        rows = _run_batch(replace(BASE, dr=0.05, t_max=20.0), [0.05, 2.0])
        assert [r.termination for r in rows] == ["horizon", "threshold"]
        offsets, counts, strides = zip(*layouts)
        assert counts[0] == 2 and counts[-1] == 1  # a row left
        assert len(set(strides)) > 1  # and the grid grew
        assert set(offsets) == {0} and all(stride % 8 == 0 for stride in strides)

    def test_no_layout_outlives_the_step_after_it_is_replaced(self, monkeypatch):
        # a sweep leaves a row, then grows its grid: when a layout is built,
        # only the first one's levels (the start's u0 views them) and the one
        # it is laid out from may still be alive
        alive, counts = [], []
        init = _Stripes.__init__

        def record(s, rows, stride, dr, n):
            init(s, rows, stride, dr, n)
            counts.append(sum(ref() is not None for ref in alive))
            alive.append(weakref.ref(s.levels.base))

        monkeypatch.setattr(_Stripes, "__init__", record)
        rows = _run_batch(replace(BASE, dr=0.05, t_max=20.0, sample_dt=math.inf), [0.05, 2.0])
        assert [r.termination for r in rows] == ["horizon", "threshold"]
        assert len(counts) > 3 and max(counts) <= 2

    def test_every_pass_stores_on_a_cache_line(self, monkeypatch):
        # each full-length pass of a run stores to, and reads its first
        # operand from, a cache line; the two weight tiles are the first
        # operands of the neighbour products
        layouts, offsets = [], set()
        init = _Stripes.__init__

        def record(s, rows, stride, dr, n):
            init(s, rows, stride, dr, n)
            layouts.append(s)

        class Spy:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __getattr__(self, name):
                return getattr(self.ufunc, name)

            def __call__(self, first, second, out):
                s = layouts[-1] if layouts else None
                full = s and out.ndim == 1 and out.size >= s.flat[0].size - 1
                if full and np.shares_memory(out, s.levels):  # not a new layout's weights
                    offsets.add((first.ctypes.data % 64, out.ctypes.data % 64))
                return self.ufunc(first, second, out=out)

        class Numpy:
            add, multiply = Spy(np.add), Spy(np.multiply)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(_Stripes, "__init__", record)
        monkeypatch.setattr(pde, "np", Numpy())
        rows = _run_batch(replace(BASE, dr=0.05, t_max=20.0), [0.05, 2.0])
        assert [r.termination for r in rows] == ["horizon", "threshold"]
        counts, strides = zip(*(s.levels.shape[1:] for s in layouts))
        assert counts[0] == 2 and counts[-1] == 1 and len(set(strides)) > 1
        assert offsets == {(0, 0)}

    def test_a_step_allocates_nothing_the_size_of_a_row(self):
        # every pass writes into a level: a temporary would be a row, 64 KB
        cells, dr = 8000, 1e-3
        s = _Stripes(1, _pitch(cells), dr, 3)
        s.levels[:3, 0, :cells] = np.random.default_rng(0).uniform(-1.0, 1.0, (3, cells))
        prev, curr, nxt = 0, 1, 2
        tracemalloc.start()
        try:
            for i in range(50):
                s.step(nxt, prev, curr, 3.0 + i * 4e-4, 4e-4, 4e-4, 0.5, 2.0, cells)
                prev, curr, nxt = curr, nxt, prev
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.flat[0].nbytes / 8

    @pytest.mark.parametrize("poison", [math.nan, math.inf])
    @pytest.mark.parametrize("n", [2, 5])
    def test_the_guard_reaches_no_row(self, n, poison):
        # u[i-1] reads, at each row's first cell, the last cell of the row
        # before, and at level 0 the guard ahead of it.  The left weight is
        # 0 there, but 0 x inf is NaN: the starts fill keeps it out.
        rows, cells, dr = 3, 45, 0.05
        fields = np.random.default_rng(n).uniform(-1.0, 1.0, (3, rows, cells))
        fields[2] **= 2  # the source |u|^p

        def stepped(value):
            s = _Stripes(rows, _pitch(cells), dr, n)
            s.levels[:3, :, :cells] = fields
            s.before[0][0] = value  # the guard
            s.flat[0][-1] = value  # the last cell of level 0, the level before u = 1
            with np.errstate(invalid="ignore"):  # 0 x inf, as a run meets it
                s.step(2, 0, 1, 3.0, 0.02, 0.021, 0.5, 2.0, cells)  # a stencil at u = 1
                s.stencil(1, 0, 2, 1.0, 0.5)  # and one at u = 0
            return s.levels[:3]

        assert np.array_equal(stepped(poison), stepped(0.0))

    @pytest.mark.parametrize("offset", range(8, 64, 8))
    @pytest.mark.parametrize("n", [2, 5])
    def test_alignment_changes_no_bit(self, n, offset):
        rows, cells, dr = 3, 45, 0.05
        fields = np.random.default_rng(offset).uniform(-1.0, 1.0, (3, rows, cells))
        fields[2] **= 2  # the source |u|^p
        stepped = []
        stride = _pitch(cells)
        for s in (_Stripes(rows, stride, dr, n), levels_at(offset, rows, stride, dr, n)):
            s.levels[:3, :, :cells] = fields
            stepped.append(self.step(s, cells))
        aligned, shifted = stepped
        assert aligned.ctypes.data % 64 == 0
        assert np.array_equal(aligned, shifted)


class TestEnergyLaw:
    """ROADMAP item 9.  At alpha = 0 with no source, multiplying the step by
    u^(k+1) - u^(k-1) in the inner product of the cell volumes
    V_i = ((r_i + dr/2)^n - max(r_i - dr/2, 0)^n)/n gives the discrete energy
    E^(k+1/2) = 1/2 sum V ((u^(k+1) - u^k)/dt)^2 + 1/2 sum V u^(k+1) (-Lap u^k):
    conserved for mu = 0 and never raised for mu > 0, whenever the stencil
    is symmetric in V.  Today's stencil is symmetric only at n = 2: at n = 3-5
    it drains E a little every step, and at n >= 6 it is unstable, which
    raises E from t = 3-5.5 on, so the runs go from t = 1 to 6.  A flux-form
    stencil (ROADMAP item 2) should pass in every dimension."""

    @staticmethod
    def energies(n, mu, dr, share):
        cfl = share * CFL_LIMITS.get(n, 0.5)
        dt = cfl * dr  # dt = cfl dr t^alpha at alpha = 0, below DT_CAP
        r = dr * np.arange(int(7.0 / dr) + 1)  # the wave stays inside r < 6
        V = ((r + dr / 2) ** n - np.maximum(r - dr / 2, 0.0) ** n) / n
        u0 = bump3(r, 1.0)
        s = stripes([u0, u0], dr, n)  # u(1) = u(1 + dt): data at rest
        prev, curr, nxt, t = 0, 1, 2, 1.0 + dt
        energies = []
        with np.errstate(all="ignore"):
            while True:
                u, u_new = s.grid[prev][0], s.grid[curr][0]
                lap = laplacian(u, dr, n)
                energies.append(0.5 * np.sum(V * ((u_new - u) / dt) ** 2)
                                - 0.5 * np.sum(V * u_new * lap))
                if t >= 6.0:
                    return np.array(energies)
                s.grid[nxt].fill(0.0)  # no source
                s.step(nxt, prev, curr, t, dt, dt, 0.0, mu, r.size)
                t += dt
                prev, curr, nxt = curr, nxt, prev

    @staticmethod
    def draw(n):
        """dr in [1/50, 1/20], cfl as a share of the limit and mu > 0, fixed per n."""
        rng = np.random.default_rng(n)
        return 1.0 / rng.uniform(20.0, 50.0), rng.uniform(0.1, 0.95), rng.uniform(0.1, 5.0)

    @pytest.mark.parametrize("n", [
        2, *(pytest.param(n, marks=pytest.mark.xfail(
            raises=AssertionError, reason="the stencil is not symmetric in V for n >= 3"))
             for n in range(3, 9))
    ])
    def test_conserved_without_damping(self, n):
        dr, share, _ = self.draw(n)
        E = self.energies(n, 0.0, dr, share)
        assert np.max(np.abs(E - E[0])) <= 1e-11 * E[0]

    @pytest.mark.parametrize("n", [
        2, 3, 4, 5, *(pytest.param(n, marks=pytest.mark.xfail(
            raises=AssertionError, reason="the stencil is unstable for n >= 6"))
            for n in range(6, 9))
    ])
    def test_never_raised_with_damping(self, n):
        dr, share, mu = self.draw(n)
        E = self.energies(n, mu, dr, share)
        assert np.all(np.diff(E) <= 1e-12 * E[0])


class TestLifespanPins:
    """T, termination and sample count as the unfolded stencil gave them:
    T is a grid time, so rounding in the stencil must not move it."""

    def test_single_run(self):
        res = run(BASE)
        assert (res.T_num, res.termination, res.t_samples.size) == (
            37.25185883014535, "threshold", 720
        )

    def test_batch_of_three(self):
        rows = _run_batch(BASE, [0.25, 0.5, 1.0])
        assert [(r.T_num, r.termination, r.t_samples.size) for r in rows] == [
            (50.05700738018666, "horizon", 936),
            (37.25185883014535, "threshold", 720),
            (17.873922834224697, "threshold", 338),
        ]


class TestSeriesStorage:
    def test_recorded_values_cost_under_16_bytes_each(self):
        # ~8.7k steps on a tiny grid, each one a sample of 5 values: the
        # recorded series dominate the traced peak, so it measures how a
        # value is stored (8 B as a packed double; a list of Python floats
        # takes 32 B)
        cfg = replace(BASE, dr=0.05, cfl=0.01, t_max=10.0, sample_dt=1e-4)
        tracemalloc.start()
        try:
            rows = _run_batch(cfg, [0.1, 0.2, 0.3])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = sum(5 * row.t_samples.size for row in rows)
        assert values > 100_000
        assert peak < 16 * values


class TestSnapshotBudget:
    def test_snapshot_times_over_budget_are_refused(self, monkeypatch):
        monkeypatch.setattr(pde, "_Stripes", None)  # refused before anything is built
        cfg = replace(BASE, dr=0.05, t_max=3.0)
        times = tuple(1.0 + i / pde.MAX_SNAPSHOTS for i in range(pde.MAX_SNAPSHOTS + 1))
        with pytest.raises(ValueError, match="snapshot budget"):
            run(replace(cfg, snapshot_times=times))

    def test_non_finite_snapshot_times_are_refused(self, monkeypatch):
        # the pending times are sorted and NaN compares false: [nan, 2, 3]
        # once gave no snapshot, [2, nan, 3] only t = 2, and inf none
        monkeypatch.setattr(pde, "_Stripes", None)  # refused before anything is built
        cfg = replace(BASE, dr=0.05, t_max=5.0)
        for times in ((math.nan, 2.0, 3.0), (2.0, math.nan, 3.0), (2.0, math.inf), (-math.inf,)):
            with pytest.raises(ValueError, match="snapshot times must be finite"):
                run(replace(cfg, snapshot_times=times))

    @pytest.mark.parametrize("times", [[2.0, 3.0], 1.5, "12", ("2",)])
    def test_snapshot_times_that_are_not_a_tuple_of_numbers_are_refused(self, times):
        # a list once built a config whose hash raised TypeError, and 1.5 and
        # "12" reached the budget check and raised TypeError there
        with pytest.raises(ValueError, match="snapshot_times must be a tuple of numbers"):
            replace(BASE, snapshot_times=times)

    def test_snapshot_times_at_budget_run(self):
        cfg = replace(BASE, dr=0.05, t_max=1.2)
        res = run(replace(cfg, snapshot_times=(1.0,) * pde.MAX_SNAPSHOTS))
        assert len(res.snapshots) == pde.MAX_SNAPSHOTS


class TestRunOutcome:
    def test_overflow_is_not_a_blowup(self):
        cfg = replace(BASE, p=3.0, eps=1e200, dr=0.05, t_max=2.0, blowup_threshold=1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run(cfg)
        assert res.termination == "overflow" and res.blew_up is False

    def test_data_at_the_threshold_is_refused(self):
        # sup u(1) = eps bump3(0) = eps: such data would leave one step late
        for eps in (1e8, 2e8):
            with pytest.raises(ValueError, match="exceed the initial data"):
                replace(BASE, eps=eps)
        # a batch checks every row, not only the config it was given
        with pytest.raises(ValueError, match="exceed the initial data"):
            _run_batch(BASE, [0.5, 1e8])

    def test_config_refuses_n_above_five(self):
        # at n = 6 the scheme "blows up" sooner the finer dr is
        with pytest.raises(ValueError, match="n <= 5"):
            replace(BASE, params=ModelParams(6, 0.5, 2.0))
        res = run(replace(BASE, params=ModelParams(5, 0.5, 2.0), t_max=1.5))
        assert res.termination == "horizon"


class TestStructuralChecksCanFail:
    """Each check on a copy of a run whose checks hold, with one series
    perturbed just past (or just inside) the check's tolerance."""

    @pytest.fixture(scope="class")
    def res(self):
        res = run(replace(BASE, t_max=3.0))
        assert support_check(res) and holder_check(res) and f_monotone_check(res)
        return res

    @pytest.mark.parametrize("cells, holds", [(2.5, False), (1.5, True)])
    def test_support_past_the_light_cone(self, res, cells, holds):
        cfg, k = res.config, 10
        support = res.support_series.copy()
        cone = light_cone_radius(res.t_samples[k], cfg.params.alpha, cfg.R)
        support[k] = cone + cells * cfg.dr
        assert support_check(replace(res, support_series=support)) is holds

    @pytest.mark.parametrize("ratio, holds", [(1.0 - 1e-5, False), (1.0 - 1e-7, True)])
    def test_lp_below_the_holder_bound(self, res, ratio, holds):
        cfg, k = res.config, 10
        vol = ball_volume(cfg.params.n) * light_cone_radius(
            res.t_samples[k], cfg.params.alpha, cfg.R
        ) ** cfg.params.n
        lp = res.lp_series.copy()
        # the Hoelder ratio lp vol^(p-1) / F^p is ``ratio`` at sample k
        lp[k] = ratio * res.F_series[k] ** cfg.p / vol ** (cfg.p - 1.0)
        assert holder_check(replace(res, lp_series=lp)) is holds

    @pytest.mark.parametrize("dip, holds", [(2e-8, False), (0.5e-8, True)])
    def test_f_dip(self, res, dip, holds):
        # a dip from a level above F(1), so only the per-step rule can fail
        F = res.F_series.copy()
        F[10] = F[9] - dip * F[0]
        assert f_monotone_check(replace(res, F_series=F)) is holds

    def test_f_nonpositive_at_start(self, res):
        F = res.F_series.copy()
        F[0] = 0.0
        assert not f_monotone_check(replace(res, F_series=F))

    def test_f_below_its_start(self, res):
        # steps of 0.9e-8 F(1) pass the per-step rule, 2.7e-6 F(1) in all does not
        F = 1.0 - 0.9e-8 * np.arange(300)
        assert not f_monotone_check(replace(res, F_series=F))

    def test_holder_ratio_of_zero_mass(self, res):
        # F = 0 makes the ratio infinite, above any bound
        F = res.F_series.copy()
        F[10] = 0.0
        assert holder_check(replace(res, F_series=F))
        assert holder_check(one_sample(0.0, 0.0, 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "series, check",
        [("support_series", support_check), ("F_series", f_monotone_check),
         ("F_series", holder_check), ("lp_series", holder_check)],
    )
    def test_non_finite_sample_fails(self, res, series, check, value):
        # an overflowed run (pde run --eps 1e200 --p 3) has a NaN nonlinear mass
        bad = getattr(res, series).copy()
        bad[10] = value
        assert not check(replace(res, **{series: bad}))


def support_loop(res):
    """``support_check`` as a loop over the samples: the array check's reference."""
    cfg = res.config
    for t, radius in zip(res.t_samples, res.support_series):
        if not radius <= light_cone_radius(t, cfg.params.alpha, cfg.R) + 2 * cfg.dr:
            return False
    return True


@np.errstate(over="ignore", invalid="ignore")
def holder_loop(res):
    """``holder_check`` as a loop over the samples, with the plain ratio."""
    cfg = res.config
    n, p = cfg.params.n, cfg.p
    for t, F_val, lp_val in zip(res.t_samples, res.F_series, res.lp_series):
        vol = ball_volume(n) * light_cone_radius(t, cfg.params.alpha, cfg.R) ** n
        if not (math.isfinite(F_val) and math.isfinite(lp_val)):
            return False
        if F_val != 0.0 and not lp_val * vol ** (p - 1.0) / abs(F_val) ** p >= 1.0 - 1e-6:
            return False
    return True


def f_monotone_loop(res):
    """``f_monotone_check`` as a loop over the samples."""
    F = res.F_series.tolist()
    if not F or not all(math.isfinite(f) for f in F) or not F[0] > 0.0:
        return False
    for before, after in zip(F, F[1:]):
        if after - before < -1e-8 * F[0] or after < F[0] * (1.0 - 1e-6):
            return False
    return True


# The values a sample of t, F, int |u|^p dx or the support radius may take
# in place of an ordinary one
SPECIALS = ([math.inf, math.nan],) + ([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan],) * 3


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.integers(2, 5), st.floats(0.0, 0.9), st.floats(1.01, 5.0), st.floats(0.5, 2.0),
    st.floats(0.01, 10.0),
    st.lists(st.tuples(st.floats(1.0, 100.0), st.floats(1e-3, 1e3),
                       st.sampled_from([-1.0, -1e-3, -1e-7, 1e-7, 1.0]),
                       st.integers(-10, 3).map(lambda k: k + 0.5)), min_size=1, max_size=4),
    st.booleans(),
    st.lists(st.integers(0, 3).flatmap(
        lambda c: st.tuples(st.just(c), st.integers(0, 3), st.sampled_from(SPECIALS[c]))),
        max_size=2),
)
@example(2, 0.0, 2.0, 1.0, 0.01, [], False, [])  # no sample
@example(2, 0.0, 2.0, 1.0, 0.01, [(1.0, 1.0, 0.0, 0.0)], False, [(2, 0, 0.0)])  # ratio 0
@example(2, 0.0, 2.0, 1.0, 0.01, [(1.0, 1.0, 0.0, 0.0)], False, [(1, 0, 0.0), (2, 0, 0.0)])
@example(3, 0.5, 3.0, 1.0, 0.01, [(1.0, 1.0, 0.0, 0.0)], False, [(0, 0, math.inf), (2, 0, 0.0)])
def test_array_checks_keep_the_loop_verdicts(n, alpha, p, R, dr, rows, rising, specials):
    # Each ordinary sample draws t, F, its log Hoelder ratio and its support
    # radius's distance past the cone in cells, on both sides of and off the
    # checks' bounds; F is sorted when ``rising``, so that f_monotone can
    # hold.  No term of the plain ratio leaves the float range.  Then up to
    # two values are replaced by special ones; the last example's
    # lp vol^(p-1) is 0 x inf.
    cfg = PdeConfig(params=ModelParams(n, alpha, 0.0), p=p, eps=0.5, R=R, dr=dr)
    t, F, log_ratio, cells = np.array(rows, dtype=float).reshape(-1, 4).T.copy()
    if rising:
        F.sort()
    cone = light_cone_radius(t, alpha, R)
    lp = np.exp(log_ratio) * F**p / (ball_volume(n) * cone**n) ** (p - 1.0)
    series = [t, F, lp, cone + cells * dr]
    for column, k, value in specials:
        series[column][k % t.size] = value
    res = PdeResult(1.0, "threshold", t, np.ones(t.size), F, lp, series[3], cfg)
    assert support_check(res) is support_loop(res)
    assert holder_check(res) is holder_loop(res)
    assert f_monotone_check(res) is f_monotone_loop(res)
