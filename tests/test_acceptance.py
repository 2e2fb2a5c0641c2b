"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible with
`pytest -s` or `pytest -rA`).  Criteria mix exact algebraic reproduction with
property and scaling checks; absolute lifespan constants are not reproducible
and are nowhere asserted.
"""

import csv
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from flrwave import blowup_ode, kato, pde
from flrwave.bounds import (
    heatlike_exponent,
    heatlike_wavelike_threshold,
    intermediate_exponent,
    intermediate_wavelike_threshold,
    wavelike_exponent,
)
from flrwave.cli import main
from flrwave.exponents import (
    FlrwParams,
    ModelParams,
    flrw_to_model,
    fujita,
    gamma,
    gamma0,
    gamma_quadratic,
    mu_star,
    p_c,
    p_c_flrw,
    strauss_exponent,
    strauss_quadratic,
    w_star,
)


@contextmanager
def criterion(num, name, runtime_limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL ({name})")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {num}: PASS ({name}, {elapsed:.2f}s)")
    assert elapsed < runtime_limit, f"criterion {num} exceeded {runtime_limit}s"


def w_grid(n, step=0.05):
    lo = 2.0 / n - 1.0
    k0 = int(math.floor(lo / step)) + 1
    return [round(k * step, 10) for k in range(k0, int(1.0 / step) + 1) if k * step > lo]


def test_criterion_01_exponent_identities():
    with criterion(1, "exponent identity suite", 1.0):
        for n in range(2, 7):
            sq = strauss_quadratic(n)
            gq = gamma_quadratic(ModelParams(n, 0.0, 0.0))
            for p in np.arange(1.0, 5.0 + 1e-9, 0.1):
                assert gq(float(p)) == pytest.approx(sq(float(p)), rel=1e-12, abs=1e-12)
            special = gamma_quadratic(ModelParams(n, 2.0 / 3.0, 2.0))
            assert special.c2 == pytest.approx(-(n + 3.0), rel=1e-14)
            assert special.c1 == pytest.approx(n + 13.0, rel=1e-14)
            assert special.c0 == 2.0
            for w in w_grid(n):
                params = flrw_to_model(FlrwParams(n, w))
                assert params.effective_dim == pytest.approx(
                    n - 2.0 / (1.0 + w), rel=1e-12
                )
                prefactor = 1.0 - 2.0 / (n * (1.0 + w))
                for p in (1.3, 2.1, 3.7):
                    assert gamma0(n, p, w) == pytest.approx(
                        prefactor * gamma(params, p), rel=1e-12, abs=1e-12
                    )


def test_criterion_02_ordering_claims():
    with criterion(2, "ordering claims", 1.0):
        for n in range(2, 7):
            p_s = strauss_exponent(n)
            sq = strauss_quadratic(n)
            for w in w_grid(n):
                assert p_c_flrw(FlrwParams(n, w)).root > p_s
                for p in np.arange(1.05, 5.0 + 1e-9, 0.05):
                    assert gamma0(n, float(p), w) > sq(float(p))
            for alpha in np.arange(0.0, 0.951, 0.05):
                assert mu_star(n, float(alpha)) > 1.0


def test_criterion_03_threshold_crossings():
    with criterion(3, "threshold-crossing identities", 1.0):
        crossings_a = crossings_c = 0
        for n in (2, 3, 4):
            for alpha in (0.1, 0.3, 0.6):
                for mu in np.arange(0.2, 2.01, 0.2):
                    params = ModelParams(n, alpha, float(mu))
                    pc = p_c(params).root or math.inf
                    thr_a = intermediate_wavelike_threshold(params)
                    if math.isfinite(thr_a) and 1.0 < thr_a < pc:
                        wav = wavelike_exponent(params, thr_a)
                        mid = intermediate_exponent(params, thr_a)
                        assert wav == pytest.approx(mid, rel=1e-9)
                        crossings_a += 1
                    thr_c = heatlike_wavelike_threshold(params)
                    if math.isfinite(thr_c) and 1.0 < thr_c < fujita(params.effective_dim):
                        wav = wavelike_exponent(params, thr_c)
                        heat = heatlike_exponent(params, thr_c)
                        assert wav == pytest.approx(heat, rel=1e-9)
                        crossings_c += 1
        assert crossings_a >= 10 and crossings_c >= 10
        w3 = w_star(3)
        params = flrw_to_model(FlrwParams(3, w3))
        assert abs(fujita(params.effective_dim) - p_c_flrw(FlrwParams(3, w3)).root) < 1e-8


def _load_map(path):
    cells = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for a, b, label, _best in reader:
            cells[(float(a), float(b))] = label
    return cells


def test_criterion_04_figure_reproduction(tmp_path):
    with criterion(4, "figure reproduction", 10.0):
        out1 = tmp_path / "fig1"
        assert main(["map", "--preset", "fig1", "--out", str(out1)]) == 0
        cells = _load_map(out1 / "map.csv")
        counts = {}
        for label in cells.values():
            counts[label] = counts.get(label, 0) + 1
        assert counts["A"] > 0 and counts["B"] > 0 and counts["C"] > 0

        # the B/C boundary, the wavelike critical curve, and the Fujita-type
        # line intersect at (mu*, 3.5) within one grid cell
        ms = mu_star(2, 0.6)
        mu_col = round(round(ms / 0.01) * 0.01, 12)
        window = {
            cells[(round(mu_col + dm, 12), round(3.5 + dp, 12))]
            for dm in (-0.01, 0.0, 0.01)
            for dp in (-0.01, 0.0, 0.01)
        }
        assert {"B", "C", "critical_fujita"} <= window

        out2 = tmp_path / "fig2"
        assert main(["map", "--preset", "fig2", "--out", str(out2)]) == 0
        cells2 = _load_map(out2 / "map.csv")
        assert all(label != "A" for label in cells2.values())


def test_criterion_05_kato_machinery():
    with criterion(5, "comparison-lemma machinery", 1.0):
        for p in (1.5, 2.0, 3.0):
            for b in (0.5, 1.0, 2.0):
                for mu in (0.5, 2.0):
                    kc = kato.KatoCriticalParams(p=p, b=b, mu=mu, A0=0.4, A1=1.5, CR=0.8)
                    seqs = kato.iterate_sequences(kc, 30)
                    for s in seqs.states:
                        assert s.b_j == pytest.approx(
                            kato.closed_form_b(kc, s.j), rel=1e-10
                        )
                    _, E = kato.envelope_constants(kc)
                    onset = kato.detect_envelope_onset(seqs)
                    assert onset is not None
                    for s in seqs.states[onset:]:
                        assert s.log_C_j >= (E - 1e-9) * p**s.j
        for j in range(51):
            a, bnext = kato.a_value(j), kato.a_value(j + 1)
            assert a / bnext >= 2.0 / 3.0 - 1e-15
            assert 0.5 ** (j + 1) / bnext > 0.5 ** (j + 2)
        for n, alpha, mu, p in [
            (2, 0.5, 2.0, 1.8),
            (2, 0.6, 0.5, 2.5),
            (3, 0.2, 1.0, 1.4),
            (5, 0.8, 3.0, 2.0),
        ]:
            kp = kato.heatlike_wiring(n, alpha, mu, p, eps=0.3)
            q = n * (1.0 - alpha) * (p - 1.0)
            assert -p * (p - 1.0) / kp.M == pytest.approx(
                -(p - 1.0) / (2.0 - q), rel=1e-12
            )


def test_criterion_06_ode_heatlike_scaling():
    with criterion(6, "comparison-ODE heatlike scaling", 30.0):
        cfg = blowup_ode.OdeConfig(p=1.8, mu=2.0, q=0.8, A1=1.0, R=1.0)
        eps_grid = np.geomspace(1e-3, 1e-1, 8)
        fit = blowup_ode.sweep(cfg, eps_grid)
        predicted = blowup_ode.predicted_slope(cfg.p, cfg.q)
        assert abs(fit.slope - predicted) / abs(predicted) < 0.20
        assert fit.r_squared >= 0.99
        ok, _ = blowup_ode.kato_consistency_check(fit.runs)
        assert ok
        for eps in eps_grid:
            res = blowup_ode.integrate(replace(cfg, eps=float(eps)))
            assert res.blew_up
            assert blowup_ode.monotone_invariant_check(res)


def test_criterion_07_ode_critical_case():
    with criterion(7, "comparison-ODE critical case", 60.0):
        cfg = blowup_ode.OdeConfig(p=2.0, mu=2.0, q=2.0, A1=1.0, R=1.0, t_max=1e8)
        eps_grid = np.geomspace(0.3, 1.2, 6)
        results = [blowup_ode.integrate(replace(cfg, eps=float(e))) for e in eps_grid]
        assert all(r.blew_up for r in results)
        margin = blowup_ode.convexity_margin(results)
        assert margin >= -1e-6


PDE_BASE = pde.PdeConfig(
    params=ModelParams(2, 0.5, 2.0),
    p=2.0,
    eps=0.5,
    R=1.0,
    dr=1.0 / 200.0,
    t_max=50.0,
)


def test_criterion_08_pde_property_suite():
    with criterion(8, "radial solver property suite", 120.0):
        res = pde.run(PDE_BASE)
        assert res.blew_up and res.termination == "threshold"
        assert res.T_num < PDE_BASE.t_max
        assert pde.support_check(res)
        assert pde.holder_check(res)
        assert pde.f_monotone_check(res)
        assert res.F_series[0] > 0.0


def test_criterion_09_pde_refinement_and_scaling():
    with criterion(9, "radial solver refinement and scaling", 900.0):
        t_base = pde.run(PDE_BASE).T_num
        t_half = pde.run(replace(PDE_BASE, dr=PDE_BASE.dr / 2.0)).T_num
        assert abs(t_half - t_base) / t_half < 0.10

        fit = pde.lifespan_sweep(
            replace(PDE_BASE, t_max=900.0), np.geomspace(0.05, 0.8, 6)
        )
        assert abs(fit.slope - (-1.0)) < 0.30
        assert all(b < a for a, b in zip(fit.T_values, fit.T_values[1:]))


def test_criterion_10_determinism(tmp_path):
    runs = {
        "map-fig1": ["map", "--preset", "fig1"],
        "exponents": ["exponents", "--n", "3", "--alpha", "0.25", "--mu", "1.5"],
        "kato-seq": ["kato", "sequences", "--p", "2", "--b", "1", "--mu", "2",
                     "--jmax", "25"],
    }
    with criterion(10, "byte determinism of presets", 60.0):
        compare_overhead = 0.0
        for name, args in runs.items():
            d1, d2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
            assert main(args + ["--out", str(d1)]) == 0
            assert main(args + ["--out", str(d2)]) == 0
            t0 = time.perf_counter()
            names1 = sorted(p.name for p in d1.iterdir())
            names2 = sorted(p.name for p in d2.iterdir())
            assert names1 == names2
            for file_name in names1:
                assert (d1 / file_name).read_bytes() == (d2 / file_name).read_bytes()
            m1 = json.loads((d1 / "manifest.json").read_text())
            m2 = json.loads((d2 / "manifest.json").read_text())
            assert m1 == m2
            compare_overhead += time.perf_counter() - t0
        assert compare_overhead < 1.0
