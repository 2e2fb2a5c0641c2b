import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flrwave.exponents import (
    FlrwParams,
    ModelParams,
    Quadratic,
    RootNote,
    RootReport,
    flrw_to_model,
    fujita,
    gamma,
    gamma0,
    gamma0_quadratic,
    gamma_quadratic,
    mu_star,
    p_c,
    p_c_flrw,
    positive_root,
    strauss_exponent,
    strauss_quadratic,
    w_star,
)


def np_roots_positive(q):
    """Independent root oracle: numpy companion-matrix roots, smallest positive."""
    roots = np.roots([q.c2, q.c1, q.c0])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real > 0]
    return min(real) if real else None


def admissible_w_grid(n, step=0.05):
    lo = 2.0 / n - 1.0
    k0 = int(math.floor(lo / step)) + 1
    return [round(k * step, 10) for k in range(k0, int(1.0 / step) + 1) if k * step > lo]


class TestParams:
    def test_model_params_validation(self):
        ModelParams(2, 0.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(2, 1.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(2, -0.1, 0.0)
        with pytest.raises(ValueError):
            ModelParams(2, 0.0, -1.0)
        with pytest.raises(ValueError):
            ModelParams(2, 0.5, float("nan"))
        with pytest.raises(ValueError):
            ModelParams(2, float("nan"), 0.0)

    def test_flrw_params_validation(self):
        FlrwParams(2, 1.0)
        FlrwParams(3, -0.3)
        with pytest.raises(ValueError):
            FlrwParams(3, -0.34)  # below 2/n - 1
        with pytest.raises(ValueError):
            FlrwParams(2, 1.1)
        with pytest.raises(ValueError):
            FlrwParams(2, 0.0)  # boundary of the n=2 range is excluded

    def test_effective_dim(self):
        assert ModelParams(2, 0.6, 0.0).effective_dim == pytest.approx(0.8, rel=1e-15)


class TestFujita:
    def test_values(self):
        assert fujita(2) == 2.0
        assert fujita(0.8) == 3.5
        assert fujita(1) == 3.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fujita(0.0)
        with pytest.raises(ValueError):
            fujita(-1.0)


class TestStrauss:
    def test_coefficients(self):
        assert strauss_quadratic(2) == Quadratic(-1.0, 3.0, 2.0)
        assert strauss_quadratic(3) == Quadratic(-2.0, 4.0, 2.0)

    def test_evaluation(self):
        assert strauss_quadratic(2)(1.0) == 4.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            strauss_quadratic(1)

    def test_root_n3_is_1_plus_sqrt2(self):
        assert strauss_exponent(3) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)


class TestPositiveRoot:
    def test_known_roots(self):
        r = positive_root(Quadratic(-2.0, 4.0, 2.0))
        assert r.note is RootNote.TWO_REAL_ONE_POSITIVE
        assert r.root == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)
        r = positive_root(Quadratic(-1.0, 3.0, 2.0))
        assert r.root == pytest.approx((3.0 + math.sqrt(17.0)) / 2.0, rel=1e-14)

    def test_no_positive_root_by_sign_scan(self):
        # oracle: brute-force sign scan over p in (0, 100]
        q = gamma_quadratic(ModelParams(2, 0.6, 0.0))
        assert q.c2 == pytest.approx(0.5, rel=1e-14)
        assert q.c1 == pytest.approx(7.5, rel=1e-14)
        assert q.c0 == 2.0
        values = [q(p) for p in np.linspace(1e-3, 100.0, 20000)]
        assert min(values) > 0.0
        assert positive_root(q).note is RootNote.NO_POSITIVE_ROOT

    def test_degenerate_linear(self):
        r = positive_root(Quadratic(0.0, 2.0, -4.0))
        assert r.note is RootNote.DEGENERATE_LINEAR
        assert r.root == 2.0
        assert positive_root(Quadratic(0.0, 2.0, 4.0)).note is RootNote.NO_POSITIVE_ROOT

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            positive_root(Quadratic(0.0, 0.0, 0.0))

    def test_complex_roots_mean_no_crossing(self):
        assert positive_root(Quadratic(1.0, 0.0, 1.0)).note is RootNote.NO_POSITIVE_ROOT

    def test_nonzero_constant_has_no_root(self):
        no_root = RootReport(None, RootNote.NO_POSITIVE_ROOT)
        assert positive_root(Quadratic(0.0, 0.0, 1.0)) == no_root

    def test_double_root(self):
        r = positive_root(Quadratic(1.0, -2.0, 1.0))
        assert r.root == 1.0 and r.note is RootNote.TWO_REAL_ONE_POSITIVE

    def test_matches_numpy_roots_oracle(self):
        for n in range(2, 7):
            for mu in (0.0, 0.5, 1.0, 2.0, 3.0):
                for alpha in (0.0, 0.3, 0.6, 0.9):
                    q = gamma_quadratic(ModelParams(n, alpha, mu))
                    mine = positive_root(q).root
                    oracle = np_roots_positive(q)
                    if mine is None:
                        assert oracle is None
                    else:
                        assert mine == pytest.approx(oracle, rel=1e-12)

    def test_residual_invariant(self):
        for n in range(2, 7):
            for mu in (0.0, 0.7, 1.5, 2.5):
                q = gamma_quadratic(ModelParams(n, 0.4, mu))
                rep = positive_root(q)
                if rep.root is not None:
                    scale = max(abs(q.c2), abs(q.c1), abs(q.c0))
                    assert abs(q(rep.root)) <= 1e-10 * scale


class TestGamma:
    def test_hand_values(self):
        assert gamma(ModelParams(3, 0.0, 0.0), 2.0) == pytest.approx(2.0, abs=1e-14)
        assert gamma(ModelParams(2, 0.6, 0.0), 1.0) == pytest.approx(10.0, rel=1e-14)

    def test_reduces_to_strauss_at_zero_damping(self):
        for n in range(2, 7):
            sq = strauss_quadratic(n)
            gq = gamma_quadratic(ModelParams(n, 0.0, 0.0))
            for p in np.arange(1.0, 5.0 + 1e-9, 0.1):
                a, b = gq(float(p)), sq(float(p))
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    @settings(deadline=None)
    @given(n=st.integers(2, 7), mu=st.floats(0.0, 5.0))
    def test_zero_alpha_is_strauss_in_dimension_n_plus_mu(self, n, mu):
        # the scale-invariant damped wave equation: Strauss in dimension n + mu
        # (D'Abbicco 2015); N need not be an integer, so compare coefficients
        q, dim = gamma_quadratic(ModelParams(n, 0.0, mu)), n + mu
        assert q.c2 == pytest.approx(-(dim - 1.0), rel=1e-15)
        assert q.c1 == pytest.approx(dim + 1.0, rel=1e-15)
        assert q.c0 == 2.0

    def test_known_special_coefficients(self):
        # alpha = 2/3, mu = 2 collapses to (-(n+3), n+13, 2)
        for n in range(2, 7):
            q = gamma_quadratic(ModelParams(n, 2.0 / 3.0, 2.0))
            assert q.c2 == pytest.approx(-(n + 3.0), rel=1e-13)
            assert q.c1 == pytest.approx(n + 13.0, rel=1e-13)
            assert q.c0 == 2.0

    def test_p_validation(self):
        with pytest.raises(ValueError):
            gamma(ModelParams(2, 0.0, 0.0), 0.0)


class TestPc:
    def test_equals_strauss_without_damping_or_decay(self):
        assert p_c(ModelParams(3, 0.0, 0.0)).root == pytest.approx(
            strauss_exponent(3), rel=1e-14
        )

    def test_special_point_value(self):
        # positive root of -6p^2 + 16p + 2, i.e. (4 + sqrt(19))/3
        root = p_c(ModelParams(3, 2.0 / 3.0, 2.0)).root
        assert root == pytest.approx((4.0 + math.sqrt(19.0)) / 3.0, rel=1e-12)
        assert root == pytest.approx(2.786299647846891, rel=1e-12)

    def test_unrestricted_case(self):
        assert p_c(ModelParams(2, 0.6, 0.0)).root is None


class TestGamma0:
    def test_hand_value(self):
        assert gamma0(3, 2.0, 1.0) == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_flrw_critical_root(self):
        root = p_c_flrw(FlrwParams(3, 1.0)).root
        assert root == pytest.approx((7.0 + math.sqrt(73.0)) / 6.0, rel=1e-12)
        assert root == pytest.approx(2.590667290886255, rel=1e-12)

    def test_factorization_identity(self):
        for n in range(2, 7):
            for w in admissible_w_grid(n):
                f = FlrwParams(n, w)
                params = flrw_to_model(f)
                prefactor = 1.0 - 2.0 / (n * (1.0 + w))
                for p in (1.2, 2.0, 3.3, 4.7):
                    lhs = gamma0(n, p, w)
                    rhs = prefactor * gamma(params, p)
                    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_dominates_undamped_quadratic_above_one(self):
        # gamma0 - gamma_S = 4(p-1)/(n(1+w)): positive exactly for p > 1
        for n in (2, 3, 5):
            for w in admissible_w_grid(n, step=0.1):
                sq = strauss_quadratic(n)
                for p in np.arange(1.05, 5.0, 0.25):
                    assert gamma0(n, float(p), w) > sq(float(p))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma0_quadratic(3, -1.0)


class TestMuStar:
    def test_hand_value(self):
        assert mu_star(2, 0.6) == pytest.approx(11.0 / 7.0, rel=1e-14)

    @settings(deadline=None)
    @given(n=st.integers(2, 7))
    def test_zero_alpha_closed_form(self, n):
        # where the Fujita and the Strauss (dimension n + mu) curves of the
        # scale-invariant damped wave equation meet (D'Abbicco 2015)
        assert mu_star(n, 0.0) == pytest.approx((n * n + n + 2.0) / (n + 2.0), rel=1e-15)

    def test_fujita_root_consistency(self):
        # gamma vanishes at the effective Fujita exponent when mu = mu*
        value = gamma(ModelParams(2, 0.6, mu_star(2, 0.6)), fujita(0.8))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_exceeds_one_on_grid(self):
        for n in range(2, 7):
            for alpha in np.arange(0.0, 0.96, 0.05):
                assert mu_star(n, float(alpha)) > 1.0

    def test_alpha_one_refused(self):
        with pytest.raises(ValueError, match="alpha must satisfy"):
            mu_star(2, 1.0)


class TestWStar:
    def test_values(self):
        # larger roots of 42w^2+24w-2 and 16w^2+4w-4
        assert w_star(3) == pytest.approx((-12.0 + math.sqrt(228.0)) / 42.0, rel=1e-12)
        assert w_star(2) == pytest.approx((-1.0 + math.sqrt(17.0)) / 8.0, rel=1e-12)

    def test_critical_curves_cross(self):
        for n in (2, 3):
            w = w_star(n)
            params = flrw_to_model(FlrwParams(n, w))
            p_f = fujita(params.effective_dim)
            pc = p_c_flrw(FlrwParams(n, w)).root
            assert abs(p_f - pc) < 1e-8

    @settings(deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 2**53))
    # where c1^2 - 4 c2 c0 first cancels, and where it once gave no root
    @example(n=578)
    @example(n=10**8)
    @example(n=10**12)
    @example(n=2**53)
    def test_matches_the_60_digit_root(self, n):
        # the larger root -2 c0 / (c1 + sqrt(disc)) in 60-digit decimals; 4 ulp
        # of w is the float limit near w = -1
        with localcontext() as ctx:
            ctx.prec = 60
            d = Decimal(n)
            c1, c0 = 2 * d * (d - 1) ** 2, d**3 - 5 * d * d + 8 * d - 8
            root = -2 * c0 / (c1 + (c1 * c1 - 4 * d * (d * d + d + 2) * c0).sqrt())
            got = w_star(n)
            assert abs(Decimal(got) - root) <= 4 * Decimal(math.ulp(float(root))), (n, got, root)

    def test_direct_root_finding_oracle(self):
        # bisection on p_F(n - 2/(1+w)) - p_c(n, w) over the admissible range
        n = 2

        def crossing(w):
            params = flrw_to_model(FlrwParams(n, w))
            return fujita(params.effective_dim) - p_c_flrw(FlrwParams(n, w)).root

        lo, hi = 0.2, 0.6
        assert crossing(lo) * crossing(hi) < 0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if crossing(lo) * crossing(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert w_star(n) == pytest.approx(0.5 * (lo + hi), abs=1e-10)


class TestFlrwMap:
    def test_hand_values(self):
        m = flrw_to_model(FlrwParams(3, 1.0 / 3.0))
        assert (m.alpha, m.mu) == (pytest.approx(0.5), pytest.approx(1.5))
        m = flrw_to_model(FlrwParams(3, 1.0))
        assert (m.alpha, m.mu) == (pytest.approx(1.0 / 3.0), pytest.approx(1.0))

    def test_effective_dim_identity(self):
        for n in range(2, 7):
            for w in admissible_w_grid(n):
                m = flrw_to_model(FlrwParams(n, w))
                expected = n - 2.0 / (1.0 + w)
                assert m.effective_dim == pytest.approx(expected, rel=1e-12)

    def test_image_in_admissible_range(self):
        for n in range(2, 7):
            for w in admissible_w_grid(n):
                m = flrw_to_model(FlrwParams(n, w))
                assert 1.0 / n <= m.alpha < 1.0
                assert m.mu >= 1.0 - 1e-15

    def test_exceeds_undamped_critical_exponent(self):
        for n in range(2, 7):
            p_s = strauss_exponent(n)
            for w in admissible_w_grid(n):
                assert p_c_flrw(FlrwParams(n, w)).root > p_s
