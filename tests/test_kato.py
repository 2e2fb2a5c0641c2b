import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flrwave.kato import (
    KatoCriticalParams,
    KatoSequences,
    KatoState,
    KatoSubcriticalParams,
    a_value,
    closed_form_b,
    critical_threshold,
    detect_envelope_onset,
    envelope_constants,
    envelope_divergence,
    heatlike_wiring,
    iterate_sequences,
    subcritical_threshold,
)

# the margin and horizon of ``kato envelope``'s defaults
ENVELOPE = {"delta": 1e-3, "horizon": 1e12}


class TestSubcritical:
    def test_hand_example(self):
        kp = KatoSubcriticalParams(p=2.0, a=2.0, b=3.0, q=1.0, A0=1.0)
        assert kp.M == pytest.approx(2.0)
        assert subcritical_threshold(kp).threshold == pytest.approx(1.0)
        kp = KatoSubcriticalParams(p=2.0, a=2.0, b=3.0, q=1.0, A0=0.01)
        ts = subcritical_threshold(kp)
        assert ts.a0_exponent == -(kp.p - 1.0) / kp.M
        assert ts.threshold == pytest.approx(10.0, rel=1e-13)

    def test_inapplicable_rejected(self):
        with pytest.raises(ValueError, match="inapplicable"):
            KatoSubcriticalParams(p=2.0, a=3.0, b=1.0, q=2.0, A0=1.0)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            KatoSubcriticalParams(p=1.0, a=0.0, b=1.0, q=0.5, A0=1.0)
        with pytest.raises(ValueError):
            KatoSubcriticalParams(p=2.0, a=0.0, b=1.0, q=0.5, A0=0.0)
        with pytest.raises(ValueError, match="T1"):
            KatoCriticalParams(p=2.0, b=1.0, mu=0.0, A0=1.0, T1=1.0)
        # NaN fails every bound
        nan = float("nan")
        with pytest.raises(ValueError):
            KatoSubcriticalParams(p=nan, a=0.0, b=1.0, q=0.5, A0=1.0)
        with pytest.raises(ValueError):
            KatoSubcriticalParams(p=2.0, a=0.0, b=1.0, q=nan, A0=1.0)
        with pytest.raises(ValueError):
            KatoCriticalParams(p=2.0, b=nan, mu=0.0, A0=1.0)
        with pytest.raises(ValueError):
            KatoCriticalParams(p=2.0, b=1.0, mu=0.0, A0=nan)
        # and so does a NaN support constant or margin
        for C_R in (0.0, nan):
            with pytest.raises(ValueError, match="support constant C_R must be positive"):
                KatoCriticalParams(p=2.0, b=1.0, mu=0.0, A0=1.0, CR=C_R)
        kc = KatoCriticalParams(p=2.0, b=1.0, mu=0.0, A0=1.0)
        for delta in (0.0, nan):
            with pytest.raises(ValueError, match="margin"):
                envelope_divergence(kc, delta=delta, horizon=100.0)

    def test_wiring_collapses_m(self):
        # q = n(1-alpha)(p-1), a = mu + q, b = mu + 2 gives M = p(2 - q)
        for n, alpha, mu, p in [
            (2, 0.5, 2.0, 1.8),
            (2, 0.6, 0.3, 2.0),
            (3, 0.2, 1.0, 1.3),
            (4, 0.7, 0.0, 2.2),
        ]:
            kp = heatlike_wiring(n, alpha, mu, p, eps=0.1)
            q = n * (1.0 - alpha) * (p - 1.0)
            assert kp.M == pytest.approx(p * (2.0 - q), rel=1e-13)

    def test_wiring_eps_exponent(self):
        # threshold for A0 = eps^p scales as eps^(-p(p-1)/M) = eps^(-(p-1)/(2-q))
        for n, alpha, mu, p in [(2, 0.5, 2.0, 1.8), (3, 0.2, 1.0, 1.3)]:
            q = n * (1.0 - alpha) * (p - 1.0)
            kp = heatlike_wiring(n, alpha, mu, p, eps=1.0)
            assert p * (p - 1.0) / kp.M == pytest.approx(
                (p - 1.0) / (2.0 - q), rel=1e-12
            )
            t1, t2 = (
                subcritical_threshold(heatlike_wiring(n, alpha, mu, p, eps=eps))
                for eps in (0.1, 0.01)
            )
            assert t1.a0_exponent == t2.a0_exponent == -(p - 1.0) / kp.M
            measured = math.log(t2.threshold / t1.threshold) / math.log(10.0)
            assert measured == pytest.approx((p - 1.0) / (2.0 - q), rel=1e-10)


class TestSequences:
    def test_low_damping_closed_form(self):
        kc = KatoCriticalParams(p=2.0, b=1.0, mu=0.5, A0=1.0)
        seqs = iterate_sequences(kc, 2)
        assert [s.b_j for s in seqs.states] == [1.0, 4.0, 10.0]
        assert all(s.a_j is None for s in seqs.states)

    def test_high_damping_closed_form(self):
        kc = KatoCriticalParams(p=2.0, b=1.0, mu=2.0, A0=1.0)
        seqs = iterate_sequences(kc, 2)
        assert [s.b_j for s in seqs.states] == [1.0, 3.0, 7.0]
        assert [s.a_j for s in seqs.states] == [1.0, 1.5, 1.75]

    def test_closed_form_values(self):
        kc = KatoCriticalParams(p=3.0, b=2.0, mu=1.0, A0=1.0)
        assert closed_form_b(kc, 2) == pytest.approx(26.0)
        assert closed_form_b(kc, 0) == pytest.approx(2.0)

    def test_negative_index_refused(self):
        kc = KatoCriticalParams(p=3.0, b=2.0, mu=1.0, A0=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            closed_form_b(kc, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            a_value(-1)

    def test_recursion_matches_closed_form(self):
        for p in (1.5, 2.0, 3.0):
            for b in (0.5, 1.0, 2.0):
                for mu in (0.5, 2.0):
                    kc = KatoCriticalParams(p=p, b=b, mu=mu, A0=1.0)
                    seqs = iterate_sequences(kc, 30)
                    assert not seqs.truncated
                    for s in seqs.states:
                        expected = closed_form_b(kc, s.j)
                        assert s.b_j == pytest.approx(expected, rel=1e-10)

    def test_a_sequence_inequalities(self):
        for j in range(51):
            a, b = a_value(j), a_value(j + 1)
            assert a / b >= 2.0 / 3.0 - 1e-15
            # 1 - a_j/a_{j+1} = (a_{j+1} - a_j)/a_{j+1} = 2^-(j+1)/a_{j+1};
            # the subtraction form underflows for large j, the quotient form
            # resolves the strict bound all the way to j = 50
            gap = 0.5 ** (j + 1) / b
            if j <= 20:
                assert 1.0 - a / b == pytest.approx(gap, rel=1e-6)
            assert gap > 0.5 ** (j + 2)

    def test_mu_case_property(self):
        assert KatoCriticalParams(p=2.0, b=1.0, mu=1.0, A0=1.0).mu_case == "le_one"
        assert KatoCriticalParams(p=2.0, b=1.0, mu=1.01, A0=1.0).mu_case == "gt_one"


class TestEnvelopeConstants:
    def test_geometric_sum_closed_form(self):
        # sum k/p^k = p/(p-1)^2; at p = 2 the k <= 60 partial sum already
        # matches to machine precision, slower ratios need a longer tail
        partial60 = sum(k / 2.0**k for k in range(61))
        assert 2.0 == pytest.approx(partial60, rel=1e-12)
        for p in (1.5, 2.0, 3.0):
            partial = sum(k / p**k for k in range(400))
            assert p / (p - 1.0) ** 2 == pytest.approx(partial, rel=1e-12)

    def test_low_damping_B(self):
        kc = KatoCriticalParams(p=2.0, b=1.0, mu=0.5, A0=1.0, A1=1.0)
        B, _ = envelope_constants(kc)
        assert B == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_E_affine_in_log_A0(self):
        for mu in (0.5, 2.0):
            kc1 = KatoCriticalParams(p=2.0, b=1.0, mu=mu, A0=1.0)
            kc2 = KatoCriticalParams(p=2.0, b=1.0, mu=mu, A0=7.5)
            _, e1 = envelope_constants(kc1)
            _, e2 = envelope_constants(kc2)
            assert e2 - e1 == pytest.approx(math.log(7.5), rel=1e-12)

    def test_envelope_onset_and_growth(self):
        for mu in (0.5, 2.0):
            kc = KatoCriticalParams(p=2.0, b=1.0, mu=mu, A0=0.3, A1=2.0, CR=0.7)
            seqs = iterate_sequences(kc, 30)
            _, E = envelope_constants(kc)
            onset = detect_envelope_onset(seqs)
            assert onset is not None
            for s in seqs.states[onset:]:
                assert s.log_C_j >= E * kc.p**s.j - 1e-9 * kc.p**s.j


class TestCriticalThreshold:
    def test_eps_exponent_high_damping(self):
        # A0 = eps^p with b = 1: exponent of eps inside the exponential is -(p-1)
        for eps in (0.5, 0.25, 0.1):
            for p in (2.0, 1.5):
                ct = critical_threshold(
                    KatoCriticalParams(p=p, b=1.0, mu=2.0, A0=eps**p)
                )
                assert math.log(ct.threshold) == pytest.approx(
                    eps ** -(p - 1.0), rel=1e-12
                )

    def test_eps_exponent_low_damping(self):
        for eps in (0.5, 0.2):
            p = 2.0
            ct = critical_threshold(KatoCriticalParams(p=p, b=1.0, mu=1.0, A0=eps**p))
            assert math.log(ct.threshold) == pytest.approx(
                eps ** (-p * (p - 1.0) / (p + 1.0)), rel=1e-12
            )

    def test_exponent_comparison_between_damping_cases(self):
        # larger denominator for mu <= 1 means a larger (less negative)
        # A0-exponent, hence the smaller unnormalized threshold at A0 < 1
        lo = critical_threshold(KatoCriticalParams(p=2.0, b=1.0, mu=1.0, A0=0.01))
        hi = critical_threshold(KatoCriticalParams(p=2.0, b=1.0, mu=2.0, A0=0.01))
        assert lo.a0_exponent > hi.a0_exponent
        assert lo.threshold < hi.threshold

    def test_monotone_in_A0(self):
        values = [
            critical_threshold(KatoCriticalParams(p=2.0, b=1.0, mu=2.0, A0=a0)).threshold
            for a0 in (0.1, 0.3, 0.5, 0.9)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestEnvelopeDivergence:
    def test_bracket_solution(self):
        # E = 0 exactly: B = 1 via A1*C_R = 9 and A0 = 16 at p = 2, b = 1;
        # the bracket turns positive once ln ln(t/T1) > 0, i.e. t > T1*e
        kc = KatoCriticalParams(p=2.0, b=1.0, mu=0.5, A0=16.0, A1=9.0, T1=2.0)
        B, E = envelope_constants(kc)
        assert B == pytest.approx(1.0, rel=1e-13)
        assert abs(E) < 1e-12
        rep = envelope_divergence(kc, **ENVELOPE)
        assert rep.t_star is not None
        assert rep.t_star == pytest.approx(2.0 * math.e, rel=0.05)
        assert rep.delta_margin >= rep.delta > 0.0

    def test_t_star_nonincreasing_in_A0(self):
        stars = []
        for a0 in (0.5, 1.0, 2.0, 8.0):
            kc = KatoCriticalParams(p=2.0, b=1.0, mu=2.0, A0=a0)
            stars.append(envelope_divergence(kc, **ENVELOPE).t_star)
        assert all(s is not None for s in stars)
        assert all(b <= a for a, b in zip(stars, stars[1:]))

    def test_t_star_exceeds_window_anchor(self):
        for mu, factor in ((0.5, 1.0), (2.0, 2.0)):
            kc = KatoCriticalParams(p=2.0, b=1.0, mu=mu, A0=1.0, T1=3.0)
            rep = envelope_divergence(kc, **ENVELOPE)
            assert rep.t_star > factor * kc.T1

    def test_no_divergence_within_horizon(self):
        kc = KatoCriticalParams(p=2.0, b=1.0, mu=0.5, A0=1e-12)
        rep = envelope_divergence(kc, delta=1e-3, horizon=100.0)
        assert rep.t_star is None
        assert rep.delta_margin is None
        assert rep.horizon == 100.0

    def test_iteration_truncation_flag(self):
        kc = KatoCriticalParams(p=3.0, b=1.0, mu=0.5, A0=1.0)
        seqs = iterate_sequences(kc, 700)
        assert seqs.truncated
        assert len(seqs.states) < 701


# a lemma at p = 2 whose envelope constant E is negative (-4.97)
ONSET = KatoCriticalParams(p=2.0, b=1.0, mu=0.5, A0=1.0)


def states(log_C):
    """A table of ``ONSET`` whose log C_j is log_C[j] |E|, E its envelope constant."""
    _, E = envelope_constants(ONSET)
    table = [KatoState(j, 1.0, -E * c, None) for j, c in enumerate(log_C)]
    return KatoSequences(table, False, ONSET)


class TestEnvelopeOnsetStates:
    # in units of |E|, state j violates the envelope below -(1 + 1e-9/|E|) 2^j

    def test_onset_follows_the_last_violating_state(self):
        assert detect_envelope_onset(states([-1.5, -3.0, 0.0, 0.0])) == 2
        assert detect_envelope_onset(states([-1.5, 0.0, -5.0, 0.0])) == 3
        assert detect_envelope_onset(states([-1.0, -2.0, -4.0])) == 0

    def test_violating_last_state_gives_none(self):
        assert detect_envelope_onset(states([0.0, 0.0, -5.0])) is None

    def test_no_states_give_none(self):
        assert detect_envelope_onset(states([])) is None


# magnitudes across the float range, 1e-300 to 1e300
MAGNITUDE = st.floats(-300.0, 300.0).map(lambda x: 10.0**x)


class TestPastTheFloatRange:
    # B, A1 C_R, the thresholds and p^j may leave the float range on valid
    # inputs; each once raised a bare math error

    @settings(deadline=None, derandomize=True, database=None)
    @given(p=MAGNITUDE.filter(lambda p: p > 1.0), b=MAGNITUDE,
           mu=st.sampled_from([0.5, 2.0]) | MAGNITUDE, A0=MAGNITUDE, A1=MAGNITUDE,
           C_R=MAGNITUDE)
    def test_critical_lemma_finishes_with_finite_E(self, p, b, mu, A0, A1, C_R):
        kc = KatoCriticalParams(p=p, b=b, mu=mu, A0=A0, A1=A1, CR=C_R)
        B, E = envelope_constants(kc)
        assert B >= 0.0 and math.isfinite(E)
        seqs = iterate_sequences(kc, 20)
        assert math.isfinite(seqs.states[0].log_C_j)
        detect_envelope_onset(seqs)
        assert critical_threshold(kc).threshold >= 1.0  # exp of a positive power, or inf
        envelope_divergence(kc, **ENVELOPE)

    @settings(deadline=None, derandomize=True, database=None)
    @given(p=MAGNITUDE.filter(lambda p: p > 1.0), b=MAGNITUDE, q=MAGNITUDE, A0=MAGNITUDE)
    def test_subcritical_threshold_finishes(self, p, b, q, A0):
        if not (p - 1.0) * b - q + 2.0 > 0.0:
            return  # the lemma does not apply
        assert subcritical_threshold(KatoSubcriticalParams(p, 0.0, b, q, A0)).threshold >= 0.0
