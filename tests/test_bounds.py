import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flrwave.bounds import (
    LABELS,
    MAX_MAP_CELLS,
    AxisSpec,
    BoundForm,
    BoundKind,
    RegionLabel,
    all_bounds,
    best_exponent,
    block_bounds,
    classify,
    heatlike_exponent,
    heatlike_wavelike_threshold,
    intermediate_exponent,
    intermediate_wavelike_threshold,
    region_map_flrw,
    region_map_model,
    wavelike_exponent,
)
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
)

LABEL_TO_KIND = {
    RegionLabel.A: BoundKind.INTERMEDIATE_SUB,
    RegionLabel.B: BoundKind.WAVELIKE_SUB,
    RegionLabel.C: BoundKind.HEATLIKE_SUB,
}


class TestPowerExponents:
    def test_heatlike_values(self):
        assert heatlike_exponent(ModelParams(2, 0.6, 0.0), 2.0) == pytest.approx(1.0 / 1.2)
        assert heatlike_exponent(ModelParams(2, 0.5, 0.0), 1.5) == pytest.approx(1.0 / 3.0)

    def test_heatlike_boundary_not_applicable(self):
        # p = fujita(2) = 2 sits on the open boundary
        assert heatlike_exponent(ModelParams(2, 0.0, 1.0), 2.0) is None

    def test_wavelike_values(self):
        assert wavelike_exponent(ModelParams(3, 0.0, 0.0), 2.0) == pytest.approx(2.0)
        # oracle: direct substitution, gamma(2, 2, 0.6, 2) = 9
        params = ModelParams(2, 0.6, 2.0)
        assert gamma(params, 2.0) == pytest.approx(9.0, rel=1e-14)
        assert wavelike_exponent(params, 2.0) == pytest.approx(
            2.0 * 2.0 * 1.0 / (0.4 * 9.0), rel=1e-13
        )

    def test_wavelike_vanishes_at_one(self):
        assert wavelike_exponent(ModelParams(3, 0.2, 1.0), 1.0 + 1e-9) < 1e-8

    def test_wavelike_not_applicable_past_root(self):
        params = ModelParams(3, 0.0, 0.0)
        assert wavelike_exponent(params, p_c(params).root + 0.01) is None

    def test_intermediate_values(self):
        assert intermediate_exponent(ModelParams(2, 0.0, 2.0), 1.5) == pytest.approx(1.0)
        assert intermediate_exponent(ModelParams(2, 0.6, 1.0), 1.5) == pytest.approx(0.3125)

    def test_intermediate_unrestricted_bracket(self):
        # n(1-alpha)+mu-1 <= 0: applicable for every p > 1
        params = ModelParams(2, 0.6, 0.0)
        assert intermediate_exponent(params, 50.0) is not None

    def test_heatlike_monotone_in_p(self):
        params = ModelParams(3, 0.25, 1.0)
        grid = np.linspace(1.01, fujita(params.effective_dim) - 0.01, 60)
        values = [heatlike_exponent(params, float(p)) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCrossingIdentities:
    def test_intermediate_wavelike_crossing(self):
        hits = 0
        for n, alpha, mu in [(2, 0.6, 0.5), (2, 0.6, 0.9), (3, 0.3, 0.4), (2, 0.1, 0.8)]:
            params = ModelParams(n, alpha, mu)
            thr = intermediate_wavelike_threshold(params)
            pc = p_c(params).root or math.inf
            if not (math.isfinite(thr) and 1.0 < thr < pc):
                continue
            a = wavelike_exponent(params, thr)
            b = intermediate_exponent(params, thr)
            assert a == pytest.approx(b, rel=1e-9)
            hits += 1
        assert hits >= 3

    def test_heatlike_wavelike_crossing(self):
        hits = 0
        for n, alpha, mu in [(2, 0.6, 1.5), (2, 0.6, 1.4), (3, 0.3, 1.8), (2, 0.2, 1.3)]:
            params = ModelParams(n, alpha, mu)
            thr = heatlike_wavelike_threshold(params)
            if not (math.isfinite(thr) and 1.0 < thr < fujita(params.effective_dim)):
                continue
            a = wavelike_exponent(params, thr)
            b = heatlike_exponent(params, thr)
            assert a == pytest.approx(b, rel=1e-9)
            hits += 1
        assert hits >= 3

    def test_flrw_specialization(self):
        # under the cosmological map the wavelike exponent is 2p(p-1)/gamma0
        for n in (2, 3, 4):
            lo = 2.0 / n - 1.0
            for w in np.arange(math.floor(lo * 10) / 10 + 0.1, 1.0 + 1e-9, 0.1):
                f = FlrwParams(n, float(w))
                params = flrw_to_model(f)
                for p in (1.3, 1.8, 2.2):
                    e = wavelike_exponent(params, p)
                    g0 = gamma0(n, p, float(w))
                    if e is None or g0 <= 0:
                        continue
                    assert e == pytest.approx(2.0 * p * (p - 1.0) / g0, rel=1e-12)


def bounds_of_form(params, p, form):
    return [b for b in all_bounds(params, p) if b.form is form]


def critical_bounds(params, p):
    """The exponential-type bounds that ``all_bounds`` lists after the power ones."""
    return bounds_of_form(params, p, BoundForm.EXP_POWER)


class TestCriticalBounds:
    def test_fujita_high_damping(self):
        bounds_at = critical_bounds(ModelParams(2, 0.5, 2.0), 3.0)
        assert [b.kind for b in bounds_at] == [BoundKind.CRITICAL_FUJITA_MU_HIGH]
        assert bounds_at[0].form is BoundForm.EXP_POWER
        assert bounds_at[0].eps_exponent == pytest.approx(2.0)

    def test_fujita_low_damping(self):
        bounds_at = critical_bounds(ModelParams(2, 0.5, 1.0), 3.0)
        assert [b.kind for b in bounds_at] == [BoundKind.CRITICAL_FUJITA_MU_LOW]
        assert bounds_at[0].eps_exponent == pytest.approx(3.0 * 2.0 / 4.0)

    def test_wavelike_critical(self):
        params = ModelParams(3, 0.0, 0.0)
        ps = p_c(params).root
        assert ps > fujita(params.effective_dim)  # applicability condition
        bounds_at = critical_bounds(params, ps)
        assert [b.kind for b in bounds_at] == [BoundKind.CRITICAL_PC]
        assert bounds_at[0].eps_exponent == pytest.approx(ps * (ps - 1.0), rel=1e-12)

    def test_empty_off_curve(self):
        assert critical_bounds(ModelParams(2, 0.5, 2.0), 2.5) == []

    def test_power_bounds_come_first(self):
        listed = all_bounds(ModelParams(2, 0.5, 2.0), 3.0)
        assert [b.kind for b in listed] == [
            BoundKind.HEATLIKE_SUB, BoundKind.WAVELIKE_SUB, BoundKind.INTERMEDIATE_SUB,
            BoundKind.CRITICAL_FUJITA_MU_HIGH,
        ]
        assert [b.form for b in listed] == [BoundForm.POWER] * 3 + [BoundForm.EXP_POWER]


class TestClassify:
    def test_region_a_example(self):
        assert classify(ModelParams(2, 0.6, 0.5), 1.2) is RegionLabel.A

    def test_region_c_with_unrestricted_threshold(self):
        # heatlike/wavelike threshold denominator is negative here
        params = ModelParams(2, 0.6, 2.0)
        assert heatlike_wavelike_threshold(params) == math.inf
        assert classify(params, 2.0) is RegionLabel.C

    def test_region_b(self):
        assert classify(ModelParams(2, 0.6, 1.2), 3.0) is RegionLabel.B

    def test_critical_curves_coincide_at_mu_star(self):
        mu = mu_star(2, 0.6)
        label = classify(ModelParams(2, 0.6, mu), fujita(0.8))
        assert label is RegionLabel.CRITICAL_FUJITA

    def test_unclassified_above_everything(self):
        params = ModelParams(3, 0.0, 0.0)
        assert classify(params, 4.0) is RegionLabel.UNCLASSIFIED

    def test_requires_p_above_one(self):
        with pytest.raises(ValueError):
            classify(ModelParams(2, 0.0, 0.0), 1.0)

    def test_argmin_consistency(self):
        # away from thresholds, the labeled bound minimizes the applicable
        # power exponents
        for n, alpha in [(2, 0.6), (3, 0.3)]:
            for mu in np.arange(0.0, 3.01, 0.1):
                params = ModelParams(n, alpha, float(mu))
                thresholds = [
                    intermediate_wavelike_threshold(params),
                    heatlike_wavelike_threshold(params),
                    fujita(params.effective_dim),
                    p_c(params).root or math.inf,
                ]
                for p in np.arange(1.05, 4.0, 0.1):
                    p = float(p)
                    if any(math.isfinite(t) and abs(p - t) < 1e-6 for t in thresholds):
                        continue
                    label = classify(params, p)
                    if label not in LABEL_TO_KIND:
                        continue
                    applicable = [
                        b for b in bounds_of_form(params, p, BoundForm.POWER) if b.applicable
                    ]
                    best = min(applicable, key=lambda b: b.eps_exponent)
                    labeled = next(
                        b for b in applicable if b.kind is LABEL_TO_KIND[label]
                    )
                    assert labeled.eps_exponent <= best.eps_exponent + 1e-12

    def test_best_exponent_prefers_power_bounds(self):
        params = ModelParams(2, 0.5, 1.0)
        p = fujita(params.effective_dim)
        # at the critical curve the power bounds still apply for mu <= 1
        powers = [
            b.eps_exponent for b in bounds_of_form(params, p, BoundForm.POWER) if b.applicable
        ]
        assert best_exponent(params, p) == pytest.approx(min(powers))


class TestAxisSpec:
    def test_values_are_exact_decimals(self):
        axis = AxisSpec("mu", 0.0, 3.0, 0.01)
        values = axis.values()
        assert len(values) == 301
        assert values[157] == 1.57
        assert values[-1] == 3.0

    @pytest.mark.parametrize(
        "start, stop, step, count",
        # (0.3 - 0)/0.1 is 2.9999999999999996: truncating it drops the stop
        [(0.0, 1.0, 0.1, 11), (0.0, 0.3, 0.1, 4), (0.1, 0.7, 0.1, 7)],
    )
    def test_stop_is_kept(self, start, stop, step, count):
        values = AxisSpec("mu", start, stop, step).values()
        assert len(values) == count
        assert values[-1] == stop

    def test_values_never_pass_stop(self):
        # rounding the point count to nearest used to add w = 1.17
        assert AxisSpec("w", -0.33, 1.0, 0.5).values() == [-0.33, 0.17, 0.67]

    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.0, 10.0),
        st.sampled_from([0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_last_value_within_one_step_below_stop(self, start, length, step):
        start, stop = round(start, 3), round(start + length, 3)
        values = AxisSpec("x", start, stop, step).values()
        assert values[-1] <= stop
        assert stop - values[-1] < step + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisSpec("p", 1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            AxisSpec("p", 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="too many values"):
            AxisSpec("p", 0.0, 1.0, 5e-324)

    def test_values_that_repeat_once_rounded_are_refused(self):
        # a step below the 12-decimal grain, and one below the float spacing at 1e17
        for axis in (AxisSpec("mu", 0.0, 1e-10, 1e-13), AxisSpec("p", 1e17, 1e17 + 64.0, 1.0)):
            with pytest.raises(ValueError, match="repeats values"):
                axis.values()
        # at the grain itself every value is its own
        assert len(set(AxisSpec("mu", 0.0, 1e-10, 1e-12).values())) == 101

    def test_count_is_the_length_of_values(self):
        for axis in (AxisSpec("mu", 0.0, 3.0, 0.01), AxisSpec("w", -0.33, 1.0, 0.5)):
            assert axis.count == len(axis.values())

    @given(
        st.floats(-5.0, 5.0),
        st.integers(0, 50),
        st.sampled_from([10.0**-e for e in range(2, 13)]),
    )
    # 2.0000001 - 2.0 rounds to just under 1e-7, which once counted 1 value
    @example(2.0, 1, 1e-7)
    @settings(max_examples=300, deadline=None)
    def test_stop_on_the_grid_is_counted(self, start, k, step):
        # a stop that is the k-th value, rounded as values() rounds it
        start = round(start, 6)
        stop = round(start + k * step, 12)
        axis = AxisSpec("x", start, stop, step)
        assert axis.count == k + 1
        assert axis.values()[-1] == stop

    @given(
        st.floats(-5.0, 5.0),
        st.integers(0, 50),
        st.sampled_from([0.5, 0.25, 0.1, 0.01, 0.005, 0.001, 1e-4, 1e-5, 1e-6, 1e-7]),
        st.sampled_from([1e-13, 1e-12, 1e-11, 1e-10, None]),
        st.booleans(),
    )
    # 1e-12 below the 39th value: the floor once counted it, past stop
    @example(0.080136, 39, 0.001, 1e-12, True)
    @settings(max_examples=300, deadline=None)
    def test_stop_off_the_grid_is_not_passed(self, start, k, step, offset, below):
        # a stop just off the k-th value (offset None: half a step off)
        start = round(start, 6)
        offset = step / 2.0 if offset is None else offset
        stop = round(start + k * step, 12) + (-offset if below else offset)
        assume(stop >= start)
        axis = AxisSpec("x", start, stop, step)
        values = axis.values()
        assert len(values) == axis.count == (k if below else k + 1)
        assert values[-1] <= stop < round(start + len(values) * step, 12)


class TestRegionMap:
    def test_single_cell(self):
        rm = region_map_model(
            2, 0.6, AxisSpec("mu", 2.0, 2.0, 0.01), AxisSpec("p", 2.0, 2.0, 0.01)
        )
        assert rm.codes.tolist() == [[LABELS.index(RegionLabel.C)]]
        counts = rm.label_counts()
        assert counts["C"] == 1 and sum(counts.values()) == 1

    def test_coarse_phase_diagram_regions(self):
        rm = region_map_model(
            2, 0.6, AxisSpec("mu", 0.0, 3.0, 0.05), AxisSpec("p", 1.05, 4.0, 0.05)
        )
        counts = rm.label_counts()
        assert counts["A"] > 0 and counts["B"] > 0 and counts["C"] > 0
        assert counts["critical_fujita"] > 0

    def test_boundaries_meet_at_mu_star(self):
        rm = region_map_model(
            2, 0.6, AxisSpec("mu", 0.0, 3.0, 0.05), AxisSpec("p", 1.05, 4.0, 0.05)
        )
        mu_values = rm.axis1.values()
        p_values = rm.axis2.values()
        ms = mu_star(2, 0.6)
        i = min(range(len(mu_values)), key=lambda k: abs(mu_values[k] - ms))
        j = min(range(len(p_values)), key=lambda k: abs(p_values[k] - 3.5))
        window = {
            LABELS[rm.codes[a, b]]
            for a in range(max(0, i - 1), min(len(mu_values), i + 2))
            for b in range(max(0, j - 1), min(len(p_values), j + 2))
        }
        assert {RegionLabel.B, RegionLabel.C, RegionLabel.CRITICAL_FUJITA} <= window

    @given(
        st.integers(2, 8),
        st.floats(-1.0, 1.0),
        st.sampled_from([0.001, 0.01, 0.05, 0.25]),
        st.integers(1, 30),
        st.floats(1e-12, 3.0),
        st.sampled_from([1e-9, 0.001, 0.05]),
        st.integers(1, 40),
    )
    @example(3, -0.3, 0.05, 27, 0.05, 0.05, 40)
    @example(8, -0.7499, 0.001, 30, 1e-12, 1e-9, 40)  # alpha near 1, p near 1
    @settings(max_examples=100, deadline=None)
    def test_flrw_map_has_no_region_a(self, n, w_start, w_step, rows, p_offset, p_step, cols):
        # alpha = 2/(n(1+w)) and mu = n alpha put the A threshold
        # 2(1-alpha)/(n(1-alpha)+mu-1) at 2(1-alpha)/(n-1) <= 1, below every
        # p of a map axis (p >= 1 + 1e-12)
        assume(w_start > 2.0 / n - 1.0 + 1e-9)
        w_axis = AxisSpec("w", w_start, min(1.0, w_start + (rows - 1) * w_step), w_step)
        p_start = round(1.0 + p_offset, 12)
        p_axis = AxisSpec("p", p_start, p_start + (cols - 1) * p_step, p_step)
        assert region_map_flrw(n, w_axis, p_axis).label_counts()["A"] == 0

    def test_cell_budget_is_checked_before_any_axis_is_built(self, monkeypatch):
        def refuse(axis):
            raise AssertionError("axis built")

        monkeypatch.setattr(AxisSpec, "values", refuse)
        p_axis = AxisSpec("p", 2.0, 2049.0, 1.0)
        at_budget = AxisSpec("mu", 0.0, 2047.0, 1.0)
        assert at_budget.count * p_axis.count == MAX_MAP_CELLS
        with pytest.raises(AssertionError, match="axis built"):  # within budget: it builds
            region_map_model(2, 0.6, at_budget, p_axis)
        with pytest.raises(ValueError, match="2049 x 2048 = 4196352 cells"):
            region_map_model(2, 0.6, AxisSpec("mu", 0.0, 2048.0, 1.0), p_axis)

    def test_row_order(self):
        # codes[i, j] is the cell of axis1 value i and axis2 value j; four
        # rows of three, so a transposed grid has another shape
        rm = region_map_model(
            2, 0.6, AxisSpec("mu", 0.0, 3.0, 1.0), AxisSpec("p", 1.5, 3.5, 1.0)
        )
        assert rm.codes.shape == rm.best.shape == (4, 3)
        for i, mu in enumerate(rm.axis1.values()):
            for j, p in enumerate(rm.axis2.values()):
                params = ModelParams(2, 0.6, mu)
                assert LABELS[rm.codes[i, j]] is classify(params, p), (mu, p)
                assert repr(rm.best[i, j].item()) == repr(best_exponent(params, p)), (mu, p)


# ---------------------------------------------------------------------------
# row kernel properties

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

params_st = st.builds(
    ModelParams,
    n=st.integers(2, 5),
    alpha=st.floats(0.0, 0.95),
    mu=st.floats(0.0, 4.0),
)
p_st = st.floats(1.0, 5.0, exclude_min=True)


def same_bits(a: float, b: float) -> bool:
    """Bit-for-bit equality, with every NaN equal to every NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def reference_label_and_best(params: ModelParams, p: float):
    """The bounds at one p > 1, one Python float operation at a time: the
    row kernel must reproduce them bit for bit."""
    d = params.effective_dim
    p_f = 1.0 + 2.0 / d
    pc = p_c(params).root
    pc = math.inf if pc is None else pc
    powers = []
    if 1.0 < p < p_f:
        powers.append((p - 1.0) / (2.0 - d * (p - 1.0)))
    g = gamma_quadratic(params)(p)
    if not g <= 0.0:
        powers.append(2.0 * p * (p - 1.0) / ((1.0 - params.alpha) * g))
    k = d + params.mu - 1.0
    if not 2.0 - k * (p - 1.0) <= 0.0:
        powers.append((p - 1.0) / (2.0 - k * (p - 1.0)))
    on_fujita = abs(p - p_f) <= 1e-9
    on_pc = math.isfinite(pc) and abs(p - pc) <= 1e-9 and pc > p_f + 1e-9
    crits = []
    if on_fujita:
        crits.append(p * (p - 1.0) / (p + 1.0) if params.mu <= 1.0 else p - 1.0)
    if on_pc:
        crits.append(p * (p - 1.0))
    best = min(powers) if powers else (min(crits) if crits else math.nan)
    if on_fujita:
        label = RegionLabel.CRITICAL_FUJITA
    elif on_pc:
        label = RegionLabel.CRITICAL_PC
    elif p <= intermediate_wavelike_threshold(params):
        label = RegionLabel.A
    elif p <= heatlike_wavelike_threshold(params) and p < p_f:
        label = RegionLabel.C
    elif p < pc:
        label = RegionLabel.B
    else:
        label = RegionLabel.UNCLASSIFIED
    return label, best


def assert_row_matches_scalars(params, ps):
    row = block_bounds([params], np.array(ps))
    for p, code, best in zip(ps, row.label[0].tolist(), row.best[0].tolist()):
        label, ref_best = reference_label_and_best(params, p)
        assert LABELS[code] is classify(params, p) is label, (params, p)
        assert same_bits(best, best_exponent(params, p)), (params, p)
        assert same_bits(best, ref_best), (params, p)


class TestRowKernel:
    @PROPERTY_SETTINGS
    @given(params=params_st, ps=st.lists(p_st, min_size=1, max_size=25))
    def test_row_equals_scalar_cells(self, params, ps):
        assert_row_matches_scalars(params, ps)

    @PROPERTY_SETTINGS
    @given(params=params_st, ps=st.lists(p_st, max_size=5))
    def test_row_equals_scalar_on_the_critical_curves(self, params, ps):
        p_f = fujita(params.effective_dim)
        on_curves = [p_f] + [r for r in (p_c(params).root,) if r is not None and r > 1.0]
        assert_row_matches_scalars(params, on_curves + ps)
        assert classify(params, p_f) is RegionLabel.CRITICAL_FUJITA

    @PROPERTY_SETTINGS
    @given(params=params_st, ps=st.lists(p_st, min_size=1, max_size=25))
    def test_abc_label_is_argmin_of_power_exponents(self, params, ps):
        # all three exponents meet at p = 1 as well as at the crossings
        thresholds = [
            1.0,
            intermediate_wavelike_threshold(params),
            heatlike_wavelike_threshold(params),
            fujita(params.effective_dim),
            p_c(params).root or math.inf,
        ]
        ps = [p for p in ps if all(abs(p - t) > 1e-6 for t in thresholds)]
        row = block_bounds([params], np.array(ps))
        exponents = np.array([value[0] for _, _, value in row.power])  # NaN: not applicable
        for j, code in enumerate(row.label[0].tolist()):
            label = LABELS[code]
            if label in LABEL_TO_KIND:
                kinds = [kind for kind, _, _ in row.power]
                assert kinds[int(np.nanargmin(exponents[:, j]))] is LABEL_TO_KIND[label]

    @PROPERTY_SETTINGS
    @given(
        rows=st.lists(params_st, min_size=1, max_size=6),
        ps=st.lists(p_st, min_size=1, max_size=8),
    )
    def test_block_equals_its_rows(self, rows, ps):
        p_f = [fujita(params.effective_dim) for params in rows]
        block = block_bounds(rows, np.array(ps + p_f))
        for i, params in enumerate(rows):
            row = block_bounds([params], np.array(ps + p_f))  # a block of one
            assert block.fujita[i, 0] == row.fujita[0, 0] and block.p_c[i, 0] == row.p_c[0, 0]
            assert block.label[i].tolist() == row.label[0].tolist()
            assert block.best[i].tobytes() == row.best[0].tobytes()
            for (kind, ok, value), (row_kind, row_ok, row_value) in zip(
                block.power + block.critical, row.power + row.critical
            ):
                assert kind is row_kind
                assert ok[i].tolist() == row_ok[0].tolist()
                assert value[i].tobytes() == row_value[0].tobytes()

    @PROPERTY_SETTINGS
    @given(
        n=st.integers(2, 5),
        alpha=st.floats(0.0, 0.95),
        mu_stop=st.floats(0.0, 4.0),
        p_start=st.floats(1.01, 3.0),
        steps=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    )
    def test_label_counts_sum_to_cells(self, n, alpha, mu_stop, p_start, steps):
        rm = region_map_model(
            n, alpha, AxisSpec("mu", 0.0, mu_stop, steps[0]),
            AxisSpec("p", p_start, p_start + 2.0, steps[1]),
        )
        cells = len(rm.axis1.values()) * len(rm.axis2.values())
        assert sum(rm.label_counts().values()) == cells
        assert rm.codes.size == rm.best.size == cells


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
def test_non_finite_p_rejected(p):
    params = ModelParams(2, 0.6, 0.0)
    with pytest.raises(ValueError):
        classify(params, p)
    with pytest.raises(ValueError):
        block_bounds([params], np.array([2.0, p]))
