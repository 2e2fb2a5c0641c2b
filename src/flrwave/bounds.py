"""Lifespan upper bounds and the blow-up phase diagram.

Three power-type bounds compete below the critical curves.  Writing
d = n(1 - alpha) and T_eps for the lifespan of data of size eps:

    heatlike      T_eps <~ eps^(-(p-1)/(2 - d(p-1)))              p < 1 + 2/d
    wavelike      T_eps <~ eps^(-2p(p-1)/((1-alpha)*gamma))       gamma > 0
    intermediate  T_eps <~ eps^(-(p-1)/(2 - (d+mu-1)(p-1)))       bracket > 0

On the critical curves the bounds degrade to exp(C eps^(-e)) (see
``all_bounds``).  ``classify`` assigns each admissible (params, p) the
region label of the sharpest bound (smallest eps-exponent wins as eps -> 0;
exponential bounds never beat an applicable power bound).  Threshold
fractions with nonpositive denominators impose no constraint, i.e. they are
treated as +infinity.

All of it is computed in one place, the kernel ``_bounds``: it takes each
parameter point's constants (effective dimension, Fujita-type exponent,
gamma coefficients, p_c, the two crossing thresholds, alpha, mu), evaluated
once by the scalar functions, and broadcasts every bound, the region label
and the best exponent against a whole array of powers p.  ``block_bounds``,
its one entry, stacks the constants of a block of points as columns: a
phase map is one call per block of ``MAP_BLOCK_ROWS`` axis1 rows, and the
scalar functions (``classify``, ``best_exponent``, ``all_bounds``, ...)
read a block of one point at one p.  The array code repeats the scalar
formulas operation by operation, so each entry is bit-identical whatever
the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from flrwave.exponents import (
    FlrwParams,
    ModelParams,
    Quadratic,
    flrw_to_model,
    fujita,
    gamma_quadratic,
    positive_root,
)

__all__ = [
    "BoundKind",
    "BoundForm",
    "LifespanBound",
    "RegionLabel",
    "LABELS",
    "AxisSpec",
    "RegionMap",
    "heatlike_exponent",
    "wavelike_exponent",
    "intermediate_exponent",
    "intermediate_wavelike_threshold",
    "heatlike_wavelike_threshold",
    "all_bounds",
    "best_exponent",
    "classify",
    "region_map_model",
    "region_map_flrw",
]

# Absolute tolerance for "p sits on a critical curve".
CRITICAL_TOL = 1e-9
# Rows per kernel call of a phase map: at 400 powers its temporaries peak
# near 1.6 MB.
MAP_BLOCK_ROWS = 32
# Largest phase map, in cells; a larger one is refused before any axis is built.
MAX_MAP_CELLS = 2**22


class BoundKind(Enum):
    HEATLIKE_SUB = "heatlike_sub"
    WAVELIKE_SUB = "wavelike_sub"
    INTERMEDIATE_SUB = "intermediate_sub"
    CRITICAL_FUJITA_MU_LOW = "critical_fujita_mu_low"
    CRITICAL_FUJITA_MU_HIGH = "critical_fujita_mu_high"
    CRITICAL_PC = "critical_pc"


class BoundForm(Enum):
    POWER = "power"
    EXP_POWER = "exp_power"


@dataclass(frozen=True)
class LifespanBound:
    """One lifespan upper bound at a fixed parameter point.

    ``eps_exponent`` is e in T_eps <= C eps^(-e) (power form) or
    T_eps <= exp(C eps^(-e)) (exp_power form); NaN when not applicable.
    """

    kind: BoundKind
    form: BoundForm
    eps_exponent: float
    applicable: bool


class RegionLabel(Enum):
    A = "A"
    B = "B"
    C = "C"
    CRITICAL_FUJITA = "critical_fujita"
    CRITICAL_PC = "critical_pc"
    UNCLASSIFIED = "unclassified"


# Integer label codes of the row kernel index this tuple.
LABELS = tuple(RegionLabel)
_CODE = {label: np.int8(code) for code, label in enumerate(LABELS)}


@dataclass(frozen=True)
class RowBounds:
    """Every bound over a block of parameter points (rows) and an array of
    powers p (columns).

    ``power`` and ``critical`` hold one (kind, applicable, exponent) triple
    per bound, in the order ``all_bounds`` lists them; an exponent is NaN
    where its bound does not apply.  ``label`` holds codes into ``LABELS``,
    ``best`` the sharpest exponent (NaN where none applies).  ``fujita`` and
    ``p_c`` (+inf without a positive root) are the rows' critical exponents.
    """

    fujita: np.ndarray
    p_c: np.ndarray
    power: tuple
    critical: tuple
    label: np.ndarray
    best: np.ndarray


def _first_min(bounds, shape) -> tuple:
    """Python's ``min`` over the applicable exponents, entry by entry: the
    first applicable one is taken and replaced only by a strictly smaller
    one.  Returns the minima (NaN where none applies) and where one does."""
    best = np.full(shape, math.nan)
    found = np.zeros(shape, dtype=bool)
    for _, ok, value in bounds:
        best = np.where(ok & (~found | (value < best)), value, best)
        found = found | ok
    return best, found


def _masked(*bounds) -> tuple:
    """(kind, applicable, exponent) triples with the exponent NaN where its
    bound does not apply."""
    return tuple((kind, ok, np.where(ok, value, math.nan)) for kind, ok, value in bounds)


def _row_constants(params: ModelParams) -> tuple:
    """The constants of one row, by the scalar functions: d = n(1-alpha),
    the Fujita-type exponent, the gamma coefficients, p_c (+inf without a
    positive root), both crossing thresholds, alpha and mu."""
    d = params.effective_dim
    q = gamma_quadratic(params)
    pc = positive_root(q).root
    return (
        d, fujita(d), q.c2, q.c1, q.c0, math.inf if pc is None else pc,
        intermediate_wavelike_threshold(params), heatlike_wavelike_threshold(params),
        params.alpha, params.mu,
    )


def block_bounds(rows: Sequence[ModelParams], p) -> RowBounds:
    """The kernel at every parameter point of ``rows`` for every entry of the
    1-d array ``p``: its cell arrays are (rows, p), its row values (rows, 1)
    columns."""
    return _bounds(np.array([_row_constants(params) for params in rows]).T[:, :, None], p)


def _bounds(constants: np.ndarray, p) -> RowBounds:
    """All bounds, the region label and the best exponent for the row
    ``constants`` (as ``_row_constants`` orders them, each a column) and
    every entry of ``p``, broadcast against each other.

    Labels: A where the intermediate bound is best
    (p <= 2(1-alpha)/(n(1-alpha)+mu-1)); B where the wavelike one is (above
    both crossing thresholds, below p_c); C where the heatlike one is
    (p <= 2(1-alpha)/(n(1-alpha)-mu+1) and p below the Fujita-type
    exponent).  Critical labels win on their curves; ties between A/B/C
    resolve in enum order.  Points above every applicable bound are
    UNCLASSIFIED.  Labels are not defined for p <= 1 (``classify`` and the
    region maps reject such p).  A non-finite p raises ValueError.
    """
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError(f"p must be finite, got {p[~np.isfinite(p)].tolist()}")
    d, p_f, c2, c1, c0, pc, iw_threshold, hw_threshold, alpha, mu = constants
    q = Quadratic(c2, c1, c0)
    pc_applies = np.isfinite(pc) & (pc > p_f + CRITICAL_TOL)
    # A bound is excluded where its condition fails (p <= 1, gamma <= 0,
    # bracket <= 0); written as ~(x <= 0) rather than x > 0, a NaN from an
    # overflow at huge p excludes nothing.
    with np.errstate(all="ignore"):
        pm1 = p - 1.0
        heat = pm1 / (2.0 - d * pm1)
        g = q(p)
        wave = 2.0 * p * pm1 / ((1.0 - alpha) * g)
        k = d + mu - 1.0
        inter_denom = 2.0 - k * pm1
        inter = pm1 / inter_denom
        above_one = ~(p <= 1.0)
        on_fujita = np.abs(p - p_f) <= CRITICAL_TOL
        on_pc = (np.abs(p - pc) <= CRITICAL_TOL) & pc_applies
        mu_low = mu <= 1.0
        power = _masked(
            (BoundKind.HEATLIKE_SUB, (1.0 < p) & (p < p_f), heat),
            (BoundKind.WAVELIKE_SUB, above_one & ~(g <= 0.0), wave),
            (BoundKind.INTERMEDIATE_SUB, above_one & ~(inter_denom <= 0.0), inter),
        )
        # the Fujita bound's kind follows mu, so it is two exclusive entries
        critical = _masked(
            (BoundKind.CRITICAL_FUJITA_MU_LOW, on_fujita & mu_low, p * pm1 / (p + 1.0)),
            (BoundKind.CRITICAL_FUJITA_MU_HIGH, on_fujita & ~mu_low, pm1),
            (BoundKind.CRITICAL_PC, on_pc, p * pm1),
        )
        label = np.select(
            [
                on_fujita,
                on_pc,
                p <= iw_threshold,
                (p <= hw_threshold) & (p < p_f),
                # p already exceeds both crossing thresholds here: the
                # heatlike/wavelike threshold can reach p_f only at mu >= mu*,
                # where p_c <= p_f rules out this branch (the three curves
                # meet at mu*).
                p < pc,
            ],
            [
                _CODE[RegionLabel.CRITICAL_FUJITA],
                _CODE[RegionLabel.CRITICAL_PC],
                _CODE[RegionLabel.A],
                _CODE[RegionLabel.C],
                _CODE[RegionLabel.B],
            ],
            _CODE[RegionLabel.UNCLASSIFIED],
        )
    best, has_power = _first_min(power, label.shape)
    best = np.where(has_power, best, _first_min(critical, label.shape)[0])
    return RowBounds(p_f, pc, power, critical, label, best)


def _at(params: ModelParams, p: float) -> RowBounds:
    """The kernel on a 1x1 block: one parameter point, one power.  Its
    entries are read through ``.item()``."""
    return block_bounds([params], np.array([p], dtype=float))


def _power_exponent(params: ModelParams, p: float, index: int) -> Optional[float]:
    _, ok, value = _at(params, p).power[index]
    return value.item() if ok.item() else None


def heatlike_exponent(params: ModelParams, p: float) -> Optional[float]:
    """(p-1)/(2 - n(1-alpha)(p-1)) for 1 < p < fujita(n(1-alpha)), else None."""
    return _power_exponent(params, p, 0)


def wavelike_exponent(params: ModelParams, p: float) -> Optional[float]:
    """2p(p-1)/((1-alpha) gamma) where gamma > 0 (i.e. p below its positive
    root, if any), else None."""
    return _power_exponent(params, p, 1)


def intermediate_exponent(params: ModelParams, p: float) -> Optional[float]:
    """(p-1)/(2 - (n(1-alpha)+mu-1)(p-1)); a nonpositive bracket imposes no
    restriction on p."""
    return _power_exponent(params, p, 2)


def _crossing(params: ModelParams, k: float) -> float:
    """2(1-alpha)/k, or +inf for a nonpositive denominator k."""
    return math.inf if k <= 0.0 else 2.0 * (1.0 - params.alpha) / k


def intermediate_wavelike_threshold(params: ModelParams) -> float:
    """p where the intermediate and wavelike exponents cross:
    2(1-alpha)/(n(1-alpha)+mu-1), or +inf for a nonpositive denominator."""
    return _crossing(params, params.effective_dim + params.mu - 1.0)


def heatlike_wavelike_threshold(params: ModelParams) -> float:
    """p where the heatlike and wavelike exponents cross:
    2(1-alpha)/(n(1-alpha)-mu+1), or +inf for a nonpositive denominator."""
    return _crossing(params, params.effective_dim - params.mu + 1.0)


def all_bounds(params: ModelParams, p: float) -> list[LifespanBound]:
    """The three power bounds (heatlike, wavelike, intermediate), each with
    its applicability, then the exponential-type bounds active when p sits
    on a critical curve.

    On p = fujita(n(1-alpha)): exponent p(p-1)/(p+1) for mu <= 1, p-1 for
    mu > 1.  On p = p_c (only if p_c strictly exceeds the Fujita-type
    exponent): exponent p(p-1).  Away from both curves no exponential bound
    is listed.
    """
    at = _at(params, p)
    power = [
        LifespanBound(kind, BoundForm.POWER, value.item(), ok.item())
        for kind, ok, value in at.power
    ]
    return power + [
        LifespanBound(kind, BoundForm.EXP_POWER, value.item(), True)
        for kind, ok, value in at.critical
        if ok.item()
    ]


def best_exponent(params: ModelParams, p: float) -> float:
    """Sharpest available eps-exponent at (params, p).

    Power bounds always beat exponential ones; among bounds of equal form
    the smallest exponent wins.  NaN when no bound applies.
    """
    return _at(params, p).best.item()


def _require_p_above_one(p: float) -> None:
    if p <= 1.0:
        raise ValueError(f"classification requires p > 1, got {p}")


def classify(params: ModelParams, p: float) -> RegionLabel:
    """Region label of the sharpest bound at (params, p); see ``_bounds``."""
    _require_p_above_one(p)
    return LABELS[_at(params, p).label.item()]


@dataclass(frozen=True)
class AxisSpec:
    """Uniform sweep axis: value k is start + k*step rounded to 12 decimals,
    and the axis holds every value up to stop."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not self.step > 0.0:
            raise ValueError(f"axis step must be positive, got {self.step}")
        if self.stop < self.start:
            raise ValueError(f"axis stop {self.stop} below start {self.start}")
        if not math.isfinite((self.stop - self.start) / self.step):
            raise ValueError(
                f"axis {self.name} from {self.start} to {self.stop} by {self.step} "
                "has too many values to count"
            )

    def _value(self, k: int) -> float:
        return round(self.start + k * self.step, 12)

    @property
    def count(self) -> int:
        """The number of values, from the axis arithmetic alone: the floored
        quotient k is the last index unless the rounding of stop - start or
        of the quotient moved it by one (the first value always counts)."""
        k = math.floor((self.stop - self.start) / self.step)
        if self._value(k + 1) <= self.stop:
            k += 1
        elif k > 0 and self._value(k) > self.stop:
            k -= 1
        return k + 1

    def values(self) -> list[float]:
        """The values, refused when rounding makes two of them equal (a step
        below the rounding grain, or below the float spacing at the axis)."""
        values = [self._value(k) for k in range(self.count)]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError(
                f"axis {self.name} from {self.start} to {self.stop} by {self.step} repeats "
                "values once rounded to 12 decimals"
            )
        return values


@dataclass
class RegionMap:
    """Grid of region labels over (axis1, axis2) with the best exponent per cell.

    ``codes[i, j]`` (an index into ``LABELS``) and ``best[i, j]``
    correspond to axis1.values()[i], axis2.values()[j].
    ``fujita[i]`` and ``p_c[i]`` are the critical exponents of row i, p_c
    +inf where the gamma quadratic has no positive root.
    """

    axis1: AxisSpec
    axis2: AxisSpec
    codes: np.ndarray
    best: np.ndarray
    fujita: list[float]
    p_c: list[float]

    def label_counts(self) -> dict[str, int]:
        counts = np.bincount(self.codes.ravel(), minlength=len(LABELS))
        return {label.value: int(count) for label, count in zip(LABELS, counts)}


def _build_map(axis1: AxisSpec, axis2: AxisSpec, params_of) -> RegionMap:
    cells = axis1.count * axis2.count
    if cells > MAX_MAP_CELLS:
        raise ValueError(
            f"region map of {axis1.count} x {axis2.count} = {cells} cells exceeds "
            f"the budget of {MAX_MAP_CELLS}"
        )
    v1, v2 = axis1.values(), axis2.values()
    _require_p_above_one(v2[0])  # the axis ascends
    p = np.array(v2)
    codes = np.empty((len(v1), p.size), dtype=np.int8)
    best = np.empty(codes.shape)
    fujita_row, pc_row = [], []
    for start in range(0, len(v1), MAP_BLOCK_ROWS):
        block = block_bounds([params_of(a) for a in v1[start:start + MAP_BLOCK_ROWS]], p)
        codes[start:start + MAP_BLOCK_ROWS] = block.label
        best[start:start + MAP_BLOCK_ROWS] = block.best
        fujita_row += block.fujita[:, 0].tolist()
        pc_row += block.p_c[:, 0].tolist()
    return RegionMap(axis1, axis2, codes, best, fujita_row, pc_row)


def region_map_model(n: int, alpha: float, mu_axis: AxisSpec, p_axis: AxisSpec) -> RegionMap:
    """Phase diagram in the (mu, p) plane at fixed (n, alpha)."""
    return _build_map(mu_axis, p_axis, lambda mu: ModelParams(n, alpha, mu))


def region_map_flrw(n: int, w_axis: AxisSpec, p_axis: AxisSpec) -> RegionMap:
    """Phase diagram in the (w, p) plane; parameters pass through the
    cosmological map alpha = 2/(n(1+w)), mu = 2/(1+w)."""
    return _build_map(w_axis, p_axis, lambda w: flrw_to_model(FlrwParams(n, w)))
