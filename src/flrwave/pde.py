"""Radially symmetric finite-difference solver for

    u_tt - t^(-2*alpha) Lap(u) + (mu/t) u_t = |u|^p,   t > 1,

with compactly supported nonnegative data u(1) = eps*u0, u_t(1) = eps*u1.

Scheme: three-level central differences in time with the damping term
time-centered (solved for the new level in closed form), second-order central
differences for the radial Laplacian with a symmetry ghost point at the
origin, and the nonlinearity evaluated at the current level.  The cached
per-cell stencil weights fold into the new level k (left u_(i-1) + right
u_(i+1)) + c_curr u + c_prev u_prev + |u|^p/lhs (see ``_Stripes.step``).  The
time step tracks the decaying wave speed, dt = min(cfl * dr * t^alpha,
``DT_CAP``), the cap keeping the mu/t coefficient resolved, and the radial
grid is extended lazily to ``MARGIN_CELLS`` cells past the light cone r =
A(t) + R, A(t) = (t^(1-alpha) - 1)/(1-alpha).  The first step is the
second-order Taylor start from the equation at t = 1, on the same stencil.

A step's numbers other than the field itself do not depend on the field,
so a schedule (``_schedule``) makes them ``_BLOCK`` = 256 steps at a time:
the time recurrence and the powers t^alpha, t^(-2 alpha) and (t +
dt)^(1-alpha) in Python floats, whose ``**`` is the C library's pow
(numpy's power loop rounds differently on AVX-512 and AVX2), and from
those, by numpy over the block, each step's cone cut, grid cells, five
scalars (1/lhs, the u_prev weight, k, the centre and the origin weights)
and three bound gains, the bits of the same float operations taken one
step at a time.  A run holds the block it steps through and, while it is
built, the next, never an array over its steps.  ``_Stripes.step`` does no
float arithmetic: it copies its five scalars into a buffer of the layout,
which the passes read as 0-d views (numpy promotes a float anew on each
call), and reads its operands from one tuple per rotation of the levels,
bound when the layout is built.

The time steps and the grid do not depend on eps either, so one stepping loop
advances runs as the rows of one (eps x r) array, in place, without threads:
``lifespan_sweep`` is one batch and ``run`` a batch of one.  The rows lie end
to end with a zero-padded pitch a little wider than the grid, so that each
pass of a step is one loop over a contiguous array.  Each layout allocates
its own buffer, aligned to 64 bytes, with level 0 one cache line in, and its
pitch is whole 64-byte cache lines, so every level and row starts on a cache
line, as do the neighbour weights tiled once a row.  Every pass of a step
stores on a cache line, and only its shifted reads, u[i-1] and u[i+1], start
off one; u[i-1] reads level 0's guard double from the line ahead of it.
numpy's AVX-512 loops move 64-byte vectors: a misaligned store costs about
twice an aligned one and a misaligned load little, and the step's speed
varied by several percent with the alignment the heap happened to hand out.
A layout is never edited: the rows are laid out afresh at the start, when
the grid outgrows the pitch and when rows leave, and the views a step reads
are built with it.
A row leaves at threshold, overflow or horizon, bit-identical to a run of its
own.  Only the threshold is a blow-up; an overflow (non-finite sup|u|) fails
like the horizon.  n > 5 is refused: there refining dr brings the "blow-up"
forward.  So is a cfl at or past the step's stability limit (``CFL_LIMITS``),
and a mu dt of 2 or more at t = 1, past which the damping drives the field.

Diagnostics per sample time: sup|u|, the spatial average F = int u dx, the
nonlinear mass int |u|^p dx, and the support radius.  They reuse the step's
|u|, sup|u| and source |u|^p, and integrate with cached trapezoid weights.
Each row's samples grow in one packed float64 buffer (``array("d")``, 8 B a
value), whose five columns its ``PdeResult`` views without a copy.
A sweep runs with ``sample_dt = inf``: each row records its first level
and the one it leaves on, if finite, and its other steps only raise the
source.  The loop carries upper bounds B and B_prev on sup|u| of the
current and the previous level, B' = (1 + 1e-12)(B^p/lhs + |c_prev| B_prev
+ (k right0 + max(|c_curr - 2k/dr^2|, |c_curr - k right0|)) B) (see
``_sup_bound``).  A quiet step, before t_max with no sample or snapshot
due, scans nothing while B is below the threshold: it builds the source
straight from u, at p = 2 as u u, the bits of |u| |u|.  The loop takes the
steps before the grid outgrows the pitch in one inner loop, whose quiet
steps are a source, a step and a bound each, with one test of t against
the first sample, snapshot or t_max to come and one of B.  Every other
step is checked: it builds the per-row sup, which NaN propagates through,
and sets B from it and B_prev from the exact sup|u_prev|.  So a row leaves on
the step it would leave on if every step were checked.  The checks bundled
here verify the structural facts a valid run must satisfy: support inside
the light cone, F positive and nondecreasing, and the quadrature version of
the Hoelder bound between F and the nonlinear mass, each an array expression
over the series.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from flrwave.blowup_ode import FitResult, fit_lifespans, sweep_eps
from flrwave.exponents import ModelParams

__all__ = [
    "PdeConfig",
    "PdeResult",
    "run",
    "support_check",
    "holder_check",
    "f_monotone_check",
    "lifespan_sweep",
]

SUPPORT_REL_TOL = 1e-12  # amplitudes below this fraction of sup|u| count as zero
# Grid cells kept past the light cone.  Any margin of at least one cell gives
# the same T, sup|u| and support, and F to summation order; none misses mass.
MARGIN_CELLS = 5
# Budgets of rows x cells of the light cone at t_max, of time steps, of
# recorded samples and of snapshot times; criterion 9's sweep (t_max 900,
# dr 1/200) needs ~12,000 cells a row and at most ~4.0e5 steps and records
# two samples a row, its refinement pair's runs (t_max 50) ~1,000, and no
# caller asks for more than 3 snapshots.  A run over any of them is refused
# before anything is allocated.
MAX_GRID_CELLS = 2**22
MAX_STEPS = 2**24
MAX_SAMPLES = 2**20
MAX_SNAPSHOTS = 2**10
# The longest time step, so the damping coefficient mu/t stays resolved once
# t^alpha grows large.
DT_CAP = 0.1
# The leapfrog step is stable for cfl < 2/sqrt(rho dr^2), with rho the spectral
# radius of the stencil's matrix; rho dr^2 depends on n alone, through the
# origin's weights.  The limits, rounded down, of dimensions 2 to 5.
CFL_LIMITS = {2: 0.9089, 3: 0.8164, 4: 0.7446, 5: 0.688}
# A run detects an overflowing field itself (termination "overflow"), so
# the stepping, its start and the Hoelder check silence numpy's warnings.
_QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")
_ALL = slice(None)  # every row of the batch
# Steps a block of the step schedule (``_schedule``) holds: its few tens of KB
# are all the memory a run spends on its steps, however many it takes.
_BLOCK = 256
# Cells at the end of a sampled row that the support scan reads first: the
# cone cut leaves its support some MARGIN_CELLS + 1 cells before the end.
_WINDOW = 16


@dataclass(frozen=True)
class PdeConfig:
    """One radial blow-up run.

    The data profile is the C^2 cubic bump (1 - (r/R)^2)^3 on r < R for both
    u0 and u1.  The series are sampled at t = 1, at the first level at or past
    each later time 1 + k sample_dt, and at the level the run ends on unless
    it overflowed; ``sample_dt = inf`` records the first and the last alone.
    ``snapshot_times``, a tuple of finite times, requests (t, u) profile dumps
    at the first level reaching each time, at most ``MAX_SNAPSHOTS`` of them.
    """

    params: ModelParams
    p: float
    eps: float
    R: float = 1.0
    dr: float = 0.005
    cfl: float = 0.45
    blowup_threshold: float = 1e8
    t_max: float = 50.0
    sample_dt: float = 0.05
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps}")
        if not (self.R > 0.0 and 0.0 < self.dr < math.inf):
            raise ValueError("R must be positive and dr positive and finite")
        if not self.eps < self.blowup_threshold:  # sup u(1) = eps bump3(0) = eps
            raise ValueError(
                f"blow-up threshold must exceed the initial data sup|u(1)| = eps, got "
                f"eps={self.eps} and blowup_threshold={self.blowup_threshold}"
            )
        if not 1.0 < self.t_max < math.inf:
            raise ValueError(
                f"t_max must be finite and exceed the initial time 1, got {self.t_max}"
            )
        times = self.snapshot_times  # a tuple, so that the config hashes
        if not (isinstance(times, tuple) and all(isinstance(s, numbers.Real) for s in times)):
            raise ValueError(f"snapshot_times must be a tuple of numbers, got {times!r}")
        # the pending times are kept sorted, and a NaN would stop every later one
        bad = [s for s in times if not math.isfinite(s)]
        if bad:
            raise ValueError(f"snapshot times must be finite, got {bad}")
        limit = CFL_LIMITS.get(self.params.n)
        if limit is None:
            raise ValueError(f"the radial scheme supports n <= 5, got n={self.params.n}")
        if not 0.0 < self.cfl < limit:
            raise ValueError(
                f"cfl must lie in (0, {limit}) at n={self.params.n}, where the step is "
                f"stable, got {self.cfl}"
            )
        # The step's u_prev weight, (mu/t - 2/dt_old)/(span lhs), is negative
        # only while mu dt_old/t < 2: past that, F falls, and a large mu fakes
        # a blow-up in one step.  dt/t is largest at t = 1, as alpha < 1.
        damping = self.params.mu * _next_dt(1.0, self)
        if not damping < 2.0:
            raise ValueError(
                f"mu * dt at t = 1 must be below 2, where the damped step keeps its sign, "
                f"got {damping:.4g}; lower dr or cfl"
            )
        # t + dt and next_sample + sample_dt must not round back to t.  The
        # first step is the smallest, and the float spacing at any t the loop
        # adds to is at most ulp(t_max) (a sample time can pass t_max, but the
        # sample budget keeps it below 2 when sample_dt is this small).  So
        # each must exceed half that spacing, strictly: at a tie t_max + x
        # rounds up where t + x may round back.
        half_ulp = math.ulp(self.t_max) / 2.0
        if not (_next_dt(1.0, self) > half_ulp and self.sample_dt > half_ulp):
            raise ValueError(
                f"the first step and sample_dt must be positive and resolvable at "
                f"t_max={self.t_max}"
            )


@dataclass
class PdeResult:
    T_num: float
    termination: str  # "threshold" | "horizon" | "overflow" (a non-finite sup|u|)
    t_samples: np.ndarray
    sup_series: np.ndarray
    F_series: np.ndarray
    lp_series: np.ndarray
    support_series: np.ndarray
    config: PdeConfig
    snapshots: list = field(default_factory=list)  # (t, u) pairs on request

    @property
    def blew_up(self) -> bool:
        return self.termination == "threshold"


def bump3(r: np.ndarray, R: float) -> np.ndarray:
    """Cubic bump (1 - (r/R)^2)^3 for r < R, zero outside; C^2 across r = R."""
    r = np.asarray(r, dtype=float)
    inside = np.clip(1.0 - (r / R) ** 2, 0.0, None)
    return inside**3


def light_cone_radius(t: float, alpha: float, R: float) -> float:
    """Support bound A(t) + R with A(t) = (t^(1-alpha) - 1)/(1-alpha)."""
    return (t ** (1.0 - alpha) - 1.0) / (1.0 - alpha) + R


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n: pi^(n/2) / Gamma(n/2 + 1)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _weights(cells: int, dr: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell weights on r_i = i*dr.  Lap u_i = left_i u_(i-1) + right_i
    u_(i+1) - (2/dr^2) u_i with left/right = 1/dr^2 -/+ (n-1)/(2 r_i dr); the
    origin's symmetric limit n u_rr has left_0 = 0 and right_0 = 2n/dr^2, also
    its centre weight.  quad = sigma_(n-1) dr r^(n-1) is the quadrature's."""
    r = dr * np.arange(cells)  # built in place: at a grid growth these set the peak memory
    quad = r ** (n - 1.0)
    quad *= sphere_area(n) * dr
    inv_dr2 = 1.0 / (dr * dr)
    drift = np.divide(n - 1.0, np.multiply(r, 2.0 * dr, out=r), out=r, where=r > 0.0)
    left = inv_dr2 - drift
    right = np.add(drift, inv_dr2, out=drift)
    left[0], right[0] = 0.0, 2.0 * n * inv_dr2
    return left, right, quad


def _pitch(cells: int) -> int:
    """Row pitch for a grid of ``cells``: a few percent of padding, so that
    the rows are laid out again only every few percent of growth, rounded up
    to whole 64-byte cache lines (8 doubles), so that in a ``_Stripes`` every
    level and every row starts on a cache line."""
    return (cells + cells // 32 + 15) // 8 * 8


def _aligned(size: int) -> np.ndarray:
    """``size`` zeroed doubles whose first sits on a 64-byte boundary, where
    the heap aligns a large buffer to 16 bytes only."""
    buffer = np.zeros(size + 7)
    skip = -buffer.ctypes.data % 64 // 8
    return buffer[skip : skip + size]


class _Stripes:
    """Three time levels and one scratch level (level 3) in one C-contiguous
    (4, rows, stride) array, each level's rows end to end and each row's
    field zero past its last cell; the trapezoid weights of one row; and, per
    rotation of the time levels, the views a step reads and writes
    (``rotations``).  A layout allocates its own zeroed levels, one
    ``_aligned`` buffer with level 0 one cache line in, so that u[i-1], the
    flat level read one double early (``before``), reads level 0's guard
    double from the line ahead of it; no value there reaches a row.  The
    neighbour weights are repeated once a row in one aligned buffer.  A
    layout is never edited: the start builds one at a ``_pitch``, and
    ``laid_out``, the one way rows are copied, builds the next when rows
    leave or the grid outgrows the pitch.  So the levels, every row and both
    weight tiles start on a 64-byte cache line, every full-length pass of a
    step stores on one, and only its shifted reads, u[i-1] and u[i+1],
    start off one."""

    def __init__(self, rows: int, stride: int, dr: float, n: int):
        if stride < 3:
            raise ValueError(f"grid must have at least 3 points, got {stride}")
        size = rows * stride
        memory = _aligned(8 + 4 * size)
        self.levels = levels = memory[8:].reshape(4, rows, stride)
        self.stride, self.dr, self.n = stride, dr, n
        left, right, self.quad = _weights(stride, dr, n)
        self.right0 = float(right[0])  # the origin's centre weight
        tiles = _aligned(2 * size).reshape(2, rows, stride)
        tiles[0], tiles[1] = left, right
        self.grid = list(levels)
        self.flat = flat = [grid.reshape(size) for grid in self.grid]
        self.before = [memory[7 + i * size : 7 + (i + 1) * size] for i in range(3)]
        # a step's five scalars, passed as 0-d views: a float is promoted each call
        scalars = np.empty(5)
        shared = (memoryview(scalars), *(scalars[..., i] for i in range(5)),
                  tiles[0].reshape(-1), tiles[1].reshape(-1)[:-1], flat[3], flat[3][::stride])
        # per value of ``prev``: the new level, u_prev (consumed as the scratch
        # of u[i+1]), u and its views, and the new level's grid for the cut
        self.rotations = [
            (*shared, flat[nxt], flat[prev], flat[prev][:-1], flat[prev][stride - 1 :: stride],
             flat[curr], self.before[curr], flat[curr][1:], flat[curr][::stride], self.grid[nxt])
            for prev, curr, nxt in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        ]

    def laid_out(self, rows: Sequence[int], stride: int) -> "_Stripes":
        """The rows ``rows``, in order, copied into a layout of their own with
        pitch ``stride``, one row at a time by slice assignment: a fancy
        index, or numpy's compress even with ``out``, would copy through a
        temporary as large as the new levels."""
        fresh = _Stripes(len(rows), stride, self.dr, self.n)
        for new, old in enumerate(rows):
            fresh.levels[:, new, : self.stride] = self.levels[:, old]
        return fresh

    def step(self, prev: int, scalars, width: int) -> None:
        """Set level ``nxt`` = ``(prev + 2) % 3``, which holds the source
        |u|^p on entry, to inv_lhs nxt + c_prev u_prev + k (left u[i-1] +
        right u[i+1]) + c u, with u level ``(prev + 1) % 3`` and u_prev level
        ``prev``, which is consumed, as is the scratch level; then zero every
        cell of it from column ``width`` on.  ``scalars``, a buffer of 5
        doubles, holds inv_lhs, c_prev, k, the centre weight c - 2k/dr^2 and
        the origin's, c - k right0 (``_scalars``).  The neighbour terms that
        would cross a row's ends are dropped, so no value of one row, not
        even inf or NaN, reaches another.  The one place of the update's
        ufunc sequence; it does no float arithmetic of its own."""
        (buffer, inv_lhs, prev_weight, k, centre, origin, left, right_head, near, near_starts,
         out, u_prev, head, ends, u, before, tail, starts, new) = self.rotations[prev]
        multiply, add = np.multiply, np.add
        buffer[:] = scalars
        multiply(out, inv_lhs, out)
        multiply(u_prev, prev_weight, u_prev)
        add(out, u_prev, out)
        # The scratch level lies past every time level, so numpy sees no
        # overlap of ``before`` with it and copies nothing.
        multiply(left, before, near)
        near_starts.fill(0.0)
        multiply(right_head, tail, head)
        ends.fill(0.0)
        add(near, u_prev, near)
        multiply(near, k, near)
        add(out, near, out)
        multiply(u, centre, near)
        multiply(starts, origin, near_starts)
        add(out, near, out)
        new[:, width:].fill(0.0)


def _scalars(inv_lhs, prev_weight, k, c, dr: float, right0: float) -> np.ndarray:
    """A step's five scalars (``_Stripes.step``) for the weights ``inv_lhs``,
    ``prev_weight``, k and c, then its three gains for ``_sup_bound``:
    inv_lhs, |prev_weight| and, for k >= 0, k right0 + max(|centre|,
    |origin|), which bounds sup|k Lap(u) + c u| / sup|u|: every cell has
    |left_i| + |right_i| <= right0 = 2n/dr^2, cell 1 at n = 4 and 5 (where
    left_1 < 0) too.  Elementwise, on floats or on arrays of one shape,
    stacked along a new last axis."""
    centre, origin = c - 2.0 * k / (dr * dr), c - k * right0
    gain = k * right0 + np.maximum(abs(centre), abs(origin))
    return np.stack([inv_lhs, prev_weight, k, centre, origin, inv_lhs, abs(prev_weight), gain], -1)


def _coefficients(t, dt_old, dt_new, t_pow, mu: float, dr: float, right0: float) -> np.ndarray:
    """``_scalars`` of the steps centred at t from steps dt_old and dt_new,
    with t_pow = t^(-2 alpha).  Nonuniform steps use the standard
    divided-difference form of u_tt; the damping term couples the outer
    levels only, so the new level solves in closed form, k (left u_(i-1) +
    right u_(i+1)) + c_curr u + c_prev u_prev + |u|^p/lhs."""
    span = dt_old + dt_new
    damp = mu / t
    lhs = 2.0 / (span * dt_new) + damp / span
    return _scalars(1.0 / lhs, (damp / span - 2.0 / (span * dt_old)) / lhs, t_pow / lhs,
                    (2.0 / (span * dt_new) + 2.0 / (span * dt_old)) / lhs, dr, right0)


def _sup_bound(gains: Sequence[float], b: float, b_prev: float, p: float,
               right0: float) -> float:
    """An upper bound on sup|u| of the level a step (``_Stripes.step``, with
    its ``gains`` from ``_scalars`` and ``right0``) makes, given bounds ``b``
    on sup|u| of its current level and ``b_prev`` on its previous one.  The
    new level is at most gains . (b^p, b_prev, b) exactly; the factor 1 +
    1e-12 covers the rounding of the step's few operations, numpy's power
    among them.  The step also forms the neighbour sum before k scales it,
    up to right0 b, and the source, up to b^p: where either comes within a
    factor 4 of the float range, the bound is inf.  A NaN bound gives inf or
    NaN, which fails the threshold test as inf does."""
    try:
        source = b**p
    except OverflowError:  # Python's float power raises where numpy's gives inf
        return math.inf
    if not 4.0 * max(source, right0 * b) < math.inf:
        return math.inf
    g_source, g_prev, g_curr = gains
    return (1.0 + 1e-12) * (g_source * source + g_prev * b_prev + g_curr * b)


def _quadrature(y: np.ndarray, quad: np.ndarray, out=None):
    """Trapezoid rule for int y dx along the last axis; ``out`` is scratch."""
    weighted = np.multiply(y, quad[: y.shape[-1]], out=out)
    return weighted.sum(axis=-1) - 0.5 * (weighted[..., 0] + weighted[..., -1])


def _last_above(a: np.ndarray, floor, dr: float) -> np.ndarray:
    """Largest r_i with a_i > floor along the last axis, 0 where none is.
    It scans the last ``_WINDOW`` cells of each row first, where the cone
    cut leaves the support of a sampled level, and the whole rows only when
    one of them has no cell above there."""
    above = a[..., : -_WINDOW - 1 : -1] > floor  # last cell first
    found = np.logical_or.reduce(above, -1)
    if not np.logical_and.reduce(found, None):
        above = a[..., ::-1] > floor
        found = np.logical_or.reduce(above, -1)
    return np.where(found, (a.shape[-1] - 1 - above.argmax(-1)) * dr, 0.0)


def _next_dt(t: float, cfg: PdeConfig) -> float:
    return min(cfg.cfl * cfg.dr * t**cfg.params.alpha, DT_CAP)


def _cells(cone, dr: float):
    """Grid points r_i = i*dr that cover a light cone of radius ``cone`` plus
    ``MARGIN_CELLS``, as floats, elementwise; a non-finite count passes
    through for ``_check_budget`` to refuse."""
    return np.ceil((cone + MARGIN_CELLS * dr) / dr) + 1.0


def _schedule(cfg: PdeConfig, right0: float):
    """Blocks of ``_BLOCK`` steps after the Taylor start, each the numbers of
    its steps that do not depend on the field: their centre times t, the grid
    cells after each (``cells[j + 1]``; ``cells[0]``, those before the
    block), their cone cuts ``width``, their ``_coefficients`` as one flat
    float64 memoryview (step j's five scalars at 8 j, then its three gains)
    and the gains again as lists of floats.  The recurrence t + min(cfl dr
    t^alpha, ``DT_CAP``) and the powers t^alpha, t^(-2 alpha) and (t +
    dt)^(1-alpha) are Python floats: numpy's power loop rounds differently on
    AVX-512 and AVX2.  The rest is numpy arithmetic over the block, with the
    bits of the same float operations taken one step at a time."""
    alpha, exponent, dr = cfg.params.alpha, -2.0 * cfg.params.alpha, cfg.dr
    dt = _next_dt(1.0, cfg)
    t, cells = 1.0 + dt, int(_cells(light_cone_radius(1.0, alpha, cfg.R), dr))
    while True:
        steps = array("d")  # per step t, dt_old, dt_new, t^(-2 alpha) and its cone
        for _ in range(_BLOCK):
            step = _next_dt(t, cfg)
            cone = light_cone_radius(t + step, alpha, cfg.R)
            steps.extend((t, dt, step, t**exponent, cone))
            t, dt = t + step, step
        times, olds, news, powers, cone = np.frombuffer(steps).reshape(-1, 5).T
        reach = np.maximum.accumulate(np.maximum(_cells(cone, dr), cells)).astype(int).tolist()
        # Domain-of-dependence enforcement: the exact solution vanishes beyond
        # A(t) + R, while the explicit stencil transports ~1e-4-relative tails
        # at grid speed (faster than the decaying physical speed).  Zeroing
        # strictly beyond the cone plus a one-cell buffer removes the spurious
        # tail, and the padding is zeroed too.  The cut is a sink: it also
        # deletes the mass that the stencil has just moved across its edge,
        # so F drains there.
        widths = (np.floor((cone + dr) / dr) + 1.0).astype(int).tolist()
        table = _coefficients(times, olds, news, powers, cfg.params.mu, dr, right0)
        gains = table[:, 5:].tolist()
        yield times.tolist(), [cells, *reach], widths, memoryview(table.reshape(-1)), gains
        cells = reach[-1]


def _raise_to(a: np.ndarray, p: float) -> None:
    """a **= p in place.  A square is one multiply: the same bits as numpy's
    power ufunc, in under half its time on 1e4-1e5 cells (numpy 2.4, Xeon)."""
    if p == 2.0:
        np.multiply(a, a, a)
    else:
        a **= p


def _check_budget(cfg: PdeConfig, rows: int) -> None:
    cells = _cells(light_cone_radius(cfg.t_max, cfg.params.alpha, cfg.R), cfg.dr)
    if rows * cells > MAX_GRID_CELLS:
        raise ValueError(
            f"{rows} run(s) x {cells:.4g} cells of the light cone at t_max={cfg.t_max} exceed "
            f"the grid budget of {MAX_GRID_CELLS} cells; raise dr or lower t_max"
        )
    # dt is smallest at t = 1 for alpha >= 0, so this bounds the steps
    steps = (cfg.t_max - 1.0) / _next_dt(1.0, cfg)
    if steps > MAX_STEPS:
        raise ValueError(
            f"up to {steps:.4g} time steps to t_max={cfg.t_max} exceed the step budget of "
            f"{MAX_STEPS}; raise dr or cfl, or lower t_max"
        )
    samples = (cfg.t_max - 1.0) / cfg.sample_dt
    if samples > MAX_SAMPLES:
        raise ValueError(
            f"{samples:.4g} samples to t_max={cfg.t_max} exceed the sample budget of "
            f"{MAX_SAMPLES}; raise sample_dt or lower t_max"
        )
    times = cfg.snapshot_times
    if len(times) > MAX_SNAPSHOTS:
        raise ValueError(
            f"{len(times)} snapshot times exceed the snapshot budget of {MAX_SNAPSHOTS}"
        )


@_QUIET
def _run_batch(cfg: PdeConfig, eps_values: Sequence[float]) -> list[PdeResult]:
    """Run ``replace(cfg, eps=e)`` for every e of ``eps_values`` as rows of
    one (eps x r) array, in input order.  See ``run`` for the semantics and
    ``PdeConfig`` for the samples each row records."""
    n, alpha, mu, p, dr = cfg.params.n, cfg.params.alpha, cfg.params.mu, cfg.p, cfg.dr
    configs = [replace(cfg, eps=float(e)) for e in eps_values]  # each row's data is valid
    eps = [c.eps for c in configs]
    _check_budget(cfg, len(eps))
    cells = int(_cells(light_cone_radius(1.0, alpha, cfg.R), dr))

    ids = np.arange(len(eps))  # input position of each row still in the batch
    # per row, its samples (t, sup, F, lp, support) end to end, 8 B a value
    samples = [array("d") for _ in eps]
    snapshots: list[list] = [[] for _ in eps]
    results: list = [None] * len(eps)
    pending = sorted(float(s) for s in cfg.snapshot_times)

    def observe(t, u, a, sup, which):
        """Raise ``a`` = |u| in place to the source |u|^p.  Record t, sup|u|,
        F, int |u|^p dx and the support radius, on the first ``cells``
        columns, of the rows ``which`` selects: a mask, ``_ALL``, or None
        for no row."""
        if which is None:
            _raise_to(a, p)
            return
        u, sup, quad = u[which, :cells], sup[which], stripes.quad
        scratch = stripes.levels[3, : sup.size, :cells]
        F = _quadrature(u, quad, scratch)
        radius = _last_above(a[which, :cells], SUPPORT_REL_TOL * sup[:, None], dr)
        _raise_to(a, p)
        columns = [sup, F, _quadrature(a[which, :cells], quad, scratch), radius]
        for i, *values in zip(ids[which].tolist(), *(c.tolist() for c in columns)):
            samples[i].extend((t, *values))

    def snapshot(t, u, which):
        while pending and t >= pending[0]:
            for i, profile in zip(ids[which].tolist(), u[which]):
                snapshots[i].append((t, profile.copy()))  # u may be a live level
            pending.pop(0)

    # Three time levels and one scratch level, laid out as ``_Stripes``.  The
    # cells past ``cells`` in each row (its padding) are zero after every
    # step; when the grid outgrows the pitch or rows leave, the rows are laid
    # out afresh.  u(1) = eps u0 is built in level 0, where the first step
    # reads it.
    stripes = _Stripes(len(eps), _pitch(cells), dr, n)
    u0 = np.multiply.outer(eps, bump3(dr * np.arange(cells), cfg.R),
                           out=stripes.grid[0][:, :cells])  # u1 = u0
    a = np.abs(u0)
    observe(1.0, u0, a, a.max(axis=1), _ALL)
    snapshot(1.0, u0, _ALL)
    # The Taylor start from the equation at t = 1, where t^(-2 alpha) = 1, with
    # u_t(1) = u0: u0 + dt u0 + dt^2/2 (Lap u0 - mu u0 + |u0|^p), on level 1
    # (zero, as is level 2, which the step consumes) with level 3 as scratch.
    # u0 vanishes on the margin, so Lap u0, and with it the padding, is zero
    # past the grid.
    dt = _next_dt(1.0, cfg)
    right0 = stripes.right0
    stripes.step(2, _scalars(1.0, 0.0, 1.0, 0.0, dr, right0)[:5], stripes.stride)
    start = stripes.grid[1][:, :cells]
    start -= mu * u0
    start += a
    start *= 0.5 * dt * dt
    start += u0 + dt * u0
    blocks = _schedule(cfg, right0)
    times, reach, widths, table, gains = next(blocks)
    i, prev, curr, nxt = 0, 0, 1, 2
    next_sample = 1.0 + cfg.sample_dt
    t_max, threshold = cfg.t_max, cfg.blowup_threshold
    horizon = min(t_max, next_sample, *pending[:1])  # the first sample, snapshot or t_max
    bound = bound_prev = math.inf  # upper bounds on sup|u| of levels curr and prev
    flat, multiply = stripes.flat, np.multiply
    while True:
        # One loop takes the block's steps until the grid outgrows the pitch;
        # a quiet step, before ``horizon`` and under the bound, is a source, a
        # step and a bound.  A step at or past t_max is the last: it needs no
        # wider grid.
        stop = bisect_left(reach, stripes.stride, 1) - 1
        if stop < len(times) and times[stop] >= t_max:
            stop = len(times)
        for i in range(i, stop):
            t = times[i]
            if t < horizon and bound < threshold:
                # a quiet step under the bound: no cell can reach the threshold
                if p == 2.0:  # |u|^2 as u u, the same bits
                    multiply(flat[curr], flat[curr], flat[nxt])
                else:
                    _raise_to(np.abs(flat[curr], flat[nxt]), p)
            else:
                sample = t >= next_sample
                while next_sample <= t:
                    next_sample += cfg.sample_dt
                due = pending and t >= pending[0]
                cells = reach[i]
                u = stripes.grid[curr]
                a = np.abs(u, stripes.grid[nxt])  # becomes the source |u|^p
                sup = np.maximum.reduce(a, 1)  # propagates inf and NaN
                top = np.maximum.reduce(sup)
                if due:
                    snapshot(t, u[:, :cells], np.isfinite(sup))
                if t < t_max and top < threshold:
                    observe(t, u, a, sup, _ALL if sample else None)
                else:
                    finite = np.isfinite(sup)
                    leave = ~(sup < threshold) | (t >= t_max)  # inf and NaN leave too
                    observe(t, u, a, sup, finite if sample else finite & leave)
                    for row, s in zip(ids[leave].tolist(), sup[leave].tolist()):
                        end = "threshold" if s >= threshold else "horizon"
                        end = end if math.isfinite(s) else "overflow"
                        series = np.frombuffer(samples[row]).reshape(-1, 5).T
                        results[row] = PdeResult(t, end, *series, configs[row], snapshots[row])
                    kept = np.flatnonzero(~leave)
                    ids = ids[kept]
                    if not ids.size:
                        return results
                    stripes = stripes.laid_out(kept, stripes.stride)
                    flat = stripes.flat
                    top = np.maximum.reduce(sup[kept])
                # the exact sups of the rows kept, u_prev's through the scratch
                # level: a stale bound on u_prev would fail the next step's test,
                # and every other step would be checked
                bound = float(top)
                bound_prev = float(np.maximum.reduce(np.abs(flat[prev], flat[3])))
                horizon = min(t_max, next_sample, *pending[:1])
                # nothing bound here outlives the step: u and a view a layout that
                # a grid growth may replace before the next check
                del u, a, sup
            stripes.step(prev, table[8 * i : 8 * i + 5], widths[i])
            bound, bound_prev = _sup_bound(gains[i], bound, bound_prev, p, right0), bound
            prev, curr, nxt = curr, nxt, prev
        i = stop
        if i == len(times):
            times, reach, widths, table, gains = next(blocks)
            i = 0
        else:  # lay the rows out wider before step i: its source, or its check,
            # reads and writes the same bits in either layout
            stripes = stripes.laid_out(range(ids.size), _pitch(reach[i + 1]))
            flat = stripes.flat


def run(cfg: PdeConfig) -> PdeResult:
    """Step until the blow-up threshold (a blow-up), the horizon or an overflow.

    The reported T_num for a blow-up run is the time of the first level whose
    sup-norm clears the threshold (the spatial resolution of the focusing
    peak degrades beyond that point, so the crossing time stands in for the
    true lifespan).  Deterministic for a fixed config.  The run keeps a
    (t, u) profile at the first level reaching each of ``cfg.snapshot_times``.
    """
    return _run_batch(cfg, [cfg.eps])[0]


def support_check(res: PdeResult) -> bool:
    """Finite propagation speed: measured support stays within A(t) + R + 2 dr
    at every sample.  The loop zeroes every cell past the cone plus one cell,
    so the support passes the cone by at most dr and no run can fail this; a
    fix of that cut should make it bite, e.g. against the discrete cone."""
    cfg = res.config
    cone = light_cone_radius(res.t_samples, cfg.params.alpha, cfg.R)
    return bool(np.all(res.support_series <= cone + 2 * cfg.dr))  # NaN fails too


@_QUIET
def holder_check(res: PdeResult) -> bool:
    """Quadrature Hoelder bound at each sample: the ratio
    (int |u|^p dx) vol^(p-1) / |F|^p, with vol the light-cone volume, is at
    least 1 - 1e-6, compared in logs so that no term overflows.  It is at
    least 1 when the support fits in the cone, 1 for a constant profile, and
    infinite where F = 0.  A non-finite F or nonlinear mass fails."""
    cfg = res.config
    n, p, F, lp = cfg.params.n, cfg.p, res.F_series, res.lp_series
    cone = light_cone_radius(res.t_samples, cfg.params.alpha, cfg.R)
    log_vol = math.log(ball_volume(n)) + n * np.log(cone)
    log_ratio = np.log(lp) + (p - 1.0) * log_vol - p * np.log(np.abs(F))
    holds = (F == 0.0) | (log_ratio >= math.log1p(-1e-6))
    return bool(np.all(np.isfinite(F) & np.isfinite(lp) & holds))


def f_monotone_check(res: PdeResult) -> bool:
    """F stays finite and positive, nondecreasing up to 1e-8 F(1) per sample,
    and never drops below F(1)."""
    F = res.F_series
    if F.size == 0 or not np.all(np.isfinite(F)) or F[0] <= 0.0:
        return False
    if np.any(np.diff(F) < -1e-8 * F[0]):
        return False
    return bool(np.min(F) >= F[0] * (1.0 - 1e-6))


def lifespan_sweep(cfg: PdeConfig, eps_grid: Sequence[float]) -> FitResult:
    """Check ``eps_grid`` (``blowup_ode.sweep_eps``), sweep it as one batch with
    no sample clock (``sample_dt = inf``: each row records its first and last
    levels alone) and no snapshots, and fit log T against log eps, keeping the runs."""
    batch = replace(cfg, sample_dt=math.inf, snapshot_times=())
    return fit_lifespans(_run_batch(batch, sweep_eps(eps_grid)))
