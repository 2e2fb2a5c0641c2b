"""Radially symmetric finite-difference solver for

    u_tt - t^(-2*alpha) Lap(u) + (mu/t) u_t = |u|^p,   t > 1,

with compactly supported nonnegative data u(1) = eps*u0, u_t(1) = eps*u1.

Scheme: three-level central differences in time with the damping term
time-centered (solved for the new level in closed form), second-order central
differences for the radial Laplacian with a symmetry ghost point at the
origin, and the nonlinearity evaluated at the current level.  The cached
per-cell stencil weights fold into the new level k (left u_(i-1) + right
u_(i+1)) + c_curr u + c_prev u_prev + |u|^p/lhs (see ``_Stripes.step``), with
a step's five scalars passed as 0-d views of one buffer of the layout, which
numpy does not promote anew on each call.  The time step tracks the
decaying wave speed, dt = min(cfl * dr * t^alpha, ``DT_CAP``), the cap
keeping the mu/t coefficient resolved, and the radial grid is extended lazily
to ``MARGIN_CELLS`` cells past the light cone r = A(t) + R, A(t) =
(t^(1-alpha) - 1)/(1-alpha).  The first step is the second-order Taylor start
from the equation at t = 1, on the same stencil.

The time steps and the grid do not depend on eps, so one stepping loop
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
source.  A quiet step, before t_max with no sample or snapshot due, tests
one max of the whole level, which NaN fails, against the threshold, and
builds no per-row sup unless it fails.  The checks bundled here verify the
structural facts a valid run must satisfy: support inside the light cone, F
positive and nondecreasing, and the quadrature version of the Hoelder bound
between F and the nonlinear mass, each an array expression over the series.
"""

from __future__ import annotations

import math
import numbers
from array import array
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
    field zero past its last cell; the trapezoid weights of one row; and the
    views a step reads, which write into the levels: per level the grid, its
    flat array, that less its last cell (``head``) or its first (``tail``),
    the first and the last cell of each row (``starts``, ``ends``) and the
    flat array read one double early (``before``, u[i-1]); and the neighbour
    weights, repeated once a row in one aligned buffer, ``left`` whole and
    ``right_head`` less its last double.  A layout allocates its own zeroed
    levels, one ``_aligned`` buffer with level 0 one cache line in, so that
    ``before`` reads level 0's guard double from the line ahead of it; no
    value there reaches a row.  A layout is never edited: the start builds
    one at a ``_pitch``, and ``laid_out``, the one way rows are copied,
    builds the next when rows leave or the grid outgrows the pitch.  So the
    levels, every row and both weight tiles start on a 64-byte cache line,
    every full-length pass of a step stores on one, and only its shifted
    reads, u[i-1] and u[i+1], start off one."""

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
        self.left, self.right_head = tiles[0].reshape(-1), tiles[1].reshape(-1)[:-1]
        self.grid = list(levels)
        self.flat = [grid.reshape(size) for grid in self.grid]
        self.head = [flat[:-1] for flat in self.flat]
        self.tail = [flat[1:] for flat in self.flat]
        self.starts = [flat[::stride] for flat in self.flat]
        self.ends = [flat[stride - 1 :: stride] for flat in self.flat]
        self.before = [memory[7 + i * size : 7 + (i + 1) * size] for i in range(3)]
        # a step's five scalars, passed as 0-d views: a float is promoted each call
        self.scalars = np.empty(5)
        self.inv_lhs, self.prev_weight, self.k, self.centre, self.origin = (
            self.scalars[..., i] for i in range(5))

    def laid_out(self, rows: Sequence[int], stride: int) -> "_Stripes":
        """The rows ``rows``, in order, copied into a layout of their own with
        pitch ``stride``, one row at a time by slice assignment: a fancy
        index, or numpy's compress even with ``out``, would copy through a
        temporary as large as the new levels."""
        fresh = _Stripes(len(rows), stride, self.dr, self.n)
        for new, old in enumerate(rows):
            fresh.levels[:, new, : self.stride] = self.levels[:, old]
        return fresh

    def stencil(self, out: int, u: int, tmp: int, k: float, c: float) -> None:
        """Add k Lap(u) + c u to level ``out``; level ``tmp`` and the scratch
        level are consumed.  The neighbour terms that would cross a row's
        ends are dropped, so no value of one row, not even inf or NaN,
        reaches another."""
        self.scalars[2:] = k, c - 2.0 * k / (self.dr * self.dr), c - k * self.right0
        # The scratch level lies past every time level, so numpy sees no
        # overlap of ``before`` with it and copies nothing.
        near = self.flat[3]
        np.multiply(self.left, self.before[u], near)
        self.starts[3].fill(0.0)
        np.multiply(self.right_head, self.tail[u], self.head[tmp])
        self.ends[tmp].fill(0.0)
        np.add(near, self.flat[tmp], near)
        np.multiply(near, self.k, near)
        out = self.flat[out]
        np.add(out, near, out)
        np.multiply(self.flat[u], self.centre, near)
        np.multiply(self.starts[u], self.origin, self.starts[3])
        np.add(out, near, out)

    def step(self, nxt: int, prev: int, curr: int, t: float, dt_old: float, dt_new: float,
             alpha: float, mu: float, width: int) -> None:
        """One three-level update centered at time t (level ``curr``) into
        level ``nxt``, which holds the source |u_curr|^p on entry; then every
        cell of it from column ``width`` on is zeroed.  Level ``prev`` is
        consumed.

        Nonuniform steps use the standard divided-difference form of u_tt;
        the damping term couples the outer levels only, so the new level
        solves in closed form, k (left u_(i-1) + right u_(i+1)) + c_curr u +
        c_prev u_prev + |u|^p/lhs."""
        span = dt_old + dt_new
        damp = mu / t
        lhs = 2.0 / (span * dt_new) + damp / span
        self.scalars[:2] = 1.0 / lhs, (damp / span - 2.0 / (span * dt_old)) / lhs
        out, u_prev = self.flat[nxt], self.flat[prev]
        np.multiply(out, self.inv_lhs, out)
        np.multiply(u_prev, self.prev_weight, u_prev)
        np.add(out, u_prev, out)
        c_curr = (2.0 / (span * dt_new) + 2.0 / (span * dt_old)) / lhs
        self.stencil(nxt, curr, prev, t ** (-2.0 * alpha) / lhs, c_curr)
        self.levels[nxt, :, width:] = 0.0


def _quadrature(y: np.ndarray, quad: np.ndarray, out=None):
    """Trapezoid rule for int y dx along the last axis; ``out`` is scratch."""
    weighted = np.multiply(y, quad[: y.shape[-1]], out=out)
    return weighted.sum(axis=-1) - 0.5 * (weighted[..., 0] + weighted[..., -1])


def _last_above(a: np.ndarray, floor, dr: float) -> np.ndarray:
    """Largest r_i with a_i > floor along the last axis, 0 where none is."""
    above = a > floor
    last = above.shape[-1] - 1 - np.argmax(above[..., ::-1], axis=-1)
    return np.where(above.any(axis=-1), last * dr, 0.0)


def _next_dt(t: float, cfg: PdeConfig) -> float:
    return min(cfg.cfl * cfg.dr * t**cfg.params.alpha, DT_CAP)


def _cells(cone: float, dr: float):
    """Grid points r_i = i*dr that cover a light cone of radius ``cone`` plus
    ``MARGIN_CELLS``; a non-finite count passes through for ``_check_budget``
    to refuse."""
    cells = (cone + MARGIN_CELLS * dr) / dr
    return math.ceil(cells) + 1 if math.isfinite(cells) else cells


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
    cells = _cells(light_cone_radius(1.0, alpha, cfg.R), dr)

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
    # with levels 2 and 3 as scratch.  u0 vanishes on the margin, so Lap u0,
    # and with it the padding, is zero past the grid.
    dt = _next_dt(1.0, cfg)
    stripes.stencil(1, 0, 2, 1.0, 0.0)
    start = stripes.grid[1][:, :cells]
    start -= mu * u0
    start += a
    start *= 0.5 * dt * dt
    start += u0 + dt * u0
    prev, curr, nxt = 0, 1, 2
    t, next_sample = 1.0 + dt, 1.0 + cfg.sample_dt
    t_max, threshold = cfg.t_max, cfg.blowup_threshold
    while True:
        u = stripes.grid[curr]  # rebound each step, so no old layout outlives a step
        a = np.abs(stripes.flat[curr], stripes.flat[nxt])  # becomes the source |u|^p
        sample = t >= next_sample
        while next_sample <= t:
            next_sample += cfg.sample_dt
        due = pending and t >= pending[0]
        if t < t_max and not (sample or due) and np.maximum.reduce(a) < threshold:
            # a quiet step: no cell reaches the threshold (NaN propagates, fails <)
            _raise_to(a, p)
        else:
            a = stripes.grid[nxt]
            sup = np.maximum.reduce(a, 1)  # propagates inf and NaN
            if due:
                snapshot(t, u[:, :cells], np.isfinite(sup))
            if t < t_max and np.maximum.reduce(sup) < threshold:
                observe(t, u, a, sup, _ALL if sample else None)
            else:
                finite = np.isfinite(sup)
                leave = ~(sup < threshold) | (t >= t_max)  # inf and NaN leave too
                observe(t, u, a, sup, finite if sample else finite & leave)
                for i, s in zip(ids[leave].tolist(), sup[leave].tolist()):
                    end = "threshold" if s >= threshold else "horizon"
                    end = end if math.isfinite(s) else "overflow"
                    series = np.frombuffer(samples[i]).reshape(-1, 5).T
                    results[i] = PdeResult(t, end, *series, configs[i], snapshots[i])
                kept = np.flatnonzero(~leave)
                ids = ids[kept]
                if not ids.size:
                    break
                stripes = stripes.laid_out(kept, stripes.stride)

        dt_new = _next_dt(t, cfg)
        cone = light_cone_radius(t + dt_new, alpha, cfg.R)  # once a step
        cells = max(cells, _cells(cone, dr))
        if cells >= stripes.stride:
            stripes = stripes.laid_out(range(ids.size), _pitch(cells))
        # Domain-of-dependence enforcement: the exact solution vanishes beyond
        # A(t) + R, while the explicit stencil transports ~1e-4-relative tails
        # at grid speed (faster than the decaying physical speed).  Zeroing
        # strictly beyond the cone plus a one-cell buffer removes the spurious
        # tail, and the padding is zeroed too.  The cut is a sink: it also
        # deletes the mass that the stencil has just moved across its edge,
        # so F drains there.
        width = int(math.floor((cone + dr) / dr)) + 1
        stripes.step(nxt, prev, curr, t, dt, dt_new, alpha, mu, width)
        t, dt = t + dt_new, dt_new
        prev, curr, nxt = curr, nxt, prev

    return results


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
