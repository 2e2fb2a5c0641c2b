"""Radially symmetric finite-difference solver for

    u_tt - t^(-2*alpha) Lap(u) + (mu/t) u_t = |u|^p,   t > 1,

with compactly supported nonnegative data u(1) = eps*u0, u_t(1) = eps*u1.

Scheme: three-level central differences in time with the damping term
time-centered (solved for the new level in closed form), second-order central
differences for the radial Laplacian with a symmetry ghost point at the
origin, and the nonlinearity evaluated at the current level.  The cached
per-cell stencil weights fold with four scalars a step into the new level
k (left u_(i-1) + right u_(i+1)) + c_curr u + c_prev u_prev + |u|^p/lhs (see
``_Stripes.step``).  The time step tracks the decaying wave speed,
dt = min(cfl * dr * t^alpha, ``DT_CAP``), the cap keeping the mu/t coefficient
resolved, and the radial grid is extended lazily to ``MARGIN_CELLS`` cells
past the light cone r = A(t) + R, A(t) = (t^(1-alpha) - 1)/(1-alpha).  The
first step is the second-order Taylor start from the equation at t = 1, on
the same stencil.

The time steps and the grid do not depend on eps, so one stepping loop
advances runs as the rows of one (eps x r) array, in place, without threads:
``lifespan_sweep`` is one batch and ``run`` a batch of one.  The rows lie end
to end with a zero-padded pitch a little wider than the grid, so that each
pass of a step is one loop over a contiguous array.  A layout is never
edited: the rows are laid out afresh at the start, when the grid outgrows the
pitch and when rows leave, and the views a step reads are built with it.
A row leaves at threshold, overflow or horizon, bit-identical to a run of its
own.  Only the threshold is a blow-up; an overflow (non-finite sup|u|) fails
like the horizon.  n > 5 is refused: there refining dr brings the "blow-up"
forward.  So is a cfl at or past the step's stability limit (``CFL_LIMITS``).

Diagnostics per sample time: sup|u|, the spatial average F = int u dx, the
nonlinear mass int |u|^p dx, and the support radius.  They reuse the step's
|u|, sup|u| and source |u|^p, and integrate with cached trapezoid weights.
Each row's samples grow in one packed float64 buffer (``array("d")``, 8 B a
value), whose five columns its ``PdeResult`` views without a copy.
A sweep reads only each row's T_num, so it records no series: its rows
carry None for all five, and its steps only raise the source.  A step on
which no row leaves and no sample or snapshot is due does no per-row
bookkeeping.  The checks bundled here verify the structural facts a valid
run must satisfy: support inside the light cone, F positive and
nondecreasing, and the quadrature version of the Hoelder bound between F
and the nonlinear mass, each an array expression over the series.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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
# no samples, its refinement pair's runs (t_max 50) ~1,000 samples, and no
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
    u0 and u1.
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

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps}")
        if not (self.R > 0.0 and self.dr > 0.0):
            raise ValueError("R and dr must be positive")
        if not self.eps < self.blowup_threshold:  # sup u(1) = eps bump3(0) = eps
            raise ValueError(
                f"blow-up threshold must exceed the initial data sup|u(1)| = eps, got "
                f"eps={self.eps} and blowup_threshold={self.blowup_threshold}"
            )
        if not 1.0 < self.t_max < math.inf:
            raise ValueError(
                f"t_max must be finite and exceed the initial time 1, got {self.t_max}"
            )
        limit = CFL_LIMITS.get(self.params.n)
        if limit is None:
            raise ValueError(f"the radial scheme supports n <= 5, got n={self.params.n}")
        if not 0.0 < self.cfl < limit:
            raise ValueError(
                f"cfl must lie in (0, {limit}) at n={self.params.n}, where the step is "
                f"stable, got {self.cfl}"
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
    blew_up: bool  # True exactly for a "threshold" ending
    T_num: float
    termination: str  # "threshold" | "horizon" | "overflow" (a non-finite sup|u|)
    # the sample series: all five None in a row of a batch that does not
    # record them (a sweep's)
    t_samples: Optional[np.ndarray]
    sup_series: Optional[np.ndarray]
    F_series: Optional[np.ndarray]
    lp_series: Optional[np.ndarray]
    support_series: Optional[np.ndarray]
    config: PdeConfig
    snapshots: list = field(default_factory=list)  # (t, u) pairs on request


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
    the rows are laid out again only every few percent of growth."""
    return cells + cells // 32 + 8


class _Stripes:
    """Three time levels and one scratch level (level 3) in one C-contiguous
    (4, rows, stride) array, each level's rows end to end and each row's
    field zero past its last cell; the trapezoid weights of one row; and the
    views a step reads, which write into the levels: per level the grid, its
    flat array, that less its last cell (``head``) or its first (``tail``)
    and the first cell of each row (``starts``); the last cell of each row of
    the scratch level (``ends``); and the neighbour weights, repeated once a
    row, that meet ``tail`` and ``head``.  A layout is never edited: one is
    built at the start, when the grid outgrows the pitch and when rows leave."""

    def __init__(self, levels: np.ndarray, dr: float, n: int):
        _, rows, stride = levels.shape
        if stride < 3:
            raise ValueError(f"grid must have at least 3 points, got {stride}")
        self.levels, self.stride, self.dr, self.n = levels, stride, dr, n
        left, right, self.quad = _weights(stride, dr, n)
        self.right0 = float(right[0])  # the origin's centre weight
        self.right_head, self.left_tail = np.tile(right, rows)[:-1], np.tile(left, rows)[1:]
        self.grid = list(levels)
        self.flat = [grid.reshape(rows * stride) for grid in self.grid]
        self.head = [flat[:-1] for flat in self.flat]
        self.tail = [flat[1:] for flat in self.flat]
        self.starts = [flat[::stride] for flat in self.flat]
        self.ends = self.flat[3][stride - 1 :: stride]

    def laid_out(self, cells: int) -> "_Stripes":
        """These rows copied into stripes of the pitch that ``cells`` asks for."""
        wide = np.zeros((*self.levels.shape[:2], _pitch(cells)))
        wide[:, :, : self.stride] = self.levels
        return _Stripes(wide, self.dr, self.n)

    def stencil(self, out: int, u: int, tmp: int, k: float, c: float) -> None:
        """Add k Lap(u) + c u to level ``out``; level ``tmp`` and the scratch
        level are consumed.  The neighbour terms that would cross a row's
        ends are dropped, so no value of one row, not even inf or NaN,
        reaches another."""
        near = self.flat[3]
        np.multiply(self.right_head, self.tail[u], out=self.head[3])
        self.ends.fill(0.0)
        np.multiply(self.left_tail, self.head[u], out=self.tail[tmp])
        self.starts[tmp].fill(0.0)
        np.add(near, self.flat[tmp], out=near)
        np.multiply(near, k, out=near)
        out = self.flat[out]
        np.add(out, near, out=out)
        np.multiply(self.flat[u], c - 2.0 * k / (self.dr * self.dr), out=near)
        np.multiply(self.starts[u], c - k * self.right0, out=self.starts[3])
        np.add(out, near, out=out)

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
        out, u_prev = self.flat[nxt], self.flat[prev]
        np.multiply(out, 1.0 / lhs, out=out)
        np.multiply(u_prev, (damp / span - 2.0 / (span * dt_old)) / lhs, out=u_prev)
        np.add(out, u_prev, out=out)
        c_curr = (2.0 / (span * dt_new) + 2.0 / (span * dt_old)) / lhs
        self.stencil(nxt, curr, prev, t ** (-2.0 * alpha) / lhs, c_curr)
        self.grid[nxt][:, width:] = 0.0


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
        np.multiply(a, a, out=a)
    else:
        a **= p


def _check_budget(cfg: PdeConfig, rows: int, snapshot_times: Sequence[float], record: bool) -> None:
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
    if record and samples > MAX_SAMPLES:
        raise ValueError(
            f"{samples:.4g} samples to t_max={cfg.t_max} exceed the sample budget of "
            f"{MAX_SAMPLES}; raise sample_dt or lower t_max"
        )
    if len(snapshot_times) > MAX_SNAPSHOTS:
        raise ValueError(
            f"{len(snapshot_times)} snapshot times exceed the snapshot budget of {MAX_SNAPSHOTS}"
        )
    # the pending times are kept sorted, and a NaN would stop every later one
    bad = [s for s in snapshot_times if not math.isfinite(s)]
    if bad:
        raise ValueError(f"snapshot times must be finite, got {bad}")


@_QUIET
def _run_batch(
    cfg: PdeConfig, eps_values: Sequence[float], snapshot_times: Sequence[float] = (),
    record: bool = True,
) -> list[PdeResult]:
    """Run ``replace(cfg, eps=e)`` for every e of ``eps_values`` as rows of
    one (eps x r) array, in input order.  See ``run`` for the semantics.
    With ``record`` false the batch takes no samples, as a sweep, which
    reads only T_num: its rows' five series are None."""
    n, alpha, mu, p, dr = cfg.params.n, cfg.params.alpha, cfg.params.mu, cfg.p, cfg.dr
    configs = [replace(cfg, eps=float(e)) for e in eps_values]  # each row's data is valid
    eps = [c.eps for c in configs]
    _check_budget(cfg, len(eps), snapshot_times, record)
    cells = _cells(light_cone_radius(1.0, alpha, cfg.R), dr)

    ids = np.arange(len(eps))  # input position of each row still in the batch
    # per row, its samples (t, sup, F, lp, support) end to end, 8 B a value
    samples = [array("d") for _ in eps]
    snapshots: list[list] = [[] for _ in eps]
    results: list = [None] * len(eps)
    pending = sorted(float(s) for s in snapshot_times)

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
    stripes = _Stripes(np.zeros((4, len(eps), _pitch(cells))), dr, n)
    u0 = np.multiply.outer(eps, bump3(dr * np.arange(cells), cfg.R),
                           out=stripes.grid[0][:, :cells])  # u1 = u0
    a = np.abs(u0)
    observe(1.0, u0, a, a.max(axis=1), _ALL if record else None)
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
    # a batch that does not record is never due a sample
    t, next_sample = 1.0 + dt, 1.0 + cfg.sample_dt if record else math.inf
    t_max, threshold = cfg.t_max, cfg.blowup_threshold
    while True:
        u = stripes.grid[curr]
        a = np.abs(u, out=stripes.grid[nxt])  # becomes the source |u|^p
        sup = a.max(axis=1)
        sample = t >= next_sample
        while next_sample <= t:
            next_sample += cfg.sample_dt
        if t < t_max and all(s < threshold for s in sup.tolist()):
            # a quiet step: no row leaves, and every row is finite (NaN fails <)
            if pending and t >= pending[0]:
                snapshot(t, u[:, :cells], _ALL)
            observe(t, u, a, sup, _ALL if sample else None)
        else:
            finite = np.isfinite(sup)  # the max propagates inf and NaN
            snapshot(t, u[:, :cells], finite)
            leave = ~(sup < threshold) | (t >= t_max)  # inf and NaN leave too
            observe(t, u, a, sup, (finite if sample else finite & leave) if record else None)
            for i, s in zip(ids[leave].tolist(), sup[leave].tolist()):
                end = "threshold" if s >= threshold else "horizon"
                end = end if math.isfinite(s) else "overflow"
                series = np.frombuffer(samples[i]).reshape(-1, 5).T if record else [None] * 5
                results[i] = PdeResult(end == "threshold", t, end, *series, configs[i],
                                       snapshots[i])
            ids = ids[~leave]
            if not ids.size:
                break
            # compress, unlike levels[:, mask], returns C-contiguous rows, so
            # the flat views write into them
            stripes = _Stripes(stripes.levels.compress(~leave, axis=1), dr, n)

        dt_new = _next_dt(t, cfg)
        cone = light_cone_radius(t + dt_new, alpha, cfg.R)  # once a step
        cells = max(cells, _cells(cone, dr))
        if cells >= stripes.stride:
            stripes = stripes.laid_out(cells)
        # Domain-of-dependence enforcement: the exact solution vanishes beyond
        # A(t) + R, while the explicit stencil transports ~1e-4-relative tails
        # at grid speed (faster than the decaying physical speed).  Zeroing
        # strictly beyond the cone plus a one-cell buffer removes the spurious
        # tail and leaves the cone content untouched; the padding is zeroed too.
        width = int(math.floor((cone + dr) / dr)) + 1
        stripes.step(nxt, prev, curr, t, dt, dt_new, alpha, mu, width)
        t, dt = t + dt_new, dt_new
        prev, curr, nxt = curr, nxt, prev

    return results


def run(cfg: PdeConfig, snapshot_times: Sequence[float] = ()) -> PdeResult:
    """Step until the blow-up threshold (a blow-up), the horizon or an overflow.

    The reported T_num for a blow-up run is the time of the first level whose
    sup-norm clears the threshold (the spatial resolution of the focusing
    peak degrades beyond that point, so the crossing time stands in for the
    true lifespan).  Deterministic for a fixed config.  ``snapshot_times``
    requests (t, u) profile dumps at the first level reaching each time, at
    most ``MAX_SNAPSHOTS`` of them.
    """
    return _run_batch(cfg, [cfg.eps], snapshot_times)[0]


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
    """F stays finite and positive, nondecreasing up to 1e-8 F(1) per step,
    and never drops below F(1)."""
    F = res.F_series
    if F.size == 0 or not np.all(np.isfinite(F)) or F[0] <= 0.0:
        return False
    if np.any(np.diff(F) < -1e-8 * F[0]):
        return False
    return bool(np.min(F) >= F[0] * (1.0 - 1e-6))


def lifespan_sweep(cfg: PdeConfig, eps_grid: Sequence[float]) -> FitResult:
    """Check ``eps_grid`` (``blowup_ode.sweep_eps``), sweep it as one batch that
    records no series and fit log T against log eps (``fit_lifespans``)."""
    eps = sweep_eps(eps_grid)
    return fit_lifespans(cfg.t_max, eps, _run_batch(cfg, eps, record=False))
