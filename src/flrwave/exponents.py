"""Critical exponents and threshold quantities of the damped wave model.

The model is

    u_tt - t^(-2*alpha) * Lap(u) + (mu / t) * u_t = |u|^p,   t > 1, x in R^n,

with n >= 2, 0 <= alpha < 1, mu >= 0.  The cosmological form of the equation
(propagation speed set by a power-law scale factor) corresponds to
alpha = 2/(n(1+w)), mu = 2/(1+w) for an equation-of-state constant w.

Everything here is closed-form arithmetic: the Fujita-type exponent seen by
the heatlike regime, the quadratics whose positive roots bound the wavelike
regime, and the parameter values where those regimes exchange dominance.
Quadratic roots are extracted with the cancellation-safe form of the
quadratic formula because the leading coefficient can pass through zero
inside the admissible parameter range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

__all__ = [
    "ModelParams",
    "FlrwParams",
    "Quadratic",
    "RootNote",
    "RootReport",
    "fujita",
    "strauss_quadratic",
    "strauss_exponent",
    "positive_root",
    "gamma_quadratic",
    "gamma",
    "p_c",
    "gamma0_quadratic",
    "gamma0",
    "p_c_flrw",
    "mu_star",
    "w_star",
    "flrw_to_model",
]


def _require_dimension(n, name: str = "n") -> None:
    # Past 2**53 a float no longer holds every integer: the closed forms would
    # round n, or overflow converting it.  NaN fails the range.
    if not 2 <= n <= 2**53 or int(n) != n:
        raise ValueError(f"{name} must be an integer from 2 to 2**53, got {n}")


@dataclass(frozen=True)
class ModelParams:
    """Parameter triple (n, alpha, mu) of the damped wave model.

    n      -- integer spatial dimension, n >= 2
    alpha  -- decay exponent of the propagation speed t^(-alpha), 0 <= alpha < 1
    mu     -- coefficient of the mu/t damping term, mu >= 0
    """

    n: int
    alpha: float
    mu: float

    def __post_init__(self):
        _require_dimension(self.n, "spatial dimension")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {self.alpha}")
        if not self.mu >= 0.0:  # NaN fails it
            raise ValueError(f"mu must be nonnegative, got {self.mu}")

    @property
    def effective_dim(self) -> float:
        """n(1 - alpha): the dimension that the heatlike threshold sees."""
        return self.n * (1.0 - self.alpha)


@dataclass(frozen=True)
class FlrwParams:
    """Spatial dimension n and equation-of-state constant w.

    Admissible range is 2/n - 1 < w <= 1 (decelerating expansion); the scale
    factor grows like t^(2/(n(1+w))).
    """

    n: int
    w: float

    def __post_init__(self):
        _require_dimension(self.n, "spatial dimension")
        lo = 2.0 / self.n - 1.0
        if not lo < self.w <= 1.0:
            raise ValueError(f"w must satisfy 2/n - 1 < w <= 1, got w={self.w} for n={self.n}")


@dataclass(frozen=True)
class Quadratic:
    """Coefficients of c2*p^2 + c1*p + c0."""

    c2: float
    c1: float
    c0: float

    def __call__(self, p: float) -> float:
        return self.c2 * p * p + self.c1 * p + self.c0


class RootNote(Enum):
    TWO_REAL_ONE_POSITIVE = "two_real_one_positive"
    DEGENERATE_LINEAR = "degenerate_linear"
    NO_POSITIVE_ROOT = "no_positive_root"


@dataclass(frozen=True)
class RootReport:
    """Positive root of a quadratic, or the reason there is none.

    ``root is None`` means the equation imposes no restriction for p > 0;
    downstream code reads that as "critical exponent = +infinity".
    """

    root: Optional[float]
    note: RootNote


def fujita(d: float) -> float:
    """Fujita-type exponent 1 + 2/d for a (possibly non-integer) dimension d.

    Real arguments are allowed on purpose: the model uses d = n(1 - alpha)
    and, in the cosmological parameterization, d = n - 2/(1 + w).
    """
    if d <= 0.0:
        raise ValueError(f"dimension argument must be positive, got {d}")
    return 1.0 + 2.0 / d


def strauss_quadratic(n: int) -> Quadratic:
    """Quadratic -(n-1)p^2 + (n+1)p + 2 whose positive root is the classical
    wave-equation critical exponent in dimension n."""
    _require_dimension(n)
    return Quadratic(-(n - 1.0), n + 1.0, 2.0)


def strauss_exponent(n: int) -> float:
    root = positive_root(strauss_quadratic(n)).root
    assert root is not None  # leading coefficient < 0, constant term > 0
    return root


def _real_roots(q: Quadratic) -> list[float]:
    """Real roots in increasing order, empty if none; the one root -c0/c1
    of a linear ``q`` (c2 = 0).

    Uses the cancellation-safe quadratic formula: the larger-magnitude root
    comes from the formula branch that adds quantities of equal sign, the
    other from c0 / (c2 * root).
    """
    if q.c2 == 0.0:
        if q.c1 == 0.0:
            return []
        return [-q.c0 / q.c1]
    disc = q.c1 * q.c1 - 4.0 * q.c2 * q.c0
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    if s == 0.0:
        return [-q.c1 / (2.0 * q.c2)]
    h = -0.5 * (q.c1 + math.copysign(s, q.c1))
    # h cannot vanish: |h| >= s/2 > 0
    return sorted([h / q.c2, q.c0 / h])


def positive_root(q: Quadratic) -> RootReport:
    """Smallest positive real root of ``q``, with a note on the root structure.

    For the exponent quadratics of this package (negative leading coefficient,
    positive constant term) there is exactly one positive root.  A quadratic
    with no sign change for p > 0 yields ``NO_POSITIVE_ROOT``, which callers
    interpret as an unrestricted (infinite) critical exponent.
    """
    if q.c2 == 0.0 and q.c1 == 0.0 and q.c0 == 0.0:
        raise ValueError("degenerate quadratic: all coefficients are zero")
    positives = [r for r in _real_roots(q) if r > 0.0]
    if not positives:
        return RootReport(None, RootNote.NO_POSITIVE_ROOT)
    note = RootNote.DEGENERATE_LINEAR if q.c2 == 0.0 else RootNote.TWO_REAL_ONE_POSITIVE
    return RootReport(min(positives), note)


def gamma_quadratic(params: ModelParams) -> Quadratic:
    """Quadratic in p whose positive root bounds the wavelike blow-up range.

    gamma(n, p, alpha, mu) =
        -p^2 (n - 1 + (mu - alpha)/(1 - alpha))
        + p (n + 1 + (mu + 3 alpha)/(1 - alpha)) + 2.

    The leading coefficient changes sign at mu = 1 - n(1 - alpha); past that
    point the quadratic stays positive for all p > 0 (no positive root).
    """
    s = 1.0 - params.alpha
    c2 = -(params.n - 1.0 + (params.mu - params.alpha) / s)
    c1 = params.n + 1.0 + (params.mu + 3.0 * params.alpha) / s
    return Quadratic(c2, c1, 2.0)


def gamma(params: ModelParams, p: float) -> float:
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    return gamma_quadratic(params)(p)


def p_c(params: ModelParams) -> RootReport:
    """Positive root of the gamma quadratic (upper end of the wavelike range)."""
    return positive_root(gamma_quadratic(params))


def gamma0_quadratic(n: int, w: float) -> Quadratic:
    """Cosmological specialization of the gamma quadratic:

    gamma0(n, p, w) = -(n-1)p^2 + (n + 1 + 4/(n(1+w)))p + 2 - 4/(n(1+w)),

    which equals (1 - 2/(n(1+w))) * gamma(n, p, 2/(n(1+w)), 2/(1+w)).
    """
    _require_dimension(n)
    if w <= -1.0:
        raise ValueError(f"w must exceed -1, got {w}")
    k = 4.0 / (n * (1.0 + w))
    return Quadratic(-(n - 1.0), n + 1.0 + k, 2.0 - k)


def gamma0(n: int, p: float, w: float) -> float:
    return gamma0_quadratic(n, w)(p)


def p_c_flrw(f: FlrwParams) -> RootReport:
    """Positive root of gamma0 for admissible cosmological parameters."""
    return positive_root(gamma0_quadratic(f.n, f.w))


def mu_star(n: int, alpha: float) -> float:
    """Damping strength at which the heatlike and wavelike critical curves meet.

    At mu = mu*, the positive root of gamma equals the Fujita-type exponent
    of dimension n(1 - alpha).  The value always exceeds 1.
    """
    _require_dimension(n)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {alpha}")
    s = 1.0 - alpha
    return (s * s * n * n + s * (1.0 + 2.0 * alpha) * n + 2.0) / (n * s + 2.0)


def w_star(n: int) -> float:
    """Equation-of-state value where the two critical curves cross in the
    (w, p) plane: larger real root of

        n(n^2+n+2) w^2 + 2n(n-1)^2 w + n^3 - 5n^2 + 8n - 8 = 0.

    The discriminant is 4n(n^3 + 6n^2 - 7n + 16) > 0, formed in that closed
    form because c1^2 - 4 c2 c0 cancels past n = 577.  With c2 > 0 the
    larger root is c0/h, as in ``_real_roots``.
    """
    _require_dimension(n)
    c1 = 2.0 * n * (n - 1.0) ** 2
    c0 = n**3 - 5.0 * n * n + 8.0 * n - 8.0
    h = -0.5 * (c1 + math.sqrt(4.0 * n * (n**3 + 6.0 * n * n - 7.0 * n + 16.0)))
    return c0 / h


def flrw_to_model(f: FlrwParams) -> ModelParams:
    """Map (n, w) to the normal form (n, alpha, mu).

    alpha = 2/(n(1+w)) and mu = 2/(1+w); for admissible w this lands in
    1/n <= alpha < 1 and mu >= 1, and n(1 - alpha) = n - 2/(1+w).
    """
    return ModelParams(f.n, 2.0 / (f.n * (1.0 + f.w)), 2.0 / (1.0 + f.w))
