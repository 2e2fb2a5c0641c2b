"""Comparison-lemma machinery: blow-up thresholds and iteration sequences.

Subcritical form: if F'' + mu F'/t >= A1 (t+R)^(-q) |F|^p together with a
power lower bound F(t) >= A0 t^(-a) (t-T1)^b, the lifespan obeys
T < C A0^(-(p-1)/M) with M = (p-1)(b-a) - q + 2 > 0.

Critical form (q = 2, logarithmic lower bound F >= A0 ln(t/T1)^b): the
lifespan obeys T < exp(C A0^(-(p-1)/(b(p-1)+2))) for mu <= 1 and
T < exp(C A0^(-(p-1)/(b(p-1)+1))) for mu > 1.  The proof iterates

    mu <= 1:  b_{j+1} = p b_j + 2,   C_{j+1} = A1 C_R C_j^p / (p b_j + 2)^2
    mu > 1:   b_{j+1} = p b_j + 1,   C_{j+1} = A1 C_R (2/3)^mu C_j^p
                                               / (2 (p b_j + 1) 2^(j+1))

from b_0 = b, C_0 = A0, with the auxiliary sequence a_j = 2 - (1/2)^j
entering only the mu > 1 case.  C_j grows doubly exponentially, so all C_j
arithmetic here lives in log space.

The multiplicative constants C of both lemmas are not derivable at this
level, so thresholds are reported on an unnormalized scale (C = 1): only the
A0-exponent carries information.  The inputs are therefore exactly those
that reach a result: the subcritical threshold reads p, a, b, q and A0; the
critical iteration reads p, b, mu, A0, A1 and the support constant C_R of
the nonlinearity lower bound (imported from elsewhere and passed in), and
the envelope scan also reads T1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

__all__ = [
    "KatoSubcriticalParams",
    "KatoCriticalParams",
    "KatoState",
    "KatoSequences",
    "EnvelopeReport",
    "Threshold",
    "subcritical_threshold",
    "heatlike_wiring",
    "closed_form_b",
    "a_value",
    "iterate_sequences",
    "envelope_constants",
    "critical_threshold",
    "envelope_divergence",
    "detect_envelope_onset",
]

# Most states one iteration table may hold; a larger j_max is refused before
# any state is built.
MAX_STATES = 2**16


@dataclass(frozen=True)
class KatoSubcriticalParams:
    """Inputs of the subcritical comparison lemma.

    The instance is only constructible when the lemma applies, i.e. when
    M = (p-1)(b-a) - q + 2 is positive.
    """

    p: float
    a: float
    b: float
    q: float
    A0: float

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (self.a >= 0.0 and self.b > 0.0 and self.q > 0.0):
            raise ValueError("require a >= 0, b > 0, q > 0")
        if not self.A0 > 0.0:
            raise ValueError(f"A0 must be positive, got {self.A0}")
        if not self.M > 0.0:
            raise ValueError(f"lemma inapplicable: M = (p-1)(b-a)-q+2 = {self.M} <= 0")

    @property
    def M(self) -> float:
        return (self.p - 1.0) * (self.b - self.a) - self.q + 2.0


@dataclass(frozen=True)
class KatoCriticalParams:
    """Inputs of the critical comparison lemma (logarithmic lower bound)."""

    p: float
    b: float
    mu: float
    A0: float
    A1: float = 1.0
    T1: float = 2.0

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not (self.b > 0.0 and self.mu >= 0.0):
            raise ValueError("require b > 0, mu >= 0")
        if not (self.A0 > 0.0 and self.A1 > 0.0):
            raise ValueError("A0, A1 must be positive")
        if not self.T1 > 1.0:
            raise ValueError(f"time anchor must satisfy T1 > 1, got T1={self.T1}")

    @property
    def shift(self) -> float:
        """The shift s of b_{j+1} = p b_j + s: 2 for mu <= 1, 1 for mu > 1.
        The one place the mu case is decided."""
        return 2.0 if self.mu <= 1.0 else 1.0

    @property
    def mu_case(self) -> str:
        """"le_one" or "gt_one"; fixes which recursion branch applies."""
        return "le_one" if self.shift == 2.0 else "gt_one"


@dataclass(frozen=True)
class KatoState:
    """One iteration step: exponent b_j, log C_j, and (mu > 1 only) a_j."""

    j: int
    b_j: float
    log_C_j: float
    a_j: Optional[float]


@dataclass(frozen=True)
class KatoSequences:
    states: list[KatoState]
    truncated: bool


@dataclass(frozen=True)
class EnvelopeReport:
    """First provably divergent time of the critical iteration envelope.

    t_star is the earliest grid time at which the envelope bracket
    E + (b + 2/(p-1)) ln ln(t/T1)   (mu <= 1; 1/(p-1) and 2*T1 for mu > 1)
    clears the margin delta; None if that never happens below the horizon.
    delta_margin is the bracket value attained at t_star.
    """

    t_star: Optional[float]
    E: float
    B: float
    delta_margin: Optional[float]
    delta: float
    horizon: float


class Threshold(NamedTuple):
    """A lemma's A0-exponent and its unnormalized lifespan threshold."""

    a0_exponent: float
    threshold: float


def subcritical_threshold(kp: KatoSubcriticalParams) -> Threshold:
    """A0-exponent -(p-1)/M and unnormalized threshold A0^exponent.

    The lemma's constant C is unknown here; the returned scale sets C = 1,
    so only the dependence on A0 is meaningful.
    """
    expo = -(kp.p - 1.0) / kp.M
    return Threshold(expo, kp.A0**expo)


def heatlike_wiring(
    n: int, alpha: float, mu: float, p: float, eps: float
) -> KatoSubcriticalParams:
    """Subcritical lemma inputs produced by the blow-up argument for the wave
    model: q = n(1-alpha)(p-1), a = mu + q, b = mu + 2, A0 = eps^p.

    With this wiring M collapses to p(2 - n(1-alpha)(p-1)), so the threshold
    scales like eps^(-(p-1)/(2-n(1-alpha)(p-1))).
    """
    q = n * (1.0 - alpha) * (p - 1.0)
    return KatoSubcriticalParams(p=p, a=mu + q, b=mu + 2.0, q=q, A0=eps**p)


def closed_form_b(kc: KatoCriticalParams, j: int) -> float:
    """b_j in closed form: p^j (b + s/(p-1)) - s/(p-1) with s = ``kc.shift``."""
    if j < 0:
        raise ValueError(f"iteration index must be nonnegative, got {j}")
    shift = kc.shift / (kc.p - 1.0)
    return kc.p**j * (kc.b + shift) - shift


def a_value(j: int) -> float:
    """a_j = 1 + 1/2 + ... + (1/2)^j = 2 - (1/2)^j."""
    if j < 0:
        raise ValueError(f"iteration index must be nonnegative, got {j}")
    return 2.0 - 0.5**j


def iterate_sequences(kc: KatoCriticalParams, j_max: int, C_R: float) -> KatoSequences:
    """Exact recursion for (b_j, log C_j, a_j), j = 0..j_max.

    A j_max of ``MAX_STATES`` or more is refused up front.  Iteration stops
    early (truncated=True) if b_j or log C_j leaves the representable range.
    """
    if not 0 <= j_max < MAX_STATES:
        raise ValueError(f"j_max must satisfy 0 <= j_max < {MAX_STATES}, got {j_max}")
    if C_R <= 0.0:
        raise ValueError(f"support constant C_R must be positive, got {C_R}")
    s = kc.shift
    low_mu = s == 2.0
    log_a1cr = math.log(kc.A1 * C_R)
    b_j = kc.b
    log_c = math.log(kc.A0)
    states = [KatoState(0, b_j, log_c, None if low_mu else a_value(0))]
    truncated = False
    for j in range(j_max):
        denom = kc.p * b_j + s
        if low_mu:
            log_c = log_a1cr + kc.p * log_c - 2.0 * math.log(denom)
        else:
            log_c = (
                log_a1cr
                + kc.mu * math.log(2.0 / 3.0)
                + kc.p * log_c
                - math.log(2.0 * denom)
                - (j + 1) * math.log(2.0)
            )
        b_j = denom
        if not (math.isfinite(b_j) and math.isfinite(log_c)):
            truncated = True
            break
        states.append(KatoState(j + 1, b_j, log_c, None if low_mu else a_value(j + 1)))
    return KatoSequences(states, truncated)


def envelope_constants(kc: KatoCriticalParams, C_R: float) -> tuple[float, float]:
    """Constants (B, E) of the envelope C_j >= exp(E p^j).

    mu <= 1:  B = (b + 2/(p-1))^(-2) A1 C_R,
              E = min(0, ln B)/(p-1) - 2 S ln p + ln A0
    mu > 1:   B = (b + 1/(p-1))^(-1) A1 C_R (2/3)^mu / 2,
              E = min(0, ln B)/(p-1) - S ln(2p) + ln A0

    with S = sum_{k>=0} k/p^k = p/(p-1)^2.
    """
    if C_R <= 0.0:
        raise ValueError(f"support constant C_R must be positive, got {C_R}")
    p, s = kc.p, kc.shift
    s_sum = p / (p - 1.0) ** 2
    B = (kc.b + s / (p - 1.0)) ** -s * kc.A1 * C_R
    if s == 2.0:
        growth = 2.0 * s_sum * math.log(p)
    else:
        B = B * (2.0 / 3.0) ** kc.mu / 2.0
        growth = s_sum * math.log(2.0 * p)
    E = min(0.0, math.log(B)) / (p - 1.0) - growth + math.log(kc.A0)
    return B, E


def critical_threshold(kc: KatoCriticalParams) -> Threshold:
    """A0-exponent and unnormalized threshold exp(A0^exponent).

    The exponent is -(p-1)/(b(p-1)+2) for mu <= 1 and -(p-1)/(b(p-1)+1)
    for mu > 1; as with the subcritical threshold, C is set to 1.
    """
    expo = -(kc.p - 1.0) / (kc.b * (kc.p - 1.0) + kc.shift)
    return Threshold(expo, math.exp(kc.A0**expo))


def envelope_divergence(
    kc: KatoCriticalParams, C_R: float, delta: float, horizon: float
) -> EnvelopeReport:
    """Scan a logarithmic t-grid for the first time the envelope bracket
    exceeds ``delta`` (from there the envelope diverges as j grows).

    The grid starts just above T1 (mu <= 1) or 2*T1 (mu > 1), with
    64 samples per decade, and stops at ``horizon``.
    """
    if delta <= 0.0:
        raise ValueError(f"divergence margin must be positive, got {delta}")
    B, E = envelope_constants(kc, C_R)
    t_base = kc.T1 if kc.shift == 2.0 else 2.0 * kc.T1
    slope = kc.b + kc.shift / (kc.p - 1.0)
    ratio = 10.0 ** (1.0 / 64)
    t = t_base * ratio
    while t <= horizon:
        bracket = E + slope * math.log(math.log(t / t_base))
        if bracket >= delta:
            return EnvelopeReport(t, E, B, bracket, delta, horizon)
        t *= ratio
    return EnvelopeReport(None, E, B, None, delta, horizon)


def detect_envelope_onset(seqs: KatoSequences, p: float, E: float) -> Optional[int]:
    """Smallest j0 such that log C_j >= (E - 1e-9) p^j for every j >= j0,
    judged over the available states; None if the tail never settles."""
    states = seqs.states
    onset = 0
    for st in states:
        if st.log_C_j < (E - 1e-9) * p**st.j:
            onset = st.j + 1
    if onset >= len(states):
        return None
    return onset
