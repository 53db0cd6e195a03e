"""Modified Bessel functions of the first kind, exponentially scaled.

``von_mises(x)`` gives the four functions of a von Mises profile at one
argument: exp(-|x|) I0(x), exp(-|x|) I1(x), and the spread functions of
the circular uncertainty checks,

* ``f_alpha(x) = sqrt(x * (I0/I1 - I1/I0))`` -- the factor by which the
  total-uncertainty product of a von Mises profile exceeds its lower bound;
* ``h_alpha(x) = x * r * (1 - r/x - r**2)`` with ``r = I1/I0`` -- the gap of
  the conjugate-axis bound on the same profile.

``i0_scaled``, ``i1_scaled``, ``ratio`` (I1/I0), ``f_alpha`` and
``h_alpha`` are its projections.  There is no unscaled API and one rule:
for |x| < 20 one loop sums the ascending power series of both orders, and
from 20 on one loop sums the scaled asymptotic series of both orders and
their k-weighted sums, to a relative term tolerance of 1e-16.  There the
terms reach it by term 22, long before they turn near term 2|x| >= 40; at
a cutoff of 15 the smallest term, about e^(-2x), cost up to 140 ulp.

``ik_scaled(x, max_order)`` gives the scaled I_k, the Fourier coefficients
of a von Mises profile, under the packets' one truncation policy: exactly
the orders whose weight I_k^2 exceeds 1e-24 of the total, or None when the
orders up to ``max_order`` provably cannot hold them.
"""

import math

import numpy as np

__all__ = ["i0_scaled", "i1_scaled", "ik_scaled", "ratio", "f_alpha",
           "h_alpha", "von_mises"]

# |x| from which the scaled asymptotic series replaces the power series
_SERIES_CUTOFF = 20.0
# relative truncation tolerance of both series
_TERM_TOL = 1e-16
_MAX_TERMS = 500
# longest Miller recurrence ik_scaled runs; |x| near 1e10 reaches it
_MAX_ORDER = 2**20
# ik_scaled keeps the orders whose weight I_k^2 exceeds this share of the
# total, the one truncation of every von Mises packet
_KEEP = 1e-24


def _power(x: float) -> tuple[float, float]:
    """(I0(x), I1(x)) for 0 < x < _SERIES_CUTOFF, by the ascending series
    sum_k (x/2)^(2k+nu) / (k! (k+nu)!).

    All terms are positive, so nothing cancels; terms are built
    iteratively to avoid overflowing intermediates.  Each order stops at
    its first term below the tolerance of its own sum, and I1 no later
    than I0: I1's k-th term is I0's times (x/2)/(k+1), its sum I0's times
    a mean of (x/2)/(j+1) over j <= k.
    """
    q = 0.25 * x * x
    t0 = s0 = 1.0
    t1 = s1 = 0.5 * x
    for k in range(1, _MAX_TERMS):
        t0 *= q / (k * k)
        s0 += t0
        if t1 >= _TERM_TOL * s1:
            t1 *= q / (k * (k + 1))
            s1 += t1
        if t0 < _TERM_TOL * s0:
            break
    return s0, s1


# The asymptotic expansion I_nu(x) ~ e^x / sqrt(2 pi x) * sum_k t_k(nu),
# with t_0 = 1 and t_k = t_{k-1} (2k - 1 - 2 nu)(2k - 1 + 2 nu) / (8 k x).
def _asymptotic(x: float) -> tuple[float, float, float, float]:
    """(x (A0 - 1), x (A1 - 1), x P0, x P1) for x >= _SERIES_CUTOFF, where
    A_nu = sum_k t_k(nu) and P_nu = sum_k k t_k(nu).

    The loop runs on u_k = x t_k, which stays normal up to the float64
    maximum.  k t_k shrinks up to k near 2x > 40 and reaches the tolerance
    by k = 22; the loop stops at 2x if the tolerance is not met.
    """
    u0, u1 = 0.125, -0.375            # u_1 of orders 0 and 1
    s0, s1, p0, p1 = u0, u1, u0, u1
    for k in range(2, int(min(2.0 * x, _MAX_TERMS))):
        u0 *= (2 * k - 1) ** 2 / (8.0 * k * x)
        u1 *= ((2 * k - 1) ** 2 - 4) / (8.0 * k * x)
        s0 += u0
        s1 += u1
        p0 += k * u0
        p1 += k * u1
        if k * (u0 - u1) < _TERM_TOL * (p0 - p1):
            break
    return s0, s1, p0, p1


def von_mises(x: float) -> tuple[float, float, float, float]:
    """(i0_scaled, i1_scaled, f_alpha, h_alpha) of x, from one series.

    Below the cutoff, f and h come from r = I1/I0.  From it on, with A_nu
    and P_nu the sums of ``_asymptotic``, r = A1/A0, so x (1 - r) =
    x (A0 - A1)/A0; and h = x r r' (r' = 1 - r/x - r^2 by the Riccati
    equation of I1/I0) is r (A1 P0 - A0 P1)/A0^2, by dA_nu/dx = -P_nu/x.
    Every t_k(0) is positive and every t_k(1), k >= 1, negative, so
    x (A0 - A1), A1 P0 and -A0 P1 sum positive terms and never cancel, up
    to the float64 maximum.  x = 0 gives the analytic limits
    (1, 0, sqrt(2), 0); a non-finite x raises ``ValueError``.
    """
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    ax = abs(x)
    # the limits hold at 0 and at the least subnormal, whose I1 ~ x/2 is 0
    if ax <= math.ulp(0.0):
        return 1.0, 0.0, math.sqrt(2.0), 0.0
    if ax < _SERIES_CUTOFF:
        s0, s1 = _power(ax)
        scale = math.exp(-ax)
        i0, i1 = s0 * scale, math.copysign(s1 * scale, x)
        r = i1 / i0
        return (i0, i1, math.sqrt(x * (1.0 - r * r) / r),
                x * r * (1.0 - r / x - r * r))
    s0, s1, p0, p1 = _asymptotic(ax)
    a0, a1 = 1.0 + s0 / ax, 1.0 + s1 / ax
    # two square roots: 2 pi x overflows for x near the float64 maximum
    root, sx = math.sqrt(2.0 * math.pi), math.sqrt(ax)
    return (a0 / root / sx, math.copysign(a1 / root / sx, x),
            math.sqrt((s0 - s1) * (a0 + a1) / (a0 * a1)),
            a1 * (a1 * p0 - a0 * p1) / (a0 * a0 * a0) / ax)


def i0_scaled(x: float) -> float:
    """exp(-|x|) I0(x); even, 1 at x = 0, finite for every finite x."""
    return von_mises(x)[0]


def i1_scaled(x: float) -> float:
    """exp(-|x|) I1(x); odd, and finite for every finite x."""
    return von_mises(x)[1]


def _needs_order(ax: float, k: int) -> bool:
    """True when the orders below k provably cannot hold a profile of
    argument ax > 0 under the ``_KEEP`` rule, before any order is computed.

    I_j/I_{j-1} >= ax / (j + sqrt(j^2 + ax^2)) gives (I_k/I_0)^2 >=
    exp(-2 k^2/ax), and the total weight is I_0(2 ax), so order k is kept
    when that bound exceeds _KEEP I_0(2 ax)/I_0(ax)^2.  Past about ax = 1e47
    every single weight is below _KEEP of the total; there the 2k - 1
    orders below k, none heavier than I_0^2, hold less than half of it.
    """
    decay = 2.0 * k * k / ax
    log_keep = -math.log(_KEEP)
    # 1 <= I_0(2x)/I_0(x)^2 <= exp(x)/I_0(x) <= sqrt(1 + 2 pi x): the
    # common case settles both tests without a Bessel call
    if decay >= log_keep and 1.0 + 2.0 * math.pi * ax <= (4 * k - 2) ** 2:
        return False
    # I_0(2x)/I_0(x)^2 grows with x: where 2x would overflow, its value at
    # 2**1022, near e^354, is a lower bound that settles both tests alike
    y = min(ax, 2.0**1022)
    log_total = math.log(i0_scaled(2.0 * y)) - 2.0 * math.log(i0_scaled(y))
    return decay < log_keep - log_total or log_total > math.log(4 * k - 2)


def ik_scaled(x: float, max_order: int) -> np.ndarray | None:
    """exp(-|x|) I_k(x) for k = 0 .. K, as a float array: exactly the
    orders whose weight I_k^2 exceeds ``_KEEP`` of the total sum_j I_j^2 =
    I_0(2x).  None, before any order is computed, when the orders up to
    ``max_order`` provably cannot hold it (``_needs_order``); the proof is
    one-sided, so near its edge K may pass ``max_order``.  Raises
    ``ValueError`` when the recurrence would start above 2**20 orders.

    Miller backward recurrence (A&S 9.12; Numerical Recipes 6.6), run on the
    ratios r_k = I_k/I_{k-1} = x / (2k + x r_{k+1}) so nothing overflows,
    and normalized by I_0 + 2 sum_{k>=1} I_k = exp(|x|).  Negative x uses
    I_k(-x) = (-1)^k I_k(x); I_{-k} = I_k.
    """
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    ax = abs(x)
    if ax == 0.0:
        return np.ones(1)
    if _needs_order(ax, max_order + 1):
        return None
    # Start where I_top/I_0 < exp(-53).  The ratio bound
    # r_k <= x / (k - 1/2 + sqrt((k - 1/2)^2 + x^2)) (Amos 1974) gives
    # log(I_k/I_0) <= x - sqrt(x^2 + k^2).  A kept order has
    # I_K/I_0 > 1e-12 = exp(-27.6), so the start lies 25 e-folds below it:
    # the start error reaching K is ~exp(-50), and the normalizing sum is
    # exact to float64.  Where the proof passes, the start stays within
    # about 2.3 (max_order + 1) + 53 up to max_order 1e7.
    top = math.sqrt(53.0 * (53.0 + 2.0 * ax))
    if top > _MAX_ORDER:
        raise ValueError(
            f"ik_scaled argument x = {x!r} is too large: the recurrence "
            f"would start above order {_MAX_ORDER}")
    top = math.ceil(top)
    ratios = [0.0] * top
    r = 0.0
    for k in range(top, 0, -1):
        r = ax / (2 * k + ax * r)
        ratios[k - 1] = r
    seq = np.cumprod([1.0] + ratios)
    seq *= 1.0 / (2.0 * seq.sum() - 1.0)
    # I_k decreases in k, so the kept orders are a prefix
    weight = seq * seq
    total = 2.0 * weight.sum() - weight[0]
    seq = seq[: np.count_nonzero(weight > _KEEP * total)]
    if x < 0:
        seq[1::2] *= -1.0
    return seq


def ratio(x: float) -> float:
    """I1(x)/I0(x), computed overflow-free for any finite x.

    Odd in x, strictly increasing, with |ratio(x)| < 1.  The scaled forms
    share the factor exp(-|x|), so it cancels analytically.
    """
    i0, i1 = von_mises(x)[:2]
    return i1 / i0


def f_alpha(x: float) -> float:
    """Total-uncertainty factor sqrt(x (I0/I1 - I1/I0)).

    Even function decreasing from sqrt(2) at x = 0 toward 1 as |x| grows;
    the x = 0 value is the analytic limit of the 0/0 form.
    """
    return von_mises(x)[2]


def h_alpha(x: float) -> float:
    """Conjugate-bound gap x * r * (1 - r/x - r^2) with r = I1(x)/I0(x).

    Even, zero only at x = 0 (by limit; h ~ x^2/4 near zero, ~ 1/(2x) for
    large x), and strictly positive elsewhere.
    """
    return von_mises(x)[3]
