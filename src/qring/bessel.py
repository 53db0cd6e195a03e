"""Modified Bessel functions of the first kind, exponentially scaled.

Self-contained evaluation of exp(-|x|) I0(x) and exp(-|x|) I1(x), their
ratio I1/I0, the scaled sequence I_k for all integer orders ``ik_scaled``
(the Fourier weights of a von Mises profile), and two derived spread
functions used by the circular uncertainty checks:

* ``f_alpha(x) = sqrt(x * (I0/I1 - I1/I0))`` -- the factor by which the
  total-uncertainty product of a von Mises profile exceeds its lower bound.
* ``h_alpha(x) = x * r * (1 - r/x - r**2)`` with ``r = I1/I0`` -- the gap of
  the conjugate-axis bound on the same profile.

Everything the package reads is a scaled value or a ratio of I0 and I1,
so there is one policy and no unscaled API: the ascending power series
for |x| <= 20 and the scaled asymptotic series above, both summed to a
relative term tolerance of 1e-16.  Above 20 the asymptotic terms reach
that tolerance by term 22, long before they turn near term 2|x| >= 40;
at a cutoff of 15 the smallest term, about e^(-2x), cost up to 140 ulp.
From 20 on, ``f_alpha`` and ``h_alpha`` come from sums of the asymptotic
terms that do not cancel (``_spread``), up to the float64 maximum.
``ik_scaled`` raises ``ValueError`` when |x| is so large (about 1e10)
that its recurrence would need more than 2**20 orders.
"""

import math

import numpy as np

__all__ = ["i0_scaled", "i1_scaled", "ik_scaled", "ratio", "f_alpha",
           "h_alpha"]

# |x| above which the scaled asymptotic series replaces the power series
_SERIES_CUTOFF = 20.0
# relative truncation tolerance of both series
_TERM_TOL = 1e-16
_MAX_TERMS = 500
# longest Miller recurrence ik_scaled runs; |x| near 1e10 reaches it at
# the default trunc_tol
_MAX_ORDER = 2**20


def _series(nu: int, x: float) -> float:
    """Ascending series sum_k (x/2)^(2k+nu) / (k! (k+nu)!), nu in {0, 1}.

    All terms are positive, so no cancellation occurs; terms are built
    iteratively to avoid overflowing intermediates.
    """
    q = 0.25 * x * x
    term = 1.0 if nu == 0 else 0.5 * abs(x)
    total = term
    for k in range(1, _MAX_TERMS):
        term *= q / (k * (k + nu))
        total += term
        if term < _TERM_TOL * total:
            break
    return total


# Coefficient products (mu - 1)(mu - 9)... with mu = 4 nu^2 enter the
# asymptotic expansion I_nu(x) ~ e^x / sqrt(2 pi x) * sum_k t_k(nu), where
# t_k = t_{k-1} * (-(mu - (2k - 1)^2) / (8 k x)) and t_0 = 1.
def _asymptotic_scaled(nu: int, x: float) -> float:
    """e^(-x) I_nu(x) for x > _SERIES_CUTOFF via the asymptotic expansion.

    The terms shrink while 8 k x > (2k - 1)^2 - mu, up to k near 2x > 40,
    and reach the tolerance by k = 22, so no divergence guard is needed
    (they reach it before they turn only above x near 17.4).
    """
    mu = 4 * nu * nu
    total = 1.0
    term = 1.0
    for k in range(1, _MAX_TERMS):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        total += term
        if abs(term) < _TERM_TOL * abs(total):
            break
    # two square roots: 2 pi x overflows for x near the float64 maximum
    return total / math.sqrt(2.0 * math.pi) / math.sqrt(x)


def _eval(nu: int, x: float) -> float:
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    ax = abs(x)
    if ax <= _SERIES_CUTOFF:
        return _series(nu, x) * math.exp(-ax)
    return _asymptotic_scaled(nu, ax)


def i0_scaled(x: float) -> float:
    """exp(-|x|) I0(x); even, 1 at x = 0, finite for every finite x."""
    return _eval(0, x)


def i1_scaled(x: float) -> float:
    """exp(-|x|) I1(x); odd, and finite for every finite x."""
    value = _eval(1, x)
    return math.copysign(value, x) if x != 0 else 0.0


def ik_scaled(x: float, trunc_tol: float = 1e-12) -> np.ndarray:
    """exp(-|x|) I_k(x) for k = 0 .. K, as a float array.

    Miller backward recurrence (A&S 9.12; Numerical Recipes 6.6), run on the
    ratios r_k = I_k/I_{k-1} = x / (2k + x r_{k+1}) so nothing overflows,
    and normalized by I_0 + 2 sum_{k>=1} I_k = exp(|x|).  Negative x uses
    I_k(-x) = (-1)^k I_k(x); I_{-k} = I_k.  K is the first order whose
    dropped tail sum_{|j|>K} I_j^2 weighs less than ``trunc_tol**2`` of the
    total sum_j I_j^2 = I_0(2x).
    """
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    if not 0 < trunc_tol < 1:
        raise ValueError("trunc_tol must lie in (0, 1)")
    ax = abs(x)
    if ax == 0.0:
        return np.ones(1)
    # Start where I_top/I_0 < exp(-log_floor).  The ratio bound
    # r_k <= x / (k - 1/2 + sqrt((k - 1/2)^2 + x^2)) (Amos 1974) gives
    # log(I_k/I_0) <= x - sqrt(x^2 + k^2).  The floor keeps the tail 25
    # e-folds below order K, so the start error reaching K is ~exp(-50),
    # and keeps the normalizing sum exact to float64 for any trunc_tol.
    log_floor = 25.0 + max(-math.log(trunc_tol), 28.0)
    top = math.sqrt(log_floor * (log_floor + 2.0 * ax))
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
    weight = seq * seq
    # tail[k] = 2 sum_{j>k} I_j^2 for k = 0 .. top-1, non-increasing
    tail = 2.0 * np.cumsum(weight[:0:-1])[::-1]
    heavy = tail >= trunc_tol**2 * (weight[0] + tail[0])
    seq = seq[: int(np.count_nonzero(heavy)) + 1]
    if x < 0:
        seq[1::2] *= -1.0
    return seq


def ratio(x: float) -> float:
    """I1(x)/I0(x), computed overflow-free for any finite x.

    Odd in x, strictly increasing, with |ratio(x)| < 1.  The scaled forms
    share the factor exp(-|x|), so it cancels analytically.
    """
    if x == 0.0:
        return 0.0
    return i1_scaled(x) / i0_scaled(x)


def _spread(x: float) -> tuple[float, float]:
    """(f_alpha(x), h_alpha(x)) for x != 0; below the cutoff from
    r = ratio(x).  From the cutoff on, with A_nu = sum_k t_k(nu) the sums
    of ``_asymptotic_scaled``, r = A1/A0 (the prefactor is shared), so
    x (1 - r) = x (A0 - A1)/A0; and h = x r r' (r' = 1 - r/x - r^2 is the
    Riccati equation of I1/I0) is r (A1 P0 - A0 P1)/A0^2, by
    dA_nu/dx = -P_nu/x with P_nu = sum_k k t_k(nu).  Every t_k(0) is
    positive and every t_k(1), k >= 1, negative, so x (A0 - A1), A1 P0 and
    -A0 P1 sum positive terms and never cancel.  The loop runs on
    u_k = x t_k, which stays normal up to the float64 maximum.
    """
    ax = abs(x)
    if not _SERIES_CUTOFF <= ax < math.inf:  # ratio rejects nan and inf
        r = ratio(x)
        return math.sqrt(x * (1.0 - r * r) / r), x * r * (1.0 - r / x - r * r)
    u0, u1 = 0.125, -0.375            # u_1 of orders 0 and 1
    s0, s1 = u0, u1                   # x (A_nu - 1)
    p0, p1 = u0, u1                   # x P_nu
    # k t_k shrinks up to k near 2x; stop there if the tolerance is not met
    for k in range(2, int(min(2.0 * ax, _MAX_TERMS))):
        u0 *= (2 * k - 1) ** 2 / (8.0 * k * ax)
        u1 *= ((2 * k - 1) ** 2 - 4) / (8.0 * k * ax)
        s0 += u0
        s1 += u1
        p0 += k * u0
        p1 += k * u1
        if k * (u0 - u1) < _TERM_TOL * (p0 - p1):
            break
    a0, a1 = 1.0 + s0 / ax, 1.0 + s1 / ax
    return (math.sqrt((s0 - s1) * (a0 + a1) / (a0 * a1)),
            a1 * (a1 * p0 - a0 * p1) / (a0 * a0 * a0) / ax)


def f_alpha(x: float) -> float:
    """Total-uncertainty factor sqrt(x (I0/I1 - I1/I0)).

    Even function decreasing from sqrt(2) at x = 0 toward 1 as |x| grows;
    the x = 0 value is the analytic limit of the 0/0 form.
    """
    return math.sqrt(2.0) if x == 0.0 else _spread(x)[0]


def h_alpha(x: float) -> float:
    """Conjugate-bound gap x * r * (1 - r/x - r^2) with r = I1(x)/I0(x).

    Even, zero only at x = 0 (by limit; h ~ x^2/4 near zero, ~ 1/(2x) for
    large x), and strictly positive elsewhere.
    """
    return 0.0 if x == 0.0 else _spread(x)[1]
