"""Modified Bessel functions of the first kind.

Self-contained evaluation of I0, I1, their ratio I1/I0, the scaled
sequence I_k for all integer orders ``ik_scaled`` (the Fourier weights of a
von Mises profile), and two derived spread functions used by the circular
uncertainty checks:

* ``f_alpha(x) = sqrt(x * (I0/I1 - I1/I0))`` -- the factor by which the
  total-uncertainty product of a von Mises profile exceeds its lower bound.
* ``h_alpha(x) = x * r * (1 - r/x - r**2)`` with ``r = I1/I0`` -- the gap of
  the conjugate-axis bound on the same profile.

Evaluation policy, fixed: the ascending power series for |x| <= 15 and the
exponentially scaled asymptotic series above, both summed to a relative
term tolerance of 1e-16.  Unscaled values overflow a float64 near x = 713;
``i0``/``i1`` raise ``OverflowError`` beyond ``OVERFLOW_THRESHOLD`` while
the scaled variants stay finite for any float.  ``ik_scaled`` raises
``ValueError`` when |x| is so large (about 1e10) that its recurrence would
need more than 2**20 orders.
"""

import math

import numpy as np

__all__ = [
    "OVERFLOW_THRESHOLD",
    "i0",
    "i1",
    "i0_scaled",
    "i1_scaled",
    "ik_scaled",
    "ratio",
    "f_alpha",
    "h_alpha",
]

# exp(x) overflows float64 at x ~ 709.78; keep a small safety margin
OVERFLOW_THRESHOLD = 700.0

# |x| above which the scaled asymptotic series replaces the power series
_SERIES_CUTOFF = 15.0
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
# asymptotic expansion I_nu(x) ~ e^x / sqrt(2 pi x) * sum_k c_k(nu) / x^k.
def _asymptotic_scaled(nu: int, x: float) -> float:
    """e^(-x) I_nu(x) for large positive x via the asymptotic expansion."""
    mu = 4 * nu * nu
    total = 1.0
    term = 1.0
    for k in range(1, _MAX_TERMS):
        factor = -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(factor) >= 1.0:
            break  # divergent tail reached; stop at the smallest term
        term *= factor
        total += term
        if abs(term) < _TERM_TOL * abs(total):
            break
    # two square roots: 2 pi x overflows for x near the float64 maximum
    return total / math.sqrt(2.0 * math.pi) / math.sqrt(x)


def _eval(nu: int, x: float, scaled: bool) -> float:
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    ax = abs(x)
    if ax <= _SERIES_CUTOFF:
        value = _series(nu, x)
        return value * math.exp(-ax) if scaled else value
    value = _asymptotic_scaled(nu, ax)
    if not scaled:
        if ax > OVERFLOW_THRESHOLD:
            raise OverflowError(
                f"I{nu}({x!r}) overflows float64; use the scaled variant "
                f"for |x| > {OVERFLOW_THRESHOLD}"
            )
        value *= math.exp(ax)
    return value


def i0(x: float) -> float:
    """Modified Bessel function I0(x).

    Even in x, with I0(0) = 1 and I0(x) >= 1 everywhere.  Raises
    ``OverflowError`` for |x| > OVERFLOW_THRESHOLD; use ``i0_scaled`` there.
    """
    return _eval(0, x, scaled=False)


def i1(x: float) -> float:
    """Modified Bessel function I1(x) = dI0/dx.  Odd in x."""
    value = _eval(1, x, scaled=False)
    return math.copysign(value, x) if x != 0 else 0.0


def i0_scaled(x: float) -> float:
    """exp(-|x|) I0(x); finite for every finite x."""
    return _eval(0, x, scaled=True)


def i1_scaled(x: float) -> float:
    """exp(-|x|) I1(x); finite for every finite x."""
    value = _eval(1, x, scaled=True)
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

    Odd in x, strictly increasing, with |ratio(x)| < 1.  Large arguments use
    the scaled forms so the exponential factor cancels analytically.
    """
    if x == 0.0:
        return 0.0
    return i1_scaled(x) / i0_scaled(x)


def f_alpha(x: float) -> float:
    """Total-uncertainty factor sqrt(x (I0/I1 - I1/I0)).

    Even function decreasing from sqrt(2) at x = 0 toward 1 as |x| grows;
    the x = 0 value is the analytic limit of the 0/0 form.
    """
    if x == 0.0:
        return math.sqrt(2.0)
    r = ratio(x)
    return math.sqrt(x * (1.0 - r * r) / r)


def h_alpha(x: float) -> float:
    """Conjugate-bound gap x * r * (1 - r/x - r^2) with r = I1(x)/I0(x).

    Even, zero only at x = 0 (by limit; h ~ x^2/4 near zero, ~ 1/(2x) for
    large x), and strictly positive elsewhere.
    """
    if x == 0.0:
        return 0.0
    r = ratio(x)
    return x * r * (1.0 - r / x - r * r)
