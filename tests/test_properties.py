"""Property tests over generated states: the running-product phase tables
against the direct exp of every (point, frequency) pair."""

import math

import numpy as np
import pytest

from qring.observables import angle_moments_beta
from qring.state import from_fourier

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


@st.composite
def states(draw, periodic=False):
    """States on supports within +-512, either a random set of modes or an
    evenly spaced run of up to 1025, with amplitudes over 12 decades."""
    sparse = st.lists(st.integers(-512, 512), min_size=1, max_size=24,
                      unique=True)
    lo = draw(st.integers(-512, 512))
    stride = draw(st.integers(1, 64))
    run = st.integers(1, (512 - lo) // stride + 1).map(
        lambda count: list(range(lo, lo + stride * count, stride)))
    modes = draw(st.one_of(sparse, run))
    size = len(modes)
    decades = draw(st.lists(st.floats(-6.0, 6.0), min_size=size,
                            max_size=size))
    angles = draw(st.lists(st.floats(0.0, TWO_PI), min_size=size,
                           max_size=size))
    theta = 0.0 if periodic else draw(
        st.floats(0.0, TWO_PI, exclude_max=True))
    amps = [10.0**d * complex(math.cos(a), math.sin(a))
            for d, a in zip(decades, angles)]
    return from_fourier(dict(zip(modes, amps)), theta)


points = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8).map(np.array)


def direct_sums(x, freqs, weights):
    """Oracle: sum_j w_j exp(1j f_j x) with one exp per (point, frequency)."""
    return np.exp(1j * np.outer(x, freqs)) @ weights


def tolerance(x, freqs, weights):
    """8 eps (max |f x| + width) sum |w|: the direct exp of the rounded
    argument f x is off by about |f x| ulp, a product of j rounded steps by
    about j ulp (near x = 0, where |f x| vanishes, that term remains)."""
    reach = np.max(np.abs(x)) * np.max(np.abs(freqs), initial=0.0)
    return 8.0 * EPS * (reach + freqs.size) * np.sum(np.abs(weights))


@hypothesis.given(states(), points)
def test_evaluate_matches_direct_exp(state, x):
    oracle = direct_sums(x, state.mu, state.amps) / math.sqrt(TWO_PI)
    tol = tolerance(x, state.mu, state.amps) / math.sqrt(TWO_PI)
    assert np.max(np.abs(state.evaluate(x) - oracle)) <= tol


@hypothesis.given(states(periodic=True), points)
def test_window_moments_match_direct_exp(state, betas):
    rho = state.harmonics[1:]
    k = np.arange(1, rho.size + 1, dtype=float)
    u1 = 2.0 * direct_sums(betas, k, rho / k).imag
    u2 = math.pi**2 / 3.0 + 4.0 * direct_sums(betas, k, rho / (k * k)).real
    d1 = 2.0 * tolerance(betas, k, rho / k)
    d2 = 4.0 * tolerance(betas, k, rho / (k * k))
    c = betas + math.pi
    m1, m2, sigma = angle_moments_beta(state, betas)
    # each moment adds a few roundings of its own terms to the sums' error
    assert np.all(np.abs(m1 - (c + u1)) <= d1 + 4.0 * EPS * np.abs(c + u1))
    terms2 = c * c + 2.0 * np.abs(c * u1) + np.abs(u2)
    assert np.all(np.abs(m2 - (c * c + 2.0 * c * u1 + u2))
                  <= 2.0 * np.abs(c) * d1 + d2 + 8.0 * EPS * terms2)
    var = np.maximum(u2 - u1 * u1, 0.0)
    assert np.all(np.abs(sigma * sigma - var)
                  <= d2 + 2.0 * np.abs(u1) * d1 + d1 * d1
                  + 8.0 * EPS * (np.abs(u2) + u1 * u1))
