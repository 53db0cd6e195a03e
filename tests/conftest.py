"""Shared test settings and the generated states of the property tests.

The property tests run under one deterministic hypothesis profile: the
same examples on every run, no deadline (the host's speed varies), a
small example count that keeps them to about a second, and no example
database written to disk.  ``states`` is the hypothesis strategy of the
generated states; test modules import it with ``from conftest import
states`` once hypothesis has imported.
"""

import math

from qring.state import from_fourier

TWO_PI = 2.0 * math.pi

try:
    from hypothesis import settings, strategies as st
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("qring", derandomize=True, deadline=None,
                              max_examples=40, database=None)
    settings.load_profile("qring")

    @st.composite
    def states(draw, periodic=False):
        """States on supports within +-512, either a random set of modes
        or an evenly spaced run of up to 1025, with amplitudes over 12
        decades."""
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
