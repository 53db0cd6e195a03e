"""Shared test settings and the generated states of the property tests.

The property tests run under one deterministic hypothesis profile: the
same examples on every run, no deadline (the host's speed varies), a
small example count that keeps them to about a second, and no example
database written to disk.  ``states`` is the hypothesis strategy of the
generated states; test modules import it with ``from conftest import
states`` once hypothesis has imported.  ``gaussian_coeffs`` draws
unnormalized Gaussian-integer coefficients, whose harmonics and L_z
moments ``exact_rho`` and ``exact_lz`` give as exact ``Fraction`` values,
an oracle with no rounding at all.  ``readme_commands`` lists the
``qring`` command lines of the README.  ``PACKET_GRID`` is the packets
whose output bytes the CLI and state-file tests pin.  The tests import
the checkout's ``src`` (pyproject's pytest ``pythonpath``), and so do the
Python subprocesses they start, through ``PYTHONPATH``.
"""

import itertools
import math
import os
import re
import shlex
from fractions import Fraction
from pathlib import Path

from qring.state import from_fourier

TWO_PI = 2.0 * math.pi
ROOT = Path(__file__).resolve().parents[1]
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

# (axis, n, m, kappa) of the pinned packets: kappa 19.9 and 20.0 lie on
# either side of the cutoff between the two ``bessel.von_mises`` branches
PACKET_GRID = list(itertools.product(
    ["X", "Y"], [1, 8], [-3, 3], [0.5, 19.9, 20.0, 39.9]))


def readme_commands() -> list:
    """(argv, target) of each ``qring ...`` line of the README's shell
    blocks, in order; target is the file a ``> file`` sends stdout to, or
    None."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL):
        for line in block.splitlines():
            if line.startswith("qring "):
                argv, target = shlex.split(line, comments=True)[1:], None
                if ">" in argv:
                    argv, target = argv[:argv.index(">")], argv[-1]
                commands.append((argv, target))
    return commands


def _gaussian(coeffs) -> dict:
    """mode -> (re, im) ints of coefficients with integral parts."""
    return {m: (int(c.real), int(c.imag)) for m, c in coeffs.items()}


def exact_rho(coeffs, k: int) -> tuple:
    """Oracle: (Re rho_k, Im rho_k) as Fractions, rho_k = sum_m c_{m+k}
    conj(c_m) / sum_m |c_m|^2, of the state whose coefficients (mode ->
    complex with integral parts, left unnormalized) are coeffs."""
    ints = _gaussian(coeffs)
    norm = sum(a * a + b * b for a, b in ints.values())
    re = im = 0
    for m, (a, b) in ints.items():
        if m + k in ints:
            p, q = ints[m + k]
            # (p + iq)(a - ib)
            re += p * a + q * b
            im += q * a - p * b
    return Fraction(re, norm), Fraction(im, norm)


def exact_lz(coeffs) -> tuple:
    """Oracle: (<L_z>, Var L_z) in units of hbar as Fractions, at theta =
    0, of the state whose coefficients are coeffs, as for ``exact_rho``."""
    weights = {m: a * a + b * b for m, (a, b) in _gaussian(coeffs).items()}
    norm = sum(weights.values())
    mean = Fraction(sum(m * w for m, w in weights.items()), norm)
    return mean, Fraction(sum(m * m * w for m, w in weights.items()),
                          norm) - mean * mean


try:
    from hypothesis import settings, strategies as st
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("qring", derandomize=True, deadline=None,
                              max_examples=40, database=None)
    settings.load_profile("qring")

    @st.composite
    def states(draw):
        """States on supports within +-512, either a random set of modes
        or an evenly spaced run of up to 1025, with amplitudes over 12
        decades, at any boundary phase theta."""
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
        theta = draw(st.floats(0.0, TWO_PI, exclude_max=True))
        amps = [10.0**d * complex(math.cos(a), math.sin(a))
                for d, a in zip(decades, angles)]
        return from_fourier(dict(zip(modes, amps)), theta)

    @st.composite
    def gaussian_coeffs(draw):
        """Unnormalized Gaussian-integer coefficients for ``exact_rho`` and
        ``exact_lz``: mode -> complex with integral parts, |re| and |im| at
        most 20 and not both zero, on modes within +-512 spanning at most
        40."""
        lo = draw(st.integers(-512, 512))
        hi = draw(st.integers(lo, min(lo + 40, 512)))
        modes = draw(st.lists(st.integers(lo, hi), min_size=1, unique=True))
        parts = st.tuples(st.integers(-20, 20), st.integers(-20, 20)).filter(
            lambda pair: pair != (0, 0))
        return {m: complex(*draw(parts)) for m in modes}
