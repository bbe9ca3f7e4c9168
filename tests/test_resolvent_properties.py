"""The invariant behind the depth pass's unchecked levels off the axis,
and the band next to the axis.

With real a_n and b_n^2 > 0, each level adds to Im c_n = Im(A_n/A_{n-1})
and to Im D_n = Im(B_n/B_{n-1}), the ratios of the convergents' numerators
and denominators that modified Lentz carries, a term of the sign of Im z,
and rounding cannot shrink a sum of two terms of one sign.  So both keep
the sign of Im z and never fall below |Im z|: off the axis no A_n or B_n
vanishes against its predecessor, which is why `resolvent.green_function`
checks them only for real z.  In the band |Im z| <= 1e-14 (1 + |z|), real
z included, it must stop, or raise, where the 30-digit Casoratian
reference does, and off the axis its value is finite.
The draws are derandomized: the same cases run every time.
"""

import math

import numpy as np
import pytest

from test_resolvent import _reference_stop
from tridirac import model, pollaczek, resolvent
from tridirac.model import PhysicalParams

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

LEVELS = 2_000

WAVE = st.builds(
    lambda charge, kappa, compton: model.derive(PhysicalParams(z=charge, kappa=kappa, compton=compton)),
    st.floats(-3.0, 3.0), st.sampled_from([-5, -2, -1, 1, 2, 5]), st.floats(-4.0, -0.5).map(lambda u: 10.0 ** u),
).filter(lambda d: d.gamma_eff > -1.0).map(model.recursion_coefficients)
POLLACZEK = st.builds(
    lambda lam, b: pollaczek.jacobi_coefficients(pollaczek.PollaczekParams(lam=lam, b=b)),
    st.floats(0.05, 5.0), st.floats(-2.0, 2.0),
)


def _off_band(re, exponent, sign):
    """re + i sign 10^exponent, moved out to the first double above the
    band 1e-14 (1 + |z|) when it falls inside."""
    z = complex(re, sign * 10.0 ** exponent)
    if abs(z.imag) <= 1e-14 * (1.0 + abs(z)):
        z = complex(re, sign * float(np.nextafter(1e-14 * (1.0 + abs(z)), np.inf)))
    return z


POINTS = st.builds(_off_band, st.floats(-10.0, 60.0), st.floats(-15.0, 1.0), st.sampled_from([-1.0, 1.0]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(coeffs=st.one_of(WAVE, POLLACZEK), z=POINTS)
def test_imaginary_parts_keep_sign_and_size(coeffs, z):
    assume(abs(z.imag) > 1e-14 * (1.0 + abs(z)))
    a, b = coeffs.block(0, LEVELS + 1)
    sign = math.copysign(1.0, z.imag)
    c = z - a[0].item()
    d = 0.0 + 0.0j
    # the Lentz recursions of c_n and D_n, on Python scalars
    for n, (den, num) in enumerate(zip((z - a[1:]).tolist(), (-(b[:-1] * b[:-1])).tolist()), 1):
        denominator = den + num * d
        c = den + num / c
        d = 1.0 / denominator
        for part in (c.imag, denominator.imag):
            assert math.copysign(1.0, part) == sign and abs(part) >= abs(z.imag), (n, z, part)


def _in_band(re, fraction, sign):
    """re + i sign fraction 1e-14 (1 + |re|): inside the band, since
    |z| >= |re|; fraction 0 gives real z."""
    return complex(re, sign * fraction * 1e-14 * (1.0 + abs(re)))


BAND = st.builds(_in_band, st.floats(-10.0, 60.0), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                 st.sampled_from([-1.0, 1.0]))


def _outcome(evaluate):
    """What `evaluate()` returns, or the type and message it raises."""
    try:
        return evaluate()
    except Exception as exc:  # noqa: BLE001 - any raise must match
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(coeffs=st.one_of(WAVE, POLLACZEK), z=BAND)
def test_band_like_per_level(coeffs, z):
    assume(abs(z.imag) <= 1e-14 * (1.0 + abs(z)))

    def blocked():
        est = resolvent.green_function(coeffs, z, max_depth=300)
        truncated = resolvent.green_function_truncated(coeffs, z, est.depth + 1)
        assert abs(est.value - truncated) <= 1e-12 * abs(truncated)
        assert z.imag == 0.0 or math.isfinite(abs(est.value))
        return est.depth

    assert _outcome(blocked) == _outcome(lambda: _reference_stop(coeffs, z, 1e-12, 300)[0])
