"""The shared three-term recurrence kernel.

Every solver that runs on `recurrence` is compared with `==` against
the hand-written loop it replaced, kept below as a reference: values,
types and residuals must agree bit for bit (mpmath values exactly), in
doubles, complex doubles and mpmath.  The exceptions are the Pollaczek
cases the library no longer runs (another precision than the automatic
one, a shift a != 0), checked to 1e-12 instead, and the bound-state
vector, which the library computes in doubles while its reference loop
keeps 30 digits, checked to 1e-13 of max|f|.  The invariants of the
kernel over random parameters are in test_recurrence_properties.py.
"""

import math

import mpmath as mp
import numpy as np
import pytest

import reference_forms as ref
from tridirac import model, pollaczek, recurrence, resolvent, spectrum, wavefunction
from tridirac.model import PhysicalParams, energy_point, map_to_pollaczek, recursion_coefficients
from tridirac.pollaczek import PollaczekParams

# --- the loops the kernel replaced, as references ----------------------------


def _ref_wants_extended(x):
    return not isinstance(x, complex) and abs(x) > 1.0


def ref_evaluate(family, x, n_max, extended=None, dps=40):
    """The former loop of the standard recursion with a shift a, for a
    (lam, a, b) family, in mpmath at `dps` digits when `extended`, else in
    (complex) doubles; extended=None picks mpmath for real |x| > 1."""
    lam, a, b = family
    if extended is None:
        extended = _ref_wants_extended(x)
    if extended:
        with mp.workdps(dps):
            xm = mp.mpmathify(x)
            vals = [mp.mpf(1)]
            if n_max >= 1:
                vals.append(2 * (lam + a) * xm + 2 * b)
            for n in range(1, n_max):
                vals.append((2 * ((n + lam + a) * xm + b) * vals[n] - (n + 2 * lam - 1) * vals[n - 1]) / (n + 1))
        return vals
    one = complex(1.0) if isinstance(x, complex) else 1.0
    vals = [one]
    if n_max >= 1:
        vals.append(2 * (lam + a) * x + 2 * b)
    for n in range(1, n_max):
        vals.append((2 * ((n + lam + a) * x + b) * vals[n] - (n + 2 * lam - 1) * vals[n - 1]) / (n + 1))
    return np.asarray(vals)


def ref_recursion_residual(seq):
    lam, b = seq.params.lam, seq.params.b
    x = seq.argument
    vals = seq.values
    worst = 0.0
    for n in range(1, len(vals) - 1):
        lhs = 2 * ((n + lam) * x + b) * vals[n]
        rhs = (n + 2 * lam - 1) * vals[n - 1] + (n + 1) * vals[n + 1]
        worst = max(worst, float(abs(lhs - rhs) / (1 + abs(lhs))))
    return worst


def _recursion_digits(x, n_max):
    # the working precision of the extended pass: 30 digits plus those the
    # growth rate |x| + sqrt(x^2 - 1) costs over n_max + 1 steps
    return 30 + int(2.2 * (n_max + 1) * math.log10(abs(x) + math.sqrt(x * x - 1.0)))


def ref_coefficients_recursion(d, eps, n_max, digits=None):
    pol = map_to_pollaczek(d, energy_point(eps))
    diag, off = (v.tolist() for v in recursion_coefficients(d).block(0, n_max))
    if abs(pol.x) <= 1.0:
        vals = [1.0]
        prev = 0.0
        for n in range(n_max):
            nxt = ((diag[n] * pol.x + pol.b) * vals[n] - (off[n - 1] * prev if n > 0 else 0.0)) / off[n]
            prev = vals[n]
            vals.append(nxt)
        return np.asarray(vals, dtype=complex)
    with mp.workdps(digits or _recursion_digits(pol.x, n_max)):
        x = mp.mpf(pol.x)
        b = mp.mpf(pol.b)
        vals_mp = [mp.mpf(1)]
        prev = mp.mpf(0)
        for n in range(n_max):
            nxt = ((diag[n] * x + b) * vals_mp[n] - (off[n - 1] * prev if n > 0 else 0)) / off[n]
            prev = vals_mp[n]
            vals_mp.append(nxt)
        vals = [complex(v) for v in vals_mp]
    return np.asarray(vals, dtype=complex)


def ref_coefficients_bound_state(d, eps, n_max, guard=40):
    pol = map_to_pollaczek(d, energy_point(eps))
    top = n_max + guard
    diag, off = (v.tolist() for v in recursion_coefficients(d).block(0, top + 1))
    with mp.workdps(30):
        x = mp.mpf(pol.x)
        b = mp.mpf(pol.b)
        f = [mp.mpf(0)] * (top + 2)
        f[top + 1] = mp.mpf(0)
        f[top] = mp.mpf(1)
        for n in range(top, 0, -1):
            f[n - 1] = ((diag[n] * x + b) * f[n] - off[n] * f[n + 1]) / off[n - 1]
        scale = f[0]
        vals = [complex(f[n] / scale) for n in range(n_max + 1)]
    return np.asarray(vals, dtype=complex)


def ref_solution_pair(coeffs, z, n_max):
    z = complex(z)
    a, b = (v.tolist() for v in coeffs.block(0, max(1, n_max)))
    p = [1.0 + 0.0j, (z - a[0]) / b[0]]
    q = [0.0 + 0.0j, 1.0 / b[0]]
    for n in range(1, n_max):
        p.append(((z - a[n]) * p[n] - b[n - 1] * p[n - 1]) / b[n])
        q.append(((z - a[n]) * q[n] - b[n - 1] * q[n - 1]) / b[n])
    return np.array(p[: n_max + 1]), np.array(q[: n_max + 1])


# --- bit-for-bit equality with the references ---------------------------------


def assert_same(got, want):
    """Equal bit for bit: ndarrays by dtype, shape and bytes (so NaN and
    signed zeros count), mpmath lists element by element and by type."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert g == w


def assert_close(got, want, rtol=1e-12):
    """Equal to `rtol` of the largest finite |want|, wherever want is
    finite (doubles overflow at 400 levels outside the band)."""
    got = np.array([complex(v) for v in got])
    want = np.array([complex(v) for v in want])
    finite = np.isfinite(want)
    assert len(got) == len(want) and finite[0]
    scale = np.max(np.abs(want[finite]))
    assert np.all(np.abs(got[finite] - want[finite]) <= rtol * scale)


N_MAX = (0, 1, 2, 5, 80, 400)
FAMILIES = [(1.5, 0.0, -0.3), (0.7, 0.2, 0.4)]  # (lam, a, b)
ARGUMENTS = [0.37, -0.9, 1.3, -1.7, 0.2 + 0.3j, 1.5 - 0.1j]


@pytest.mark.parametrize("family", FAMILIES, ids=["lam1.5", "lam0.7_a0.2"])
@pytest.mark.parametrize("x", ARGUMENTS, ids=repr)
@pytest.mark.parametrize("extended", [None, False, True])
def test_pollaczek_matches_reference_loops(family, x, extended):
    """evaluate against the reference loop run in the precision `extended`
    asks for (None: the automatic choice, mpmath for real |x| > 1).  At
    a = 0 and in evaluate's own precision, values and residuals agree bit
    for bit.  In the other precision they agree to 1e-12 of the sequence
    scale; so does a shift a != 0, which at one argument x is the a = 0
    family with b + a x."""
    lam, a, b = family
    params = PollaczekParams(lam=lam, b=b + a * x)
    same_precision = extended is None or extended == _ref_wants_extended(x)
    for n_max in N_MAX:
        seq = pollaczek.evaluate(params, x, n_max)
        want = ref_evaluate(family, x, n_max, extended)
        with np.errstate(all="ignore"):  # doubles overflow at 400 levels outside the band
            if a == 0.0 and same_precision:
                assert_same(seq.values, want)
                residual = recurrence.residual(*ref.standard_rows(seq), seq.values)
                assert repr(residual) == repr(ref_recursion_residual(seq))
            else:
                assert_close(seq.values, want)


def test_evaluate_dps_matches_reference():
    # real |x| > 1 runs at 40 digits: the reference loop at dps=40, not at 60
    got = pollaczek.evaluate(PollaczekParams(lam=1.5, b=-0.3), 2.0, 50).values
    assert_same(got, ref_evaluate(FAMILIES[0], 2.0, 50, dps=40))
    assert got[50] != ref_evaluate(FAMILIES[0], 2.0, 50, dps=60)[50]


def _energies(p):
    levels = [spectrum.bound_energy(p, n) for n in (1, 3)]
    return [1.3, -1.5, 0.5, 0.9] + levels


PHYSICAL = [PhysicalParams(z=-1.0, kappa=1, compton=0.05), PhysicalParams(z=-1.0, kappa=-2, compton=0.05)]


@pytest.mark.parametrize("p", PHYSICAL, ids=["kappa1", "kappa-2"])
def test_coefficients_match_reference_loops(p):
    d = model.derive(p)
    for eps in _energies(p):
        for n_max in N_MAX:
            got = wavefunction.coefficients_recursion(d, eps, n_max)
            assert_same(got.values, ref_coefficients_recursion(d, eps, n_max))
            if abs(eps) < 1.0:
                for guard in (0, 1, 40):
                    got = wavefunction.coefficients_bound_state(d, eps, n_max, guard=guard)
                    assert_bound_state_close(got.values, ref_coefficients_bound_state(d, eps, n_max, guard))


# (params, level, n_max) at which a fixed 30 digits change entries of the
# recursion vector at a level energy (11 to 43 of them, by up to 4e-16 of
# max|f|)
DIGIT_CASES = [
    (PhysicalParams(z=-1.0, kappa=1, compton=0.5), 1, 50),
    (PhysicalParams(z=-1.0, kappa=-2, compton=0.5), 2, 50),
    (PhysicalParams(z=-1.0, kappa=-2, compton=0.5, omega=10.0), 0, 150),
    (PhysicalParams(z=-1.0, kappa=1, compton=0.05, omega=10.0), 1, 300),
]


@pytest.mark.parametrize("p, level, n_max", DIGIT_CASES, ids=["kappa1_level1", "kappa-2_level2",
                                                              "kappa-2_omega10_level0", "kappa1_omega10_level1"])
def test_recursion_digits_match_twenty_more(p, level, n_max):
    # the growth-scaled precision gives, entry for entry, the vector of the
    # same pass at 20 more digits; a fixed 30 digits does not
    d = model.derive(p)
    eps = spectrum.bound_energy(p, level)
    x = map_to_pollaczek(d, energy_point(eps)).x
    got = wavefunction.coefficients_recursion(d, eps, n_max).values
    assert_same(got, ref_coefficients_recursion(d, eps, n_max, _recursion_digits(x, n_max) + 20))
    assert not np.array_equal(got, ref_coefficients_recursion(d, eps, n_max, 30))


def assert_bound_state_close(got, want):
    # doubles against the 30-digit loop, to 1e-13 of the vector's scale
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("p", PHYSICAL, ids=["kappa1", "kappa-2"])
def test_bound_state_at_n_max_2000(p):
    d = model.derive(p)
    for eps in (0.5, spectrum.bound_energy(p, 1)):
        got = wavefunction.coefficients_bound_state(d, eps, 2000)
        assert_bound_state_close(got.values, ref_coefficients_bound_state(d, eps, 2000))


@pytest.mark.parametrize("z", [3.0, -2.0, 3 + 0.5j, 20 - 0.05j], ids=repr)
def test_solution_pair_matches_reference_loop(z):
    families = [model.recursion_coefficients(model.derive(p)) for p in PHYSICAL]
    families.append(pollaczek.jacobi_coefficients(PollaczekParams(lam=0.7, b=0.4)))
    for coeffs in families:
        for n_max in N_MAX:
            got = resolvent.solution_pair(coeffs, z, n_max)
            want = ref_solution_pair(coeffs, z, n_max)
            assert_same(got[0], want[0])
            assert_same(got[1], want[1])


def test_forward_lengths_and_initials():
    A = B = C = [1.0] * 4
    assert recurrence.forward(A, B, C, 2.0, 3.0, 0) == [2.0]
    assert recurrence.forward(A, B, C, 2.0, 3.0, 1) == [2.0, 3.0]
    assert recurrence.forward(A, B, C, 2.0, 3.0, 3) == [2.0, 3.0, 1.0, -2.0]


def test_backward_from_trial_tail():
    # b_n = 1, A_n = 2: the tail (u_3, u_4) = (1, 0) recurs down to 4, 3, 2, 1
    A, B, C = [2.0] * 4, [1.0] * 4, [1.0] * 4
    assert recurrence.backward(A, B, C, 3, 0.0, 1.0) == [4.0, 3.0, 2.0, 1.0]
    assert recurrence.backward(A, B, C, 0, 0.0, 1.0) == [1.0]


def test_backward_stays_finite_where_doubles_overflow():
    # u_{n-1} = 3 u_n - u_{n+1} grows by 2.618 a step: u_0 is ~1e418 times
    # the trial tail at top = 1000, beyond the double range unless rescaled
    top = 1000
    A, B, C = [3.0] * (top + 1), [1.0] * (top + 1), [1.0] * (top + 1)
    u = recurrence.backward(A, B, C, top, 0.0, 1.0)
    assert all(math.isfinite(v) for v in u)
    with mp.workdps(30):
        exact = recurrence.backward([mp.mpf(3)] * (top + 1), B, C, top, mp.mpf(0), mp.mpf(1))
        want = [float(v / exact[0]) for v in exact]
    assert max(abs(v / u[0] - w) for v, w in zip(u, want)) <= 1e-15


def test_backward_rescaling_is_exact():
    # u grows by 2.618 a step to ~2^600 at top = 430, so u_{n-1}..u_top are
    # shrunk once; a power of two keeps every ratio u_n/u_0 of the same pass
    # started 2^-200 down, which never passes 2^512, bit for bit
    top = 430
    A, B, C = [3.0] * (top + 1), [1.0] * (top + 1), [1.0] * (top + 1)
    got = recurrence.backward(A, B, C, top, 0.0, 1.0)
    plain = recurrence.backward(A, B, C, top, 0.0, 2.0**-200)
    assert abs(got[0]) < 2.0**512 < abs(plain[0]) * 2.0**200
    assert [v / got[0] for v in got] == [v / plain[0] for v in plain]


def test_backward_rescales_at_the_step_that_passes_the_bound():
    # u_{n-1} = 2^300 u_n: a rescale one step late would already overflow
    # (2^512 * 2^300 * 2^300 > 2^1023); the powers of two stay exact
    top = 10
    A, B, C = [2.0**300] * (top + 1), [0.0] * (top + 1), [1.0] * (top + 1)
    u = recurrence.backward(A, B, C, top, 0.0, 1.0)
    assert all(math.isfinite(v) for v in u)
    assert [u[n] / u[0] for n in range(4)] == [2.0 ** (-300 * n) for n in range(4)]


def test_residual_of_diverged_doubles_is_inf():
    # in complex doubles the forward pass at x = 3 overflows: 403 of the
    # 801 values are inf or NaN, which once scored 2.2e-16 (a NaN row kept
    # the running max) and raised an overflow warning on the way
    seq = pollaczek.evaluate(PollaczekParams(lam=1.5, b=-0.3), 3.0 + 0.0j, 800)
    assert np.sum(~np.isfinite(seq.values)) == 403
    assert recurrence.residual(*ref.standard_rows(seq), seq.values) == math.inf
    # the extended-precision pass of the same sequence stays a roundoff residual
    extended = pollaczek.evaluate(PollaczekParams(lam=1.5, b=-0.3), 3.0, 800)
    assert recurrence.residual(*ref.standard_rows(extended), extended.values) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0), mp.mpf("inf")])
def test_residual_scores_any_non_finite_value_inf(bad):
    A, B, C = [1.0] * 6, [1.0] * 6, [1.0] * 6
    for position in (0, 2, 5):
        u = [0.5] * 6
        u[position] = bad
        assert recurrence.residual(A, B, C, u) == math.inf
    # two values, no interior row: still not a finite sequence
    assert recurrence.residual(A, B, C, [1.0, bad]) == math.inf
