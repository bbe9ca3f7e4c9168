"""The shared three-term recurrence kernel.

Every solver that runs on `recurrence` is compared with `==` against
the hand-written loop it replaced, kept below as a reference: values,
types and residuals must agree bit for bit (mpmath values exactly), in
doubles, complex doubles and mpmath.  The invariants of the kernel over
random parameters are in test_recurrence_properties.py.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from tridirac import model, pollaczek, recurrence, resolvent, spectrum, wavefunction
from tridirac.model import PhysicalParams, energy_point, map_to_pollaczek, recursion_coefficients
from tridirac.pollaczek import PollaczekParams

# --- the loops the kernel replaced, as references ----------------------------


def _ref_wants_extended(x):
    return not isinstance(x, complex) and abs(x) > 1.0


def ref_evaluate(params, x, n_max, extended=None, dps=40):
    lam, a, b = params.lam, params.a, params.b
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


def _ref_symmetric_offdiag(params, n):
    return 0.5 * math.sqrt((n + 1.0) * (n + 2.0 * params.lam))


def ref_second_kind(params, x, n_max, extended=None, dps=40):
    b0 = _ref_symmetric_offdiag(params, 0)
    lam, a, b = params.lam, params.a, params.b
    if extended is None:
        extended = _ref_wants_extended(x)

    def run(xv, zero, inv_b0):
        vals = [zero]
        if n_max >= 1:
            vals.append(inv_b0)
        for n in range(1, n_max):
            cn = (n + lam + a) * xv + b
            bn = _ref_symmetric_offdiag(params, n)
            bnm1 = _ref_symmetric_offdiag(params, n - 1)
            vals.append((cn * vals[n] - bnm1 * vals[n - 1]) / bn)
        return vals

    if extended:
        with mp.workdps(dps):
            return run(mp.mpmathify(x), mp.mpf(0), 1 / mp.mpf(b0))
    zero = complex(0.0) if isinstance(x, complex) else 0.0
    return np.asarray(run(x, zero, 1.0 / b0))


def ref_recursion_residual(seq):
    lam, a, b = seq.params.lam, seq.params.a, seq.params.b
    x = seq.argument
    vals = seq.values
    worst = 0.0
    if seq.normalization == "standard":
        for n in range(1, len(vals) - 1):
            lhs = 2 * ((n + lam + a) * x + b) * vals[n]
            rhs = (n + 2 * lam - 1) * vals[n - 1] + (n + 1) * vals[n + 1]
            worst = max(worst, float(abs(lhs - rhs) / (1 + abs(lhs))))
        return worst
    for n in range(1, len(vals) - 1):
        lhs = ((n + lam + a) * x + b) * vals[n]
        rhs = (
            _ref_symmetric_offdiag(seq.params, n - 1) * vals[n - 1]
            + _ref_symmetric_offdiag(seq.params, n) * vals[n + 1]
        )
        worst = max(worst, float(abs(lhs - rhs) / (1 + abs(lhs))))
    return worst


def ref_coefficients_recursion(d, eps, n_max):
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
    digits = 30 + int(2.2 * (n_max + 1) * math.log10(abs(pol.x) + math.sqrt(pol.x * pol.x - 1.0)))
    with mp.workdps(digits):
        x = mp.mpf(pol.x)
        b = mp.mpf(pol.b)
        vals_mp = [mp.mpf(1)]
        prev = mp.mpf(0)
        for n in range(n_max):
            nxt = ((diag[n] * x + b) * vals_mp[n] - (off[n - 1] * prev if n > 0 else 0)) / off[n]
            prev = vals_mp[n]
            vals_mp.append(nxt)
        vals = [wavefunction._mp_to_complex(v) for v in vals_mp]
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
        vals = [wavefunction._mp_to_complex(f[n] / scale) for n in range(n_max + 1)]
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


N_MAX = (0, 1, 2, 5, 80, 400)
FAMILIES = [PollaczekParams(lam=1.5, b=-0.3), PollaczekParams(lam=0.7, a=0.2, b=0.4)]
ARGUMENTS = [0.37, -0.9, 1.3, -1.7, 0.2 + 0.3j, 1.5 - 0.1j]


@pytest.mark.parametrize("params", FAMILIES, ids=["lam1.5", "lam0.7_a0.2"])
@pytest.mark.parametrize("x", ARGUMENTS, ids=repr)
@pytest.mark.parametrize("extended", [None, False, True])
def test_pollaczek_matches_reference_loops(params, x, extended):
    for n_max in N_MAX:
        first = pollaczek.evaluate(params, x, n_max, extended=extended)
        second = pollaczek.evaluate_second_kind(params, x, n_max, extended=extended)
        assert_same(first.values, ref_evaluate(params, x, n_max, extended))
        assert_same(second.values, ref_second_kind(params, x, n_max, extended))
        with np.errstate(all="ignore"):  # doubles overflow at 400 levels outside the band
            for seq in (first, second):
                assert repr(pollaczek.recursion_residual(seq)) == repr(ref_recursion_residual(seq))
            if isinstance(first.values, np.ndarray):
                sym = pollaczek.to_symmetric(first)
                assert repr(pollaczek.recursion_residual(sym)) == repr(ref_recursion_residual(sym))


def test_evaluate_dps_matches_reference():
    params = FAMILIES[0]
    assert_same(pollaczek.evaluate(params, 2.0, 50, dps=60).values, ref_evaluate(params, 2.0, 50, dps=60))
    assert_same(pollaczek.evaluate_second_kind(params, 2.0, 50, dps=60).values,
                ref_second_kind(params, 2.0, 50, dps=60))


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
                    assert_same(got.values, ref_coefficients_bound_state(d, eps, n_max, guard))


@pytest.mark.parametrize("z", [3.0, -2.0, 3 + 0.5j, 20 - 0.05j], ids=repr)
def test_solution_pair_matches_reference_loop(z):
    families = [model.recursion_coefficients(model.derive(p)) for p in PHYSICAL]
    families.append(pollaczek.jacobi_coefficients(FAMILIES[1]))
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


def test_residual_of_diverged_doubles_is_inf():
    # in doubles the forward pass at x = 3 overflows: 403 of the 801
    # values are inf or NaN, which once scored 2.2e-16 (a NaN row kept the
    # running max) and raised an overflow warning on the way
    seq = pollaczek.evaluate(PollaczekParams(lam=1.5, b=-0.3), 3.0, 800, extended=False)
    assert np.sum(~np.isfinite(seq.values)) == 403
    assert pollaczek.recursion_residual(seq) == math.inf
    # the extended-precision pass of the same sequence stays a roundoff residual
    assert pollaczek.recursion_residual(pollaczek.evaluate(PollaczekParams(lam=1.5, b=-0.3), 3.0, 800)) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0), mp.mpf("inf")])
def test_residual_scores_any_non_finite_value_inf(bad):
    A, B, C = [1.0] * 6, [1.0] * 6, [1.0] * 6
    for position in (0, 2, 5):
        u = [0.5] * 6
        u[position] = bad
        assert recurrence.residual(A, B, C, u) == math.inf
    # two values, no interior row: still not a finite sequence
    assert recurrence.residual(A, B, C, [1.0, bad]) == math.inf
