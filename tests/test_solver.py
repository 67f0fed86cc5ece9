"""Radial, axisymmetric, and periodic solvers with their oracles."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from biharm4 import solver
from biharm4.families import Bubble
from biharm4.solver import (
    BranchError,
    ConvergenceError,
    RadialProfile,
    axisym_mode,
    bifurcation_points,
    continue_branch,
    detect_bifurcation_points,
    profile_to_csv,
    profile_to_json_dict,
    recompute_residual,
    s4_axisym_residual,
    s4_theta_grid,
    solve_banded,
    solve_radial_r4,
    solve_s4,
    solve_torus,
    torus_grid,
    write_branch_jsonl,
    _bordered_solve,
    _newton,
    _radial_system,
    _s4_jacobian_banded,
    _torus_newton_step,
)


def _s4_dense_jacobian(u, k):
    """The banded S^4 Jacobian as a dense matrix: the reference for the banded solves."""
    ab = _s4_jacobian_banded(u, k)
    N = u.size - 1
    J = np.zeros((N + 1, N + 1))
    idx = np.arange(N + 1)
    J[idx, idx] = ab[1, idx]
    J[idx[:-1], idx[:-1] + 1] = ab[0, 1:]
    J[idx[1:], idx[1:] - 1] = ab[2, :-1]
    return J


def _relative_error(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def jacobian_smallest_singular_value(k, N=400):
    J = _s4_dense_jacobian(np.full(N + 1, math.sqrt(k)), k)
    return float(np.linalg.svd(J, compute_uv=False)[-1])


def bubble_on_grid(delta, r):
    b = Bubble(4, delta, (0.0,) * 4)
    return np.array([b.value(np.array([ri, 0.0, 0.0, 0.0])) for ri in r])


# ---------------------------------------------------------------------------
# radial
# ---------------------------------------------------------------------------

def test_radial_matches_bubble_family():
    p = solve_radial_r4(2.0, 10.0, 1000)
    err = np.max(np.abs(p.values - bubble_on_grid(1.0, p.grid)))
    # discretization-limited: measured constant ~0.47 * dr^2 (see the radial
    # solver bullet of "Numerical notes" in the README)
    assert err < 1e-4
    assert p.residual_sup < 1e-10


def test_radial_second_order_convergence():
    e1 = np.max(np.abs(solve_radial_r4(2.0, 10.0, 1000).values
                       - bubble_on_grid(1.0, np.linspace(0, 10, 1001))))
    e2 = np.max(np.abs(solve_radial_r4(2.0, 10.0, 2000).values
                       - bubble_on_grid(1.0, np.linspace(0, 10, 2001))))
    assert 3.5 < e1 / e2 < 4.5


def test_radial_center_value_selects_width():
    # v(0) = 2/delta, so v_center = 1 gives the width-2 member
    p = solve_radial_r4(1.0, 10.0, 1000)
    err = np.max(np.abs(p.values - bubble_on_grid(2.0, p.grid)))
    assert err < 1e-4


def test_radial_midpoint_value():
    p = solve_radial_r4(2.0, 10.0, 1000)
    i = np.searchsorted(p.grid, 1.0)
    assert p.values[i] == pytest.approx(1.0, abs=1e-3)


def test_radial_validation_and_determinism():
    with pytest.raises(ValueError):
        solve_radial_r4(-1.0)
    with pytest.raises(ValueError):
        solve_radial_r4(1.0, N=50)
    with pytest.raises(ConvergenceError) as exc:
        solve_radial_r4(2.0, 10.0, 400, max_iter=1)
    assert exc.value.residual is not None
    a = solve_radial_r4(1.5, 8.0, 400)
    b = solve_radial_r4(1.5, 8.0, 400)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_newton_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        solve_radial_r4(2.0, 10.0, 200, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        solve_s4(3.0, np.full(101, math.sqrt(3.0)), tol=tol)


def test_radial_overflowing_iterate_is_convergence_error():
    # the first residual overflows (v^3 with v ~ 1e300): no numpy warning, a solver failure
    with pytest.raises(ConvergenceError, match="not finite"):
        solve_radial_r4(1e300, 10.0, 200)


# ---------------------------------------------------------------------------
# banded linear solves
# ---------------------------------------------------------------------------

def _radial_jacobian_system(N, monkeypatch):
    """The banded (2, 0) Jacobian and right-hand side of the first radial Newton step."""
    r = np.linspace(0.0, 10.0, N + 1)
    residual, jac_solve = _radial_system(2.0, r, r[1] - r[0])
    seen = []
    monkeypatch.setattr(solver, "solve_banded", lambda l_and_u, ab, b: seen.append((ab, b)))
    v = 2.0 / (1.0 + r**2 / 3.0)
    jac_solve(v, -residual(v))
    monkeypatch.undo()
    return seen[0]


def _extended_forward_substitution(ab, b):
    """Lower band solve in extended precision: the roundoff-free reference."""
    A, x = ab.astype(np.longdouble), np.zeros(b.size, dtype=np.longdouble)
    for i in range(b.size):
        s = np.longdouble(b[i])
        for d in range(1, min(i, ab.shape[0] - 1) + 1):
            s -= A[d, i - d] * x[i - d]
        x[i] = s / A[0, i]
    return x.astype(float)


@pytest.mark.parametrize("nrhs", [None, 4])
def test_solve_banded_tridiagonal_matches_scipy(nrhs):
    rng = np.random.default_rng(3)
    n = 300
    ab = rng.uniform(-1.0, 1.0, (3, n))
    ab[1] += 2.5 * np.sign(ab[1])  # diagonally dominant
    b = rng.standard_normal(n if nrhs is None else (n, nrhs))
    x = solve_banded((1, 1), ab, b)
    assert x.shape == b.shape
    assert _relative_error(x, scipy.linalg.solve_banded((1, 1), ab, b)) < 1e-14


@pytest.mark.parametrize("N, scipy_tol", [(1000, 2e-12), (8000, 5e-12)])
def test_solve_banded_radial_forward_substitution_matches_scipy(N, scipy_tol, monkeypatch):
    ab, b = _radial_jacobian_system(N, monkeypatch)
    x = solve_banded((2, 0), ab, b)
    ref = scipy.linalg.solve_banded((2, 0), ab, b)
    assert _relative_error(x, ref) < scipy_tol
    # the gap is the reference's roundoff: against extended precision the
    # pivoted band LU is 1.0e-12 (N = 1000) and 3.4e-12 (N = 8000) off, the
    # forward substitution 2.5e-14 and 1.0e-12
    exact = _extended_forward_substitution(ab, b)
    assert _relative_error(x, exact) <= _relative_error(ref, exact)


@pytest.mark.parametrize("l_and_u, ab", [
    ((1, 1), np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])),  # [[1, 1], [1, 1]]
    ((2, 0), np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])),
])
def test_solve_banded_zero_pivot_is_linalg_error(l_and_u, ab):
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_banded(l_and_u, ab, np.ones(ab.shape[1]))


def test_solve_banded_rejects_non_finite_input_and_other_band_shapes():
    ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
    b = np.ones(3)
    with pytest.raises(ValueError, match="NaN"):
        solve_banded((1, 1), np.where(ab == 4.0, np.nan, ab), b)
    with pytest.raises(ValueError, match="NaN"):
        solve_banded((1, 1), ab, np.array([1.0, np.nan, 1.0]))
    with pytest.raises(ValueError, match="band shape"):
        solve_banded((2, 2), np.vstack([ab, ab[:2]]), b)


def test_newton_reports_a_singular_jacobian_as_convergence_error():
    ab = np.ones((3, 4))
    ab[0, 2] = 0.0  # zero diagonal in row 2 of a lower-triangular Jacobian
    with pytest.raises(ConvergenceError, match="singular Jacobian") as exc:
        _newton(lambda z: z - 1.0, lambda z, rhs: solve_banded((2, 0), ab, rhs),
                np.full(4, 2.0), 1e-10, 5)
    assert np.array_equal(exc.value.iterate, np.full(4, 2.0))
    assert exc.value.residual == 1.0


def test_every_banded_solve_goes_through_the_module_attribute(monkeypatch):
    # the benchmark counts linear solves by patching solver.solve_banded; a
    # call that bypassed it would leave these counts short
    calls = []
    inner = solver.solve_banded
    monkeypatch.setattr(solver, "solve_banded", lambda *a: calls.append(1) or inner(*a))

    def count(run):
        calls.clear()
        run()
        return len(calls)

    th = s4_theta_grid(200)
    assert count(lambda: solve_radial_r4(2.0, 10.0, 1000)) == 6
    assert count(lambda: solve_s4(5.05, math.sqrt(5.05) + 0.1 * axisym_mode(2, th))) == 6
    assert count(lambda: solve_torus(0.0, 1.0 + 0.3 * np.sin(torus_grid(64)))) == 1
    assert count(lambda: continue_branch(2, 5.05, 5.2, 3, N=100)) == 9


def test_profile_invariants():
    th = torus_grid(256)
    # every solver output: radial, fixed-k S^4, continuation points, torus
    profiles = [solve_radial_r4(2.0, 10.0, 500),
                solve_s4(3.0, np.full(201, math.sqrt(3.0))).profile,
                solve_s4(5.1, math.sqrt(5.1) - 0.1 * axisym_mode(2, s4_theta_grid(200))).profile]
    profiles += [p.profile for p in continue_branch(2, 5.05, 5.5, 6, N=200).points]
    profiles += [solve_torus(A, 1.0 + 0.3 * np.sin(th)).profile for A in (0.0, -1.0)]
    for p in profiles:
        assert abs(recompute_residual(p) - p.residual_sup) < 1e-12, p.equation
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 1.0]), np.array([1.0, -1.0]), "r4_bubble", {}, 0.0)


# ---------------------------------------------------------------------------
# axisymmetric S^4
# ---------------------------------------------------------------------------

def test_s4_operator_constant_solutions():
    N = 200
    for k in (0.5, 2.0, 7.0):
        u = np.full(N + 1, math.sqrt(k))
        assert np.max(np.abs(s4_axisym_residual(u, k))) < 1e-12
    c = 1.3
    r = s4_axisym_residual(np.full(N + 1, c), 2.0)
    assert np.all(r == 2.0 * c - c**3)   # exact: every row of D sums to zero


def _central_difference(F, x, w, eps=1e-6):
    return (F(x + eps * w) - F(x - eps * w)) / (2.0 * eps)


@pytest.mark.parametrize("N", [400, 200])
def test_s4_jacobian_is_the_derivative_of_the_residual(N):
    rng = np.random.default_rng(N)
    u, w, k = rng.uniform(0.5, 2.0, N + 1), rng.standard_normal(N + 1), 5.0
    Jw = _s4_dense_jacobian(u, k) @ w
    fd = _central_difference(lambda x: s4_axisym_residual(x, k), u, w)
    for rows in (slice(0, 1), slice(1, N), slice(N, N + 1)):   # pole, interior, pole
        assert _relative_error(fd[rows], Jw[rows]) < 1e-6, rows


@pytest.mark.parametrize("N", [200, 1000])
def test_radial_jacobian_is_the_derivative_of_the_residual(N):
    rng = np.random.default_rng(N)
    r = np.linspace(0.0, 10.0, N + 1)
    residual, jac_solve = _radial_system(2.0, r, r[1] - r[0])
    v = 2.0 / (1.0 + r**2) * rng.uniform(0.9, 1.1, N + 1)
    w = rng.standard_normal(N + 1)
    assert _relative_error(jac_solve(v, _central_difference(residual, v, w)), w) < 1e-6


def test_s4_linearization_annihilates_mode_at_bifurcation():
    # eigen-oracle: at k = 5 the linearized operator applied to the ell = 2
    # eigenfunction vanishes to discretization accuracy
    N = 400
    th = s4_theta_grid(N)
    k = 5.0
    J = _s4_dense_jacobian(np.full(N + 1, math.sqrt(k)), k)
    w = axisym_mode(2, th)
    assert np.max(np.abs(J @ w)) < 1e-2


def test_axisym_mode_properties():
    th = s4_theta_grid(300)
    m = axisym_mode(2, th)
    assert np.max(np.abs(m)) == pytest.approx(1.0)
    # ell = 2 is even under theta -> pi - theta
    assert np.max(np.abs(m - m[::-1])) < 1e-12
    with pytest.raises(ValueError):
        axisym_mode(0, th)


def test_axisym_mode_is_the_normalised_gegenbauer_polynomial():
    from scipy.special import eval_gegenbauer

    th = s4_theta_grid(400)
    for ell in range(1, 8):
        g = eval_gegenbauer(ell, 1.5, np.cos(th))
        assert np.max(np.abs(axisym_mode(ell, th) - g / np.max(np.abs(g)))) <= 1e-14


def test_bifurcation_formula():
    assert [bifurcation_points(l) for l in (1, 2, 3)] == [2.0, 5.0, 9.0]
    assert bifurcation_points(np.int64(2)) == 5.0
    th = s4_theta_grid(20)
    assert np.array_equal(axisym_mode(np.int64(2), th), axisym_mode(2, th))
    for bad in (0, -1, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError):
            bifurcation_points(bad)
        with pytest.raises(ValueError):
            axisym_mode(bad, th)


def test_bifurcation_detected_numerically():
    # numerical oracle for the formula: scan the smallest singular value
    for ell in (1, 2, 3):
        k_star = bifurcation_points(ell)
        found = detect_bifurcation_points(k_star - 0.3, k_star + 0.3, 0.05, N=400)
        assert any(abs(k - k_star) <= 0.05 for k in found), (ell, found)
    # and the singular value really dips there
    assert jacobian_smallest_singular_value(5.0) < 0.1 * jacobian_smallest_singular_value(5.5)


def _half_real_eigenvalues(N, k_min, k_max):
    ev = np.linalg.eigvals(_s4_dense_jacobian(np.zeros(N + 1), 0.0))
    k = np.sort(ev.real[ev.imag == 0.0]) / 2.0
    return k[(k >= k_min) & (k <= k_max)]


def test_detected_bifurcations_are_half_the_eigenvalues_of_the_constant_branch_operator():
    # J(k) = D - 2kI on the constant branch, so J is singular at half of D's eigenvalues
    found = detect_bifurcation_points(1.5, 9.6, 0.05, N=400)
    ref = _half_real_eigenvalues(400, 1.5, 9.6)
    assert len(found) == len(ref) == 3
    assert np.max(np.abs(np.array(found) - ref)) <= 1e-10
    assert all(abs(k - bifurcation_points(l)) <= 6.3e-4 for l, k in enumerate(found, 1))
    wide = detect_bifurcation_points(0.5, 60.0, 0.05, N=400)
    assert np.max(np.abs(np.array(wide) - _half_real_eigenvalues(400, 0.5, 60.0))) <= 1e-10
    assert len(wide) == 9   # k_1 .. k_9 = 54


def test_discrete_bifurcation_offsets_are_second_order(second_order):
    offsets = [np.array(detect_bifurcation_points(1.5, 9.6, 0.05, N=N)) - [2.0, 5.0, 9.0]
               for N in (200, 400, 800)]
    assert all(np.all(o < 0.0) for o in offsets)
    ratios, converges = second_order(offsets)
    assert converges, ratios


def test_narrow_window_finds_the_point_inside_it():
    # the bracketing grid spans [k_min, k_max] even when dk is wider than the window
    (k1,) = detect_bifurcation_points(1.99, 2.01, 0.05, N=400)
    assert abs(k1 - _half_real_eigenvalues(400, 1.5, 2.5)[0]) <= 1e-10
    assert detect_bifurcation_points(2.0, 2.0, 0.05, N=400) == []
    assert detect_bifurcation_points(2.1, 4.9, 0.05, N=400) == []


def test_bifurcation_detection_makes_no_svd_call(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("detect_bifurcation_points called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert len(detect_bifurcation_points(1.5, 9.6, 0.05, N=400)) == 3


def _continuant_det_is_negative(band, ks):
    """Whether det(D - 2kI) < 0 for each k in `ks`: the oracle for the scan's LU sign.

    The determinant is the continuant p_i = (d_i - 2k) p_{i-1} - b_{i-1} c_{i-1} p_{i-2};
    with entries near 8/dtheta^2 it overflows, so the recurrence runs on the
    ratios r_i = p_i / p_{i-1} = (d_i - 2k) - b_{i-1} c_{i-1} / r_{i-1}, and
    det = prod r_i is negative when an odd number of them are."""
    offprod = band[0, 1:] * band[2, :-1]
    r = band[1][:, None] - 2.0 * np.asarray(ks, dtype=float)
    with np.errstate(divide="ignore"):  # a zero pivot acts as a tiny positive one
        for i in range(1, r.shape[0]):
            r[i] -= offprod[i - 1] / r[i - 1]
    return np.count_nonzero(r < 0.0, axis=0) % 2 == 1


@pytest.mark.parametrize("N", [100, 400, 1600])
@pytest.mark.parametrize("k_min, k_max", [(1.5, 9.6), (0.5, 60.0)])
def test_lu_determinant_sign_matches_the_continuant(N, k_min, k_max):
    band = solver._s4_operator(N).band
    ks = np.linspace(k_min, k_max, math.ceil((k_max - k_min) / 0.05) + 1)  # the scan's dk grid
    lu = [solver._det_is_negative(band, k) for k in ks]
    assert lu == _continuant_det_is_negative(band, ks).tolist()
    assert any(a != b for a, b in zip(lu, lu[1:]))


def test_an_exact_zero_pivot_counts_as_positive():
    # [[2, 1, 0], [2, 2, 1], [0, 1, 1]] is singular; its LU has U_33 = 0 exactly, with no row swap
    band = np.array([[0.0, 1.0, 1.0], [2.0, 2.0, 1.0], [2.0, 1.0, 0.0]])
    _, d, _, _, ipiv, info = lapack.dgttrf(band[2, :-1], band[1], band[0, 1:])
    assert (d.tolist(), ipiv.tolist(), info) == ([2.0, 1.0, 0.0], [1, 2, 3], 3)
    for k in (0.0, -1e-3, 1e-3):
        assert solver._det_is_negative(band, k) == _continuant_det_is_negative(band, [k])[0], k
    assert not solver._det_is_negative(band, 0.0)


def test_a_window_around_zero_finds_the_constant_mode():
    # D annihilates constants, so J(0) = D is singular; k = 0 is a point of
    # this window's grid, where the last LU pivot is roundoff-sized
    (k0,) = detect_bifurcation_points(-0.5, 0.5, 0.05, N=400)
    assert abs(k0) <= 1e-10


def test_bifurcation_scan_takes_one_lu_per_k(monkeypatch):
    calls = []
    dgttrf = lapack.dgttrf
    monkeypatch.setattr(lapack, "dgttrf", lambda *a, **kw: calls.append(1) or dgttrf(*a, **kw))
    assert len(detect_bifurcation_points(1.5, 9.6, 0.05, N=400)) == 3
    # 163 grid points, then at most 64 bisection steps for each of the three brackets
    assert 163 <= len(calls) <= 163 + 3 * 64


@pytest.mark.parametrize("args", [
    (1.5, 9.6, 0.0), (1.5, 9.6, -0.05), (1.5, 9.6, math.nan), (1.5, 9.6, math.inf),
    (math.nan, 9.6, 0.05), (1.5, math.inf, 0.05), (-math.inf, 9.6, 0.05), (9.6, 1.5, 0.05),
    (1.5, 9.6, 0.05, 1), (1.5, 9.6, 0.05, 0),
])
def test_detect_bifurcation_points_rejects_bad_input(args):
    with pytest.raises(ValueError):
        detect_bifurcation_points(*args)


def test_solve_s4_constant_branch_exact():
    for k in (2.5, 3.0, 5.0, 9.0):
        bp = solve_s4(k, np.full(401, math.sqrt(k)))
        assert np.max(np.abs(bp.profile.values - math.sqrt(k))) < 1e-12
        assert bp.amplitude == 0.0


def test_solve_s4_nonconstant_near_bifurcation():
    N = 400
    th = s4_theta_grid(N)
    u0 = math.sqrt(5.1) - 0.1 * axisym_mode(2, th)
    bp = solve_s4(5.1, u0, tol=1e-9)
    assert bp.amplitude > 1e-3
    assert bp.profile.residual_sup < 1e-9
    assert np.all(bp.profile.values > 0)
    assert bp.gradient_energy > 0


def test_solve_s4_perturbed_low_mode_recovers_a_solution():
    # residual contract only; which solution is found is exploratory
    N = 300
    th = s4_theta_grid(N)
    u0 = math.sqrt(3.0) + 0.1 * axisym_mode(1, th)
    bp = solve_s4(3.0, u0, tol=1e-9)
    assert bp.profile.residual_sup < 1e-9
    assert np.all(bp.profile.values > 0)


def test_solve_s4_validation():
    with pytest.raises(ValueError):
        solve_s4(-1.0, np.ones(101))
    with pytest.raises(ValueError):
        solve_s4(2.0, -np.ones(101))


# ---------------------------------------------------------------------------
# per-grid constant arrays against their reference formulas
# ---------------------------------------------------------------------------

def _reference_s4_residual(u, k):
    g = solver._s4_operator(u.size - 1)
    du = np.diff(u, prepend=u[0], append=u[-1])
    return g.up * du[1:] - g.lo * du[:-1] + k * u - u**3


def _reference_s4_jacobian(u, k):
    g = solver._s4_operator(u.size - 1)
    return np.array([np.roll(g.up, 1), k - 3.0 * u**2 - (g.lo + g.up), np.roll(g.lo, -1)])


def _reference_gradient_energy(u):
    th = s4_theta_grid(u.size - 1)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz   # numpy < 2 has only trapz
    return 2.0 * math.pi**2 * float(trapezoid(np.gradient(u, th) ** 2 * np.sin(th) ** 3, th))


def _reference_radial_system(v_center, r, v):
    """The radial residual and zero-filled Jacobian band, built from scratch."""
    N, dr = r.size - 1, r[1] - r[0]
    drift = 3.0 / (2.0 * dr * r[1:N - 1])
    lo = np.append(0.0, 1.0 / dr**2 - drift)
    up = np.append(8.0 / dr**2, 1.0 / dr**2 + drift)
    dv = np.diff(v, prepend=v[0])
    F = np.empty(N + 1)
    F[0] = v[0] - v_center
    F[1:N] = up * dv[1:N] - lo * dv[:N - 1] + 2.0 * v[:N - 1] ** 3
    F[N] = (3.0 * v[N] - 4.0 * v[N - 1] + v[N - 2]) / (2.0 * dr) + 2.0 * v[N] / r[N]
    ab = np.zeros((3, N + 1))
    ab[0, 0] = 1.0
    ab[0, 1:N] = up
    ab[1, :N - 1] = 6.0 * v[:N - 1] ** 2 - (lo + up)
    ab[2, :N - 2] = lo[1:]
    ab[2, N - 2] = 1.0 / (2.0 * dr)
    ab[1, N - 1] = -2.0 / dr
    ab[0, N] = 3.0 / (2.0 * dr) + 2.0 / r[N]
    return F, ab


@pytest.mark.parametrize("N", [2, 3, 37, 400])
def test_s4_kernels_equal_the_reference_formulas_bit_for_bit(N):
    # N = 2 has exactly uniform theta spacing, where np.gradient takes its
    # scalar-spacing branch; the other grids take the coordinate-array branch
    rng = np.random.default_rng(N)
    for _ in range(3):
        u, k = rng.uniform(0.2, 3.0, N + 1), float(rng.uniform(0.5, 10.0))
        assert np.array_equal(s4_axisym_residual(u, k), _reference_s4_residual(u, k))
        assert np.array_equal(_s4_jacobian_banded(u, k), _reference_s4_jacobian(u, k))
        assert solver._gradient_energy(u) == _reference_gradient_energy(u)


@pytest.mark.parametrize("N", [100, 8000])
def test_radial_kernels_equal_the_reference_formulas_bit_for_bit(N, monkeypatch):
    rng = np.random.default_rng(N)
    r = np.linspace(0.0, 10.0, N + 1)
    residual, jac_solve = _radial_system(2.0, r, r[1] - r[0])
    bands = []
    monkeypatch.setattr(solver, "solve_banded", lambda l_and_u, ab, b: bands.append(ab.copy()))
    for _ in range(3):   # the band template is rewritten at every step
        v = 2.0 / (1.0 + r**2 / 3.0) * rng.uniform(0.5, 1.5, N + 1)
        F_ref, ab_ref = _reference_radial_system(2.0, r, v)
        assert np.array_equal(residual(v), F_ref)
        jac_solve(v, -F_ref)
        assert np.array_equal(bands[-1], ab_ref)


def _branch_digest(run):
    return run.status, [(p.k, p.arclength, p.amplitude, p.gradient_energy, p.profile.residual_sup,
                         p.profile.values.tobytes(), p.profile.grid.tobytes()) for p in run.points]


def test_s4_grid_cache_cannot_be_corrupted():
    N, k = 100, 5.1
    init = math.sqrt(k) - 0.1 * axisym_mode(2, s4_theta_grid(N))
    want = solve_s4(k, init)
    g = solver._s4_operator(N)
    for arr in g:
        if arr is not None:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0
    # what callers get back is theirs to write, or read-only
    _s4_jacobian_banded(init, k)[...] = 0.0
    s4_axisym_residual(init, k)[...] = 0.0
    s4_theta_grid(N)[...] = 0.0
    with pytest.raises(ValueError):
        want.profile.grid[...] = 0.0
    got = solve_s4(k, init)
    assert got.profile.values.tobytes() == want.profile.values.tobytes()
    assert (got.gradient_energy, got.profile.residual_sup) == (want.gradient_energy,
                                                               want.profile.residual_sup)


def test_interleaved_continuations_equal_fresh_runs():
    fresh = {}
    for N in (100, 400):
        solver._s4_operator.cache_clear()
        fresh[N] = _branch_digest(continue_branch(2, 5.05, 5.3, 4, N=N))
    for N in (100, 400, 100, 400):
        assert _branch_digest(continue_branch(2, 5.05, 5.3, 4, N=N)) == fresh[N]


# ---------------------------------------------------------------------------
# branch continuation
# ---------------------------------------------------------------------------

def test_bordered_solve_matches_dense_s4_border():
    # the corrector's system: banded S^4 Jacobian bordered by dF/dk = u and
    # the arclength row, at the first (k = 5.05) and last (k ~ 6.0) points
    run = continue_branch(2, 5.05, 6.0, 20, N=400, tol=1e-9)
    rng = np.random.default_rng(7)
    pts = run.points
    for p, q in ((pts[0], pts[1]), (pts[-1], pts[-2])):
        u, k = p.profile.values, p.k
        n = u.size
        row = (u - q.profile.values)[None, :] / n
        D = np.array([[k - q.k]])
        f, g = rng.standard_normal(n), rng.standard_normal(1)
        x, y = _bordered_solve(_s4_jacobian_banded(u, k), u[:, None], row, D, f, g)
        dense = np.block([[_s4_dense_jacobian(u, k), u[:, None]], [row, D]])
        ref = np.linalg.solve(dense, np.append(f, g))
        assert _relative_error(np.append(x, y), ref) < 1e-9, k


def test_corrector_step_equals_the_bordered_solve(monkeypatch):
    # the corrector eliminates its one border column inline; its Newton step is
    # _bordered_solve's to roundoff at the first and last points of a run.  Which
    # bits come out depends on how the BLAS rounds a 1x1 dgesv and a short dot
    # product, so the bound is 1e-15 of the step's largest entry, not bit equality
    run = continue_branch(2, 5.05, 6.0, 20, N=400, tol=1e-9)
    steps = []
    newton = solver._newton
    monkeypatch.setattr(solver, "_newton",
                        lambda residual, jac_solve, *a, **kw: steps.append(jac_solve) or
                        newton(residual, jac_solve, *a, **kw))
    rng = np.random.default_rng(7)
    pts = run.points
    for p, q in ((pts[0], pts[1]), (pts[-1], pts[-2])):
        u, k = p.profile.values, p.k
        n = u.size
        tu, tk = u - q.profile.values, k - q.k
        solver._bordered_corrector(u, k, tu, tk, 1e-9)
        rhs = rng.standard_normal(n + 1)
        x, y = _bordered_solve(_s4_jacobian_banded(u, k), u[:, None], (1.0 / n) * tu[None, :],
                               np.array([[tk]]), rhs[:n], rhs[n:])
        step, ref = steps[-1](np.append(u, k), rhs), np.append(x, y)
        assert np.max(np.abs(step - ref)) <= 1e-15 * np.max(np.abs(ref)), k


def test_continuation_makes_no_dense_solve(monkeypatch):
    def no_dense_solve(*args, **kwargs):
        raise AssertionError("continue_branch called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", no_dense_solve)
    calls = []
    banded = solver.solve_banded
    monkeypatch.setattr(solver, "solve_banded", lambda *a: calls.append(1) or banded(*a))
    run = continue_branch(2, 5.05, 6.0, 20, N=400)
    assert (run.status, len(run.points)) == ("ok", 20)
    assert len(calls) == 43


@pytest.mark.parametrize("A", [0.0, -1.0, 0.5])
def test_torus_newton_step_matches_dense(A):
    N = 256
    lam = 1.0 + 0.3 * np.sin(torus_grid(N))
    c = 1.0 / (2.0 * math.pi / N) ** 2
    idx = np.arange(N)
    J = np.zeros((N + 1, N + 1))
    J[idx, idx] = -2.0 * c - 3.0 * A * lam**2
    J[idx, (idx + 1) % N] += c
    J[idx, (idx - 1) % N] += c
    J[:N, N] = 1.0
    J[N, :N] = 1.0 / N
    rhs = np.random.default_rng(11).standard_normal(N + 1)
    step = _torus_newton_step(A, np.append(lam, 0.3), rhs)
    assert _relative_error(step, np.linalg.solve(J, rhs)) < 1e-9


def test_branch_growth_from_second_bifurcation():
    run = continue_branch(2, 5.05, 5.5, 8, N=400, tol=1e-9)
    assert run.status == "ok"
    assert len(run.points) == 8
    amps = [p.amplitude for p in run.points]
    assert all(b > a for a, b in zip(amps, amps[1:]))
    assert all(p.profile.residual_sup < 1e-9 for p in run.points)
    assert all(np.all(p.profile.values > 0) for p in run.points)
    # summary fields recompute from the stored profiles
    for p in run.points:
        assert p.amplitude == pytest.approx(float(np.max(p.profile.values) - np.min(p.profile.values)))
    # arclength strictly increases along the branch
    s = [p.arclength for p in run.points]
    assert all(b > a for a, b in zip(s, s[1:]))


@pytest.mark.parametrize("k_from, k_to, steps, N", [
    (5.01, 6.0, 10, 400), (4.99, 4.0, 10, 400),
    # few-step runs: the remaining k distance is spread over the remaining points
    (5.05, 6.0, 5, 400), (5.05, 5.3, 4, 300), (5.05, 5.2, 3, 100),
])
def test_branch_lands_on_k_to(k_from, k_to, steps, N):
    run = continue_branch(2, k_from, k_to, steps, N=N)
    assert run.status == "ok" and len(run.points) == steps
    assert abs(run.points[-1].k - k_to) <= 0.01


def test_step_keeps_its_size_once_k_has_passed_k_to():
    # the 1e-4 step floor is larger than the remaining share of 5.05 -> 5.0505,
    # so k passes k_to before the last point; every later step keeps its size
    run = continue_branch(2, 5.05, 5.0505, 20, N=400)
    assert run.status == "ok" and len(run.points) == 20
    ks = [p.k for p in run.points]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    passed = next(i for i, k in enumerate(ks) if k >= 5.0505)
    assert 0 < passed < len(ks) - 1
    ds = np.diff([p.arclength for p in run.points])
    assert np.allclose(ds[passed:], ds[passed - 1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("k_to, steps, N, message", [
    # k passes k_to before the last point
    (5.0505, 20, 400, "reached k_to"),
    # the step cap keeps k well short of k_to after 3 points
    (8.0, 3, 200, "emitted requested number of points"),
])
def test_branch_message_follows_the_final_k(k_to, steps, N, message):
    run = continue_branch(2, 5.05, k_to, steps, N=N)
    assert run.status == "ok" and len(run.points) == steps
    assert run.message == message
    assert (run.points[-1].k >= k_to) == (message == "reached k_to")


@pytest.mark.parametrize("k_to", [math.nan, math.inf, 5.05])
def test_branch_rejects_k_to_that_is_not_finite_or_equals_k_from(k_to):
    with pytest.raises(ValueError, match="k_to"):
        continue_branch(2, 5.05, k_to, 5, N=200)


def test_branch_single_step():
    run = continue_branch(2, 5.05, 6.0, 1, N=300)
    assert len(run.points) == 1
    assert run.points[0].amplitude > 1e-3


def test_branch_reconnects_to_constant():
    run = continue_branch(2, 5.3, 5.01, 12, N=300)
    amps = [p.amplitude for p in run.points]
    assert amps[-1] < 0.25 * amps[0]
    last = run.points[-1]
    assert np.max(np.abs(last.profile.values - math.sqrt(last.k))) < 0.05


def test_branch_even_mode_parity():
    run = continue_branch(2, 5.05, 5.3, 4, N=300)
    for p in run.points:
        u = p.profile.values
        assert np.max(np.abs(u - u[::-1])) < 1e-8


def test_branch_error_below_first_bifurcation():
    with pytest.raises(BranchError):
        continue_branch(2, 1.0, 1.5, 4, N=200)


def test_branch_points_reconverge_on_refined_grid():
    # a-posteriori check: interpolate to twice the resolution and re-solve;
    # Newton must accept the interpolant as a warm start and stay nearby
    run = continue_branch(2, 5.1, 5.4, 3, N=200, tol=1e-9)
    for p in run.points[-2:]:
        th = p.profile.grid
        fine = s4_theta_grid(2 * (th.size - 1))
        u0 = np.interp(fine, th, p.profile.values)
        refined = solve_s4(p.k, u0, tol=1e-9)
        assert refined.profile.residual_sup < 1e-8
        assert np.max(np.abs(refined.profile.values - u0)) < 1e-3


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def test_torus_flat_case_returns_mean_constant():
    th = torus_grid(256)
    run = solve_torus(0.0, 1.0 + 0.3 * np.sin(th))
    assert run.status == "solved"
    assert run.profile.residual_sup < 1e-10
    assert np.max(np.abs(run.profile.values - 1.0)) < 1e-10
    assert abs(run.obstruction) < 1e-12


def test_torus_constant_stays_fixed():
    run = solve_torus(0.0, np.full(128, 0.8))
    assert run.status == "solved"
    assert np.array_equal(run.profile.values, np.full(128, 0.8))


def test_torus_obstruction_blocks_nonzero_A():
    th = torus_grid(256)
    run = solve_torus(-1.0, 1.0 + 0.3 * np.sin(th))
    assert run.status == "obstructed"
    assert abs(run.obstruction) > 0.1
    assert all(abs(o) > 0.1 for o in run.obstruction_history)


def test_torus_laplacian_integral_telescopes():
    th = torus_grid(256)
    for A in (0.0, -1.0, 0.5):
        run = solve_torus(A, 1.2 + 0.2 * np.cos(th))
        assert run.laplacian_integral_sup < 1e-12


def test_torus_rejects_nonfinite_A():
    for A in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            solve_torus(A, np.ones(64))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_profile_serialization_round_trip(tmp_path):
    p = solve_radial_r4(2.0, 5.0, 200)
    csv = tmp_path / "p.csv"
    profile_to_csv(p, csv)
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "coordinate,value"
    assert len(rows) == p.grid.size + 1
    c0, v0 = rows[1].split(",")
    assert float(c0) == p.grid[0] and float(v0) == p.values[0]

    d = profile_to_json_dict(p)
    assert d["equation"] == "r4_bubble"
    assert d["values"][3] == p.values[3]
    json.dumps(d)  # serializable


def test_branch_jsonl(tmp_path):
    run = continue_branch(2, 5.05, 5.3, 3, N=200)
    path = tmp_path / "branch.jsonl"
    write_branch_jsonl(run.points, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"k", "amplitude", "gradient_energy", "arclength", "residual_sup", "n"}
    # writing again replaces the file
    write_branch_jsonl(run.points[:1], path)
    assert path.read_text().strip().splitlines() == lines[:1]
