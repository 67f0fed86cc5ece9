"""Radial, axisymmetric, and periodic solvers with their oracles."""

import json
import math

import numpy as np
import pytest

from biharm4.families import Bubble
from biharm4.solver import (
    BranchError,
    ConvergenceError,
    RadialProfile,
    append_branch_jsonl,
    axisym_mode,
    bifurcation_points,
    continue_branch,
    detect_bifurcation_points,
    jacobian_smallest_singular_value,
    profile_to_csv,
    profile_to_json_dict,
    recompute_residual,
    s4_axisym_residual,
    s4_theta_grid,
    solve_radial_r4,
    solve_s4,
    solve_torus,
    torus_grid,
    _bordered_solve,
    _s4_dense_jacobian,
    _s4_jacobian_banded,
    _torus_newton_step,
)


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
    assert np.allclose(r, 2.0 * c - c**3)


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


def test_bifurcation_formula():
    assert [bifurcation_points(l) for l in (1, 2, 3)] == [2.0, 5.0, 9.0]
    with pytest.raises(ValueError):
        bifurcation_points(0)


def test_bifurcation_detected_numerically():
    # numerical oracle for the formula: scan the smallest singular value
    for ell in (1, 2, 3):
        k_star = bifurcation_points(ell)
        found = detect_bifurcation_points(k_star - 0.3, k_star + 0.3, 0.05, N=400)
        assert any(abs(k - k_star) <= 0.05 for k in found), (ell, found)
    # and the singular value really dips there
    assert jacobian_smallest_singular_value(5.0) < 0.1 * jacobian_smallest_singular_value(5.5)


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
# branch continuation
# ---------------------------------------------------------------------------

def _relative_error(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


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


def test_torus_rejects_curved_case():
    with pytest.raises(ValueError):
        solve_torus(-1.0, np.ones(64), a=3.0)


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
    append_branch_jsonl(run.points, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"k", "amplitude", "gradient_energy", "arclength", "residual_sup", "n"}
    # appending extends the file
    append_branch_jsonl(run.points[:1], path)
    assert len(path.read_text().strip().splitlines()) == 4
