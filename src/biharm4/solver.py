"""Newton / continuation solvers for the reduced equation in symmetric settings.

Three problems, all on uniform grids with 2nd-order central differences:

  * radial on R^4:   v'' + (3/r) v' + 2 v^3 = 0, v(0) given, regular at 0,
                     far field closed by the decay-model Robin condition
                     v'(r_max) = -2 v(r_max)/r_max;
  * axisymmetric S^4: -u'' - 3 cot(theta) u' + k u = u^3 on [0, pi] with
                     Neumann ends (l'Hopital regularization -4u'' at the
                     poles), plus pseudo-arclength continuation in k;
  * periodic torus:  lam'' = A lam^3 on a 2*pi period, solved with a mean
                     constraint whose multiplier is exactly the integral
                     obstruction A * mean(lam^3).

Solves are deterministic: identical inputs give bit-identical profiles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import eval_gegenbauer

MAX_HALVINGS = 30


class ConvergenceError(RuntimeError):
    def __init__(self, msg, iterate=None, residual=None):
        super().__init__(msg)
        self.iterate = iterate
        self.residual = residual


class PositivityError(ConvergenceError):
    """Damping could not keep the iterate in the positive cone."""


class BranchError(RuntimeError):
    """Continuation failed at the first branch point."""


@dataclass(frozen=True)
class RadialProfile:
    """Discretized symmetric solution with its equation tag and residual."""

    grid: np.ndarray
    values: np.ndarray
    equation: str  # r4_bubble | s4_axisym | torus_1d
    params: dict
    residual_sup: float

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.grid.setflags(write=False)
        self.values.setflags(write=False)
        if self.grid.shape != self.values.shape:
            raise ValueError("grid/value shape mismatch")
        if np.any(self.values <= 0):
            raise ValueError("profile values must be positive")


@dataclass(frozen=True)
class BranchPoint:
    """One continuation point: potential k, profile, and branch diagnostics."""

    k: float
    profile: RadialProfile
    arclength: float
    amplitude: float
    gradient_energy: float


@dataclass
class BranchRun:
    points: list
    status: str
    message: str = ""


@dataclass
class TorusRun:
    profile: RadialProfile
    status: str  # solved | obstructed | diverged
    obstruction: float
    obstruction_history: list
    laplacian_integral_sup: float
    newton_iterations: int


def _newton(residual: Callable, jac_solve: Callable, z0: np.ndarray, tol: float,
            max_iter: int, n_positive: Optional[int] = None,
            monitor: Optional[Callable] = None):
    """Newton iteration with a halving line search on the max-norm residual.

    Steps that would make one of the first `n_positive` unknowns (all of
    them by default) non-positive are damped, never clipped.  `monitor`
    sees every iterate whose residual is tested.  Returns the iterate, its
    residual norm, the number of steps and the norm history.
    """
    z = np.array(z0, dtype=float)
    F = residual(z)
    history = []
    for it in range(max_iter + 1):
        nrm = float(np.max(np.abs(F)))
        history.append(nrm)
        if monitor is not None:
            monitor(z)
        if nrm < tol:
            return z, nrm, it, history
        if it == max_iter:
            raise ConvergenceError(f"no convergence after {max_iter} iterations (residual {nrm:.3e})",
                                   iterate=z, residual=nrm)
        try:
            step = jac_solve(z, -F)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}", iterate=z, residual=nrm) from exc
        t = 1.0
        for _ in range(MAX_HALVINGS):
            zn = z + t * step
            if np.all(zn[:n_positive] > 0.0):
                Fn = residual(zn)
                if float(np.max(np.abs(Fn))) < nrm:
                    break
            t *= 0.5
        else:
            if np.any((z + t * step)[:n_positive] <= 0.0):
                raise PositivityError("step left the positive cone after damping",
                                      iterate=z, residual=nrm)
            raise ConvergenceError(f"line search stalled at residual {nrm:.3e}",
                                   iterate=z, residual=nrm)
        z, F = zn, Fn


def _bordered_solve(ab: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
                    f: np.ndarray, g: np.ndarray):
    """Solve [J B; C D] [x; y] = [f; g] for tridiagonal J, given in banded
    (1, 1) form `ab`, by block elimination (Keller's bordering algorithm):
    one banded solve with len(y) + 1 right-hand sides, then the small
    Schur system (D - C J^-1 B) y = g - C J^-1 f."""
    X = solve_banded((1, 1), ab, np.column_stack([B, f]))
    y = np.linalg.solve(D - C @ X[:, :-1], g - C @ X[:, -1])
    return X[:, -1] - X[:, :-1] @ y, y


# ---------------------------------------------------------------------------
# radial solver on R^4
# ---------------------------------------------------------------------------

def _radial_system(v_center: float, r: np.ndarray, dr: float):
    N = r.size - 1

    def residual(v):
        F = np.empty(N + 1)
        F[0] = v[0] - v_center
        # r = 0: l'Hopital turns the operator into 4 v'' (1 + 3 from the
        # angular term); the symmetric ghost gives v'' ~ 2(v1 - v0)/dr^2
        F[1] = 8.0 * (v[1] - v[0]) / dr**2 + 2.0 * v[0] ** 3
        i = np.arange(1, N - 1)
        F[2:N] = ((v[i + 1] - 2.0 * v[i] + v[i - 1]) / dr**2
                  + (3.0 / r[i]) * (v[i + 1] - v[i - 1]) / (2.0 * dr)
                  + 2.0 * v[i] ** 3)
        # decay-model Robin at r_max (one-sided 2nd order); this row closes
        # the last node -- the PDE row at i = N-1 is intentionally absent,
        # since the origin rows already carry the Cauchy data
        F[N] = (3.0 * v[N] - 4.0 * v[N - 1] + v[N - 2]) / (2.0 * dr) + 2.0 * v[N] / r[N]
        return F

    def jac_solve(v, rhs):
        # lower-banded (l=2, u=0) Jacobian
        ab = np.zeros((3, N + 1))
        ab[0, 0] = 1.0
        ab[1, 0] = -8.0 / dr**2 + 6.0 * v[0] ** 2   # row 1, col 0
        ab[0, 1] = 8.0 / dr**2                      # row 1, col 1
        i = np.arange(1, N - 1)
        ab[2, i - 1] = 1.0 / dr**2 - 3.0 / (2.0 * dr * r[i])   # row i+1, col i-1
        ab[1, i] = -2.0 / dr**2 + 6.0 * v[i] ** 2              # row i+1, col i
        ab[0, i + 1] = 1.0 / dr**2 + 3.0 / (2.0 * dr * r[i])   # row i+1, col i+1
        ab[2, N - 2] = 1.0 / (2.0 * dr)
        ab[1, N - 1] = -2.0 / dr
        ab[0, N] = 3.0 / (2.0 * dr) + 2.0 / r[N]
        return solve_banded((2, 0), ab, rhs)

    return residual, jac_solve


def solve_radial_r4(v_center: float, r_max: float = 10.0, N: int = 1000,
                    tol: float = 1e-10, max_iter: int = 50,
                    init: Optional[np.ndarray] = None) -> RadialProfile:
    """Positive decaying solution of v'' + (3/r)v' + 2v^3 = 0 with v(0) = v_center.

    The solution is the width-(2/v_center) member of the decaying family;
    the returned profile converges to it at 2nd order in r_max/N, with sup
    error ~ 0.47 * (v_center/2)^3 * (r_max/N)^2 (4.67e-5 at v_center = 2,
    r_max = 10, N = 1000; below 1e-6 from N ~ 8000).
    """
    if not (0.0 < v_center < math.inf and 0.0 < r_max < math.inf):
        raise ValueError("v_center and r_max must be positive and finite")
    if N < 100:
        raise ValueError("N must be at least 100")
    r = np.linspace(0.0, r_max, N + 1)
    dr = r[1] - r[0]
    residual, jac_solve = _radial_system(v_center, r, dr)
    v0 = init if init is not None else v_center / (1.0 + r**2 / 3.0)
    v, nrm, _, _ = _newton(residual, jac_solve, v0, tol, max_iter)
    return RadialProfile(r, v, "r4_bubble",
                         {"v_center": v_center, "r_max": r_max, "N": N, "tol": tol},
                         nrm)


# ---------------------------------------------------------------------------
# axisymmetric S^4
# ---------------------------------------------------------------------------

def s4_theta_grid(N: int) -> np.ndarray:
    return np.linspace(0.0, math.pi, N + 1)


def s4_axisym_residual(u: np.ndarray, k: float) -> np.ndarray:
    """Pointwise residual -u'' - 3 cot(theta) u' + k u - u^3 on [0, pi].

    At the poles the singular term is replaced by its limit, giving
    -4u'' + k u - u^3 (Neumann symmetry is built into the end stencils).
    """
    u = np.asarray(u, dtype=float)
    N = u.size - 1
    th = s4_theta_grid(N)
    dth = th[1] - th[0]
    F = np.empty(N + 1)
    F[0] = -4.0 * (2.0 * u[1] - 2.0 * u[0]) / dth**2 + k * u[0] - u[0] ** 3
    i = np.arange(1, N)
    cot = np.cos(th[i]) / np.sin(th[i])
    F[1:N] = (-(u[i + 1] - 2.0 * u[i] + u[i - 1]) / dth**2
              - 3.0 * cot * (u[i + 1] - u[i - 1]) / (2.0 * dth)
              + k * u[i] - u[i] ** 3)
    F[N] = -4.0 * (2.0 * u[N - 1] - 2.0 * u[N]) / dth**2 + k * u[N] - u[N] ** 3
    return F


def _s4_jacobian_banded(u: np.ndarray, k: float) -> np.ndarray:
    N = u.size - 1
    th = s4_theta_grid(N)
    dth = th[1] - th[0]
    ab = np.zeros((3, N + 1))
    ab[1, 0] = 8.0 / dth**2 + k - 3.0 * u[0] ** 2
    ab[0, 1] = -8.0 / dth**2
    i = np.arange(1, N)
    cot = np.cos(th[i]) / np.sin(th[i])
    ab[0, i + 1] = -1.0 / dth**2 - 3.0 * cot / (2.0 * dth)
    ab[1, i] = 2.0 / dth**2 + k - 3.0 * u[i] ** 2
    ab[2, i - 1] = -1.0 / dth**2 + 3.0 * cot / (2.0 * dth)
    ab[2, N - 1] = -8.0 / dth**2
    ab[1, N] = 8.0 / dth**2 + k - 3.0 * u[N] ** 2
    return ab


def _s4_dense_jacobian(u: np.ndarray, k: float) -> np.ndarray:
    ab = _s4_jacobian_banded(u, k)
    N = u.size - 1
    J = np.zeros((N + 1, N + 1))
    idx = np.arange(N + 1)
    J[idx, idx] = ab[1, idx]
    J[idx[:-1], idx[:-1] + 1] = ab[0, 1:]
    J[idx[1:], idx[1:] - 1] = ab[2, :-1]
    return J


def axisym_mode(ell: int, theta: np.ndarray) -> np.ndarray:
    """Axisymmetric eigenfunction of -Delta on S^4 (eigenvalue ell(ell+3)),
    normalized to unit sup norm."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    m = eval_gegenbauer(ell, 1.5, np.cos(theta))
    return m / np.max(np.abs(m))


def bifurcation_points(ell: int) -> float:
    """k at which the constant branch u = sqrt(k) degenerates: linearizing
    gives -Delta w = 2k w, so 2k must hit the eigenvalue ell(ell+3)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return ell * (ell + 3) / 2.0


def jacobian_smallest_singular_value(k: float, N: int = 400) -> float:
    u = np.full(N + 1, math.sqrt(k))
    J = _s4_dense_jacobian(u, k)
    return float(np.linalg.svd(J, compute_uv=False)[-1])


def detect_bifurcation_points(k_min: float = 1.5, k_max: float = 9.6,
                              dk: float = 0.05, N: int = 400) -> list[float]:
    """k values where the constant-branch Jacobian's smallest singular value
    has a local minimum over the scan grid."""
    ks = np.arange(k_min, k_max + dk / 2, dk)
    sv = np.array([jacobian_smallest_singular_value(k, N) for k in ks])
    out = []
    for i in range(1, ks.size - 1):
        if sv[i] < sv[i - 1] and sv[i] < sv[i + 1]:
            out.append(float(ks[i]))
    return out


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _gradient_energy(th: np.ndarray, u: np.ndarray) -> float:
    """integral over S^4 of |grad u|^2 = 2 pi^2 * int u'(theta)^2 sin^3 theta."""
    du = np.gradient(u, th)
    return 2.0 * math.pi**2 * float(_trapezoid(du**2 * np.sin(th) ** 3, th))


def _make_branch_point(k: float, u: np.ndarray, res: float, tol: float,
                       arclength: float) -> BranchPoint:
    N = u.size - 1
    th = s4_theta_grid(N)
    profile = RadialProfile(th, u, "s4_axisym", {"k": k, "N": N, "tol": tol}, res)
    return BranchPoint(k, profile, arclength, float(np.max(u) - np.min(u)),
                       _gradient_energy(th, u))


def solve_s4(k: float, init: np.ndarray, tol: float = 1e-9,
             max_iter: int = 50) -> BranchPoint:
    """Newton solution of the axisymmetric equation at fixed k.

    From the constant initialization this returns the constant branch
    u = sqrt(k) (that iterate is an exact discrete solution).
    """
    if not 0.0 < k < math.inf:
        raise ValueError("the potential k must be positive and finite")
    u0 = np.asarray(init, dtype=float)
    if u0.size < 3:
        raise ValueError("the S^4 grid needs N >= 2 intervals")
    if np.any(u0 <= 0):
        raise ValueError("initial profile must be positive")

    def jac_solve(u, rhs):
        return solve_banded((1, 1), _s4_jacobian_banded(u, k), rhs)

    u, nrm, _, _ = _newton(lambda u: s4_axisym_residual(u, k), jac_solve, u0, tol, max_iter)
    return _make_branch_point(k, u, nrm, tol, 0.0)


def _bordered_corrector(u_pred: np.ndarray, k_pred: float,
                        tangent_u: np.ndarray, tangent_k: float,
                        tol: float, max_iter: int = 25):
    """Newton on the system [axisym residual; arclength plane] in z = (u, k).

    The Jacobian is the banded S^4 Jacobian bordered by the dF/dk = u
    column and the arclength row, so each step is one bordered solve."""
    n = u_pred.size
    wu = 1.0 / n  # mesh-independent inner product weight on the u block

    def residual(z):
        c = wu * float(tangent_u @ (z[:n] - u_pred)) + tangent_k * (z[n] - k_pred)
        return np.append(s4_axisym_residual(z[:n], z[n]), c)

    def jac_solve(z, rhs):
        du, dk = _bordered_solve(_s4_jacobian_banded(z[:n], z[n]), z[:n, None], wu * tangent_u[None, :],
                                 np.array([[tangent_k]]), rhs[:n], rhs[n:])
        return np.append(du, dk)

    z, _, it, _ = _newton(residual, jac_solve, np.append(u_pred, k_pred), tol, max_iter,
                          n_positive=n)
    u, k = z[:n], float(z[n])
    return u, k, float(np.max(np.abs(s4_axisym_residual(u, k)))), it


def continue_branch(ell: int, k_from: float, k_to: float, steps: int,
                    N: int = 400, tol: float = 1e-9,
                    k_window: tuple = (2.0, 12.0)) -> BranchRun:
    """Pseudo-arclength continuation of the nonconstant branch seeded from
    the ell-th axisymmetric mode near its bifurcation point.

    Emits up to `steps` branch points between k_from and k_to; the secant
    predictor adapts its step (x0.5 on failure, x1.3 on fast convergence)
    and the run stops with a status when k leaves the window or the
    corrector stalls.
    """
    if steps < 1 or not 0.0 < k_from < math.inf:
        raise ValueError("steps must be >= 1 and k_from positive and finite")
    th = s4_theta_grid(N)
    mode = axisym_mode(ell, th)
    direction = 1.0 if k_to >= k_from else -1.0

    # first point: try both signs and a few magnitudes of the mode seed
    base = min(max(1.2 * abs(k_from - bifurcation_points(ell)), 0.03), 0.5)
    first = None
    for amp in (-base, base, -2 * base, 2 * base, -4 * base, 4 * base):
        seed = np.sqrt(k_from) + amp * mode
        if np.any(seed <= 0):
            continue
        try:
            cand = solve_s4(k_from, seed, tol=tol)
        except ConvergenceError:
            continue
        if cand.amplitude > 1e-3:
            first = cand
            break
    if first is None:
        raise BranchError(f"no nonconstant solution found at k = {k_from} (ell = {ell})")

    points = [first]
    u_prev, k_prev = first.profile.values.copy(), first.k
    if steps == 1:
        return BranchRun(points, "ok", "single point requested")

    # second point by a natural step; a large step can fall back to the
    # constant branch, so cap it and halve on loss
    dk = direction * min(abs(k_to - k_from) / steps, 0.05)
    second = None
    for _ in range(5):
        try:
            cand = solve_s4(k_prev + dk, u_prev, tol=tol)
        except ConvergenceError:
            cand = None
        if cand is not None and cand.amplitude > 1e-4:
            second = cand
            break
        dk *= 0.5
    if second is None:
        return BranchRun(points, "lost_branch", "natural step kept falling to the constant branch")
    arclength = abs(dk)
    points.append(_make_branch_point(second.k, second.profile.values, second.profile.residual_sup,
                                     tol, arclength))
    u_cur, k_cur = second.profile.values.copy(), second.k

    wu = 1.0 / (N + 1)
    h = math.hypot(math.sqrt(wu * float((u_cur - u_prev) @ (u_cur - u_prev))), abs(k_cur - k_prev))
    h_max = 10.0 * h
    while len(points) < steps:
        du = u_cur - u_prev
        dkk = k_cur - k_prev
        norm = math.hypot(math.sqrt(wu * float(du @ du)), abs(dkk))
        tu, tk = du / norm, dkk / norm
        # spread the remaining k distance over the remaining points so the
        # run lands near k_to with the requested point count
        remaining = direction * (k_to - k_cur)
        if remaining > 0 and abs(tk) > 1e-12:
            h = min(h, max(remaining / ((steps - len(points)) * abs(tk)), 1e-4))
        advanced = False
        while not advanced:
            u_pred = u_cur + h * tu
            k_pred = k_cur + h * tk
            try:
                u_new, k_new, res, iters = _bordered_corrector(u_pred, k_pred, tu, tk, tol)
                advanced = True
            except ConvergenceError as exc:
                h *= 0.5
                if h < 1e-4:
                    return BranchRun(points, "stalled", f"continuation step collapsed: {exc}")
        if not (k_window[0] <= k_new <= k_window[1]):
            return BranchRun(points, "window", f"k = {k_new:.4f} left the window {k_window}")
        arclength += h
        points.append(_make_branch_point(k_new, u_new, res, tol, arclength))
        u_prev, k_prev = u_cur, k_cur
        u_cur, k_cur = u_new, k_new
        if iters <= 4:
            h = min(1.3 * h, h_max)
        elif iters >= 10:
            h *= 0.7
        if direction * (k_cur - k_to) >= 0 and len(points) >= steps:
            return BranchRun(points, "ok", "reached k_to")
    return BranchRun(points, "ok", "emitted requested number of points")


# ---------------------------------------------------------------------------
# periodic torus reduction
# ---------------------------------------------------------------------------

def torus_grid(N: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * math.pi, N, endpoint=False)


def torus_equation_residual(lam: np.ndarray, A: float) -> np.ndarray:
    """True-equation residual lam'' - A lam^3 on the periodic grid."""
    lam = np.asarray(lam, dtype=float)
    N = lam.size
    dth = 2.0 * math.pi / N
    second = (np.roll(lam, -1) - 2.0 * lam + np.roll(lam, 1)) / dth**2
    return second - A * lam**3


def _torus_newton_step(A: float, z: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Newton step of the mean-constrained torus system in z = (lam, nu).

    The cyclic block is singular at A = 0 (constants), so the bordered solve
    eliminates the non-cyclic tridiagonal block, with the nu column and the
    two cyclic corners (auxiliary unknowns lam[N-1], lam[0]) as borders."""
    N = z.size - 1
    c = 1.0 / (2.0 * math.pi / N) ** 2
    ab = np.full((3, N), c)
    ab[1] = -2.0 * c - 3.0 * A * z[:N] ** 2
    B = np.zeros((N, 3))
    B[:, 0], B[0, 1], B[N - 1, 2] = 1.0, c, c
    C = np.zeros((3, N))
    C[0], C[1, N - 1], C[2, 0] = 1.0 / N, -1.0, -1.0
    dlam, y = _bordered_solve(ab, B, C, np.diag([0.0, 1.0, 1.0]), rhs[:N],
                              np.array([rhs[N], 0.0, 0.0]))
    return np.append(dlam, y[0])


def solve_torus(A: float, init: np.ndarray, a: float = 0.0,
                tol: float = 1e-10, max_iter: int = 60,
                obstruction_tol: float = 1e-8) -> TorusRun:
    """Mean-constrained Newton for lam'' = A lam^3, period 2 pi.

    The period integral of lam'' vanishes identically, so a solution needs
    A * integral(lam^3) = 0; the mean constraint makes the system square and
    its multiplier nu equals A * mean(lam^3) at convergence -- the exact
    obstruction.  A = 0 converges to the mean of the initial profile; any
    A != 0 with positive data converges only in the constrained sense and is
    reported 'obstructed'.
    """
    if a != 0.0:
        raise ValueError("the periodic reduction is stated for the Ricci-flat case a = 0")
    lam = np.asarray(init, dtype=float)
    N = lam.size
    if N < 3:
        raise ValueError("the periodic grid needs at least 3 points")
    if np.any(lam <= 0):
        raise ValueError("initial profile must be positive")
    dth = 2.0 * math.pi / N
    m0 = float(np.mean(lam))
    laplacian_integrals, obstruction_history = [], []

    def record(z):  # the A = 0 equation residual is lam''
        laplacian_integrals.append(abs(float(np.sum(torus_equation_residual(z[:N], 0.0)))) * dth)
        obstruction_history.append(A * float(np.sum(z[:N] ** 3)) * dth)

    def residual(z):
        return np.append(torus_equation_residual(z[:N], A) + z[N], np.mean(z[:N]) - m0)

    try:
        z, _, iters_used, _ = _newton(residual, lambda z, rhs: _torus_newton_step(A, z, rhs),
                                      np.append(lam, 0.0), tol, max_iter, n_positive=N,
                                      monitor=record)
        status = "converged"
    except ConvergenceError as exc:
        z, status, iters_used = exc.iterate, "diverged", max_iter
    lam = z[:N]

    true_res = torus_equation_residual(lam, A)
    profile = RadialProfile(torus_grid(N), lam, "torus_1d",
                            {"a": a, "A": A, "N": N, "tol": tol, "mean": m0},
                            float(np.max(np.abs(true_res))))
    obstruction = A * float(np.sum(lam**3)) * dth
    if status == "converged":
        status = "solved" if abs(obstruction) < obstruction_tol else "obstructed"
    return TorusRun(profile, status, obstruction, obstruction_history, max(laplacian_integrals),
                    iters_used)


# ---------------------------------------------------------------------------
# residual recomputation and serialization
# ---------------------------------------------------------------------------

def recompute_residual(profile: RadialProfile) -> float:
    """Re-evaluate the defining system on the stored values (invariant check)."""
    if profile.equation == "r4_bubble":
        r = profile.grid
        residual, _ = _radial_system(profile.params["v_center"], r, r[1] - r[0])
        return float(np.max(np.abs(residual(profile.values))))
    if profile.equation == "s4_axisym":
        return float(np.max(np.abs(s4_axisym_residual(profile.values, profile.params["k"]))))
    if profile.equation == "torus_1d":
        return float(np.max(np.abs(torus_equation_residual(profile.values, profile.params["A"]))))
    raise ValueError(f"unknown equation tag {profile.equation!r}")


def profile_to_csv(profile: RadialProfile, path) -> None:
    lines = ["coordinate,value"]
    lines += [f"{repr(float(c))},{repr(float(v))}" for c, v in zip(profile.grid, profile.values)]
    Path(path).write_text("\n".join(lines) + "\n")


def profile_to_json_dict(profile: RadialProfile) -> dict:
    return {
        "equation": profile.equation,
        "params": profile.params,
        "residual_sup": profile.residual_sup,
        "grid": [float(c) for c in profile.grid],
        "values": [float(v) for v in profile.values],
    }


def branch_point_summary(point: BranchPoint) -> dict:
    return {
        "k": point.k,
        "amplitude": point.amplitude,
        "gradient_energy": point.gradient_energy,
        "arclength": point.arclength,
        "residual_sup": point.profile.residual_sup,
        "n": int(point.profile.values.size),
    }


def append_branch_jsonl(points: Sequence[BranchPoint], path) -> None:
    with open(path, "a") as fh:
        for p in points:
            fh.write(json.dumps(branch_point_summary(p), sort_keys=True) + "\n")
