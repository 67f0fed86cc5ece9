"""Newton / continuation solvers for the reduced equation in symmetric settings.

Three problems on uniform grids, each with one 2nd-order central stencil:

  * radial on R^4:   v'' + (3/r) v' + 2 v^3 = 0, v(0) given, regular at 0,
                     far field closed by the decay-model Robin condition
                     v'(r_max) = -2 v(r_max)/r_max;
  * axisymmetric S^4: -u'' - 3 cot(theta) u' + k u = u^3 on [0, pi] with
                     Neumann ends (l'Hopital regularization -4u'' at the
                     poles), plus pseudo-arclength continuation in k;
  * periodic torus:  lam'' = A lam^3 on a 2*pi period, solved with a mean
                     constraint whose multiplier is exactly the integral
                     obstruction A * mean(lam^3).

Each Newton step is one linear solve matched to its band structure: the
lower-triangular radial Jacobian is one LAPACK tbtrs forward substitution,
the tridiagonal S^4 and torus blocks go straight to LAPACK gtsv; the
bifurcation scan is one LAPACK gttrf per k.  A grid's constant arrays are
built once and a step rewrites only the u-dependent diagonal.

Solves are deterministic: identical inputs give bit-identical profiles.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

MAX_HALVINGS = 30


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers `scipy/linalg/_flapack<suffix>`, the
    routines `scipy.linalg.lapack` re-exports, loaded from their file on the
    first LAPACK call.  Importing `scipy.linalg` would run its package
    `__init__`, which pulls in numpy.f2py and numpy.testing, takes longer
    than numpy's own import and adds about 17 MB; this one extension needs
    only numpy.  Callers look each routine up per call."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy's LAPACK module not found: scipy is not on sys.path")
    linalg = Path(spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg / ("_flapack" + suffix)
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", str(path))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK module not found: searched {linalg} for _flapack with suffixes "
                      f"{importlib.machinery.EXTENSION_SUFFIXES}")


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


@np.errstate(all="ignore")  # an overflowing residual shows as a non-finite norm
def _newton(residual: Callable, jac_solve: Callable, z0: np.ndarray, tol: float,
            max_iter: int, n_positive: Optional[int] = None,
            monitor: Optional[Callable] = None):
    """Newton iteration with a halving line search on the max-norm residual.

    Steps that would make one of the first `n_positive` unknowns (all of
    them by default) non-positive are damped, never clipped.  `monitor`
    sees every iterate whose residual is tested.  Returns the iterate, its
    residual norm, the number of steps and its residual vector.  A non-finite
    residual fails the solve; a trial step is halved until its residual is finite.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    z = np.array(z0, dtype=float)
    F = residual(z)
    for it in range(max_iter + 1):
        nrm = float(np.max(np.abs(F)))
        if monitor is not None:
            monitor(z)
        if not math.isfinite(nrm):
            raise ConvergenceError("residual is not finite", iterate=z, residual=nrm)
        if nrm < tol:
            return z, nrm, it, F
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


def solve_banded(l_and_u, ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for A in scipy.linalg.solve_banded's band storage.

    Only the two band shapes the solvers build are accepted: tridiagonal
    (1, 1) goes straight to LAPACK gtsv, and lower-triangular (l, 0) is one
    tbtrs forward substitution, which needs no pivoting.  A zero pivot
    raises LinAlgError; non-finite input and other shapes raise ValueError.
    """
    l, u = l_and_u
    ab, b = np.asarray(ab, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if (l, u) == (1, 1) and ab.shape[0] == 3:
        *_, x, info = _lapack().dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    elif u == 0 and ab.shape[0] == l + 1:
        x, info = _lapack().dtbtrs(ab, b, uplo="L")
    else:
        raise ValueError(f"unsupported band shape (l, u) = ({l}, {u}) for {ab.shape[0]} stored rows")
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot in row {info}")
    return x


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
    # the PDE row of node i = 0 .. N-2 sits in F[i + 1], in difference form
    # lo_i (v_{i-1} - v_i) + up_i (v_{i+1} - v_i) + 2 v_i^3.  At r = 0
    # l'Hopital turns the operator into 4 v'' (1 + 3 from the angular term);
    # the symmetric ghost gives v'' ~ 2(v1 - v0)/dr^2, so lo_0 = 0, up_0 = 8/dr^2
    drift = 3.0 / (2.0 * dr * r[1:N - 1])
    lo = np.append(0.0, 1.0 / dr**2 - drift)
    up = np.append(8.0 / dr**2, 1.0 / dr**2 + drift)
    dv = np.zeros(N)  # dv[i] = v_i - v_{i-1}; dv[0] stays 0
    # lower-banded (l=2, u=0) Jacobian: the row of node i is row i + 1;
    # only the PDE rows' diagonal depends on v
    ab = np.zeros((3, N + 1))
    ab[0, 0] = 1.0
    ab[0, 1:N] = up
    ab[2, :N - 2] = lo[1:]
    ab[2, N - 2] = 1.0 / (2.0 * dr)
    ab[1, N - 1] = -2.0 / dr
    ab[0, N] = 3.0 / (2.0 * dr) + 2.0 / r[N]

    def residual(v):
        np.subtract(v[1:N], v[:N - 1], out=dv[1:])
        F = np.empty(N + 1)
        F[0] = v[0] - v_center
        F[1:N] = up * dv[1:] - lo * dv[:-1] + 2.0 * v[:N - 1] ** 3
        # decay-model Robin at r_max (one-sided 2nd order); this row closes
        # the last node -- the PDE row at i = N-1 is intentionally absent,
        # since the origin rows already carry the Cauchy data
        F[N] = (3.0 * v[N] - 4.0 * v[N - 1] + v[N - 2]) / (2.0 * dr) + 2.0 * v[N] / r[N]
        return F

    def jac_solve(v, rhs):
        ab[1, :N - 1] = 6.0 * v[:N - 1] ** 2 - (lo + up)
        return solve_banded((2, 0), ab, rhs)

    return residual, jac_solve


def solve_radial_r4(v_center: float, r_max: float = 10.0, N: int = 1000,
                    tol: float = 1e-10, max_iter: int = 50) -> RadialProfile:
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
    v0 = v_center / (1.0 + r**2 / 3.0)
    v, nrm, _, _ = _newton(residual, jac_solve, v0, tol, max_iter)
    return RadialProfile(r, v, "r4_bubble",
                         {"v_center": v_center, "r_max": r_max, "N": N, "tol": tol},
                         nrm)


# ---------------------------------------------------------------------------
# axisymmetric S^4
# ---------------------------------------------------------------------------

def s4_theta_grid(N: int) -> np.ndarray:
    return np.linspace(0.0, math.pi, N + 1)


class _S4Grid(NamedTuple):
    """The read-only arrays of the N-interval theta grid that no solve changes."""

    theta: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    band: np.ndarray      # D in banded (1, 1) form
    dtheta: np.ndarray    # diff(theta)
    sin3: np.ndarray      # sin(theta)^3
    weights: Optional[np.ndarray]  # np.gradient's 3-point weights; None on uniform spacing


@functools.lru_cache(maxsize=16)
def _s4_operator(N: int) -> _S4Grid:
    """The operator -u'' - 3 cot(theta) u' on the N-interval theta grid, in
    difference form (D u)_i = lo_i (u_{i-1} - u_i) + up_i (u_{i+1} - u_i).

    The pole rows hold the l'Hopital limit -4u'' with the Neumann ghost
    u_{-1} = u_1, so lo_0 = up_N = 0.  Every row sums to zero, so D
    annihilates constants exactly.  The record adds the grid's Jacobian
    band and gradient-energy weights."""
    th = s4_theta_grid(N)
    dth = th[1] - th[0]
    drift = 3.0 * (np.cos(th[1:N]) / np.sin(th[1:N])) / (2.0 * dth)
    lo = np.concatenate([[0.0], -1.0 / dth**2 + drift, [-8.0 / dth**2]])
    up = np.concatenate([[-8.0 / dth**2], -1.0 / dth**2 - drift, [0.0]])
    band = np.array([np.roll(up, 1), -(lo + up), np.roll(lo, -1)])
    d = np.diff(th)
    weights = None
    if not (d == d[0]).all():  # the coordinate-array weights of np.gradient
        d1, d2 = d[:-1], d[1:]
        weights = np.array([-d2 / (d1 * (d1 + d2)), (d2 - d1) / (d1 * d2), d1 / (d2 * (d1 + d2))])
    grid = _S4Grid(th, lo, up, band, d, np.sin(th) ** 3, weights)
    for arr in grid:
        if arr is not None:
            arr.setflags(write=False)
    return grid


def s4_axisym_residual(u: np.ndarray, k: float) -> np.ndarray:
    """Pointwise residual -u'' - 3 cot(theta) u' + k u - u^3 on [0, pi].

    At the poles the singular term is replaced by its limit, giving
    -4u'' + k u - u^3 (Neumann symmetry is built into the end stencils).
    """
    u = np.asarray(u, dtype=float)
    g = _s4_operator(u.size - 1)
    du = np.zeros(u.size + 1)  # du[i] = u_i - u_{i-1}, zero at the Neumann ends
    np.subtract(u[1:], u[:-1], out=du[1:-1])
    return g.up * du[1:] - g.lo * du[:-1] + k * u - u**3


def _s4_jacobian_banded(u: np.ndarray, k: float) -> np.ndarray:
    """The S^4 Jacobian D + (k - 3u^2) I in banded (1, 1) form."""
    ab = _s4_operator(u.size - 1).band.copy()
    ab[1] += k - 3.0 * u**2  # IEEE addition commutes: the same bits as (k - 3u^2) + band[1]
    return ab


def _mode_index(ell) -> int:
    try:
        ell = operator.index(ell)
    except TypeError:
        raise ValueError(f"ell must be an integer, got {ell!r}") from None
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return ell


def axisym_mode(ell: int, theta: np.ndarray) -> np.ndarray:
    """Axisymmetric eigenfunction of -Delta on S^4 (eigenvalue ell(ell+3)),
    normalized to unit sup norm: the Gegenbauer polynomial
    C^{3/2}_ell(cos theta) = P'_{ell+1}(cos theta)."""
    ell = _mode_index(ell)
    legendre = np.polynomial.legendre
    m = legendre.legval(np.cos(theta), legendre.legder(np.eye(ell + 2)[ell + 1]))
    return m / np.max(np.abs(m))


def bifurcation_points(ell: int) -> float:
    """k at which the constant branch u = sqrt(k) degenerates: linearizing
    gives -Delta w = 2k w, so 2k must hit the eigenvalue ell(ell+3)."""
    ell = _mode_index(ell)
    return ell * (ell + 3) / 2.0


def _det_is_negative(band: np.ndarray, k: float) -> bool:
    """Whether det(D - 2kI) < 0 for the tridiagonal D in banded (1, 1) form.

    One LAPACK gttrf pivoted LU gives det = prod U_ii * (-1)^(row swaps);
    a zero pivot counts as positive."""
    _, d, _, _, ipiv, _ = _lapack().dgttrf(band[2, :-1], band[1] - 2.0 * k, band[0, 1:],
                                           overwrite_d=1)
    # ipiv[i] is i + 1 (1-based, no swap) or i + 2 (rows i, i + 1 swapped)
    swaps = int(ipiv.sum()) - ipiv.size * (ipiv.size + 1) // 2
    return (np.count_nonzero(d < 0.0) + swaps) % 2 == 1


def detect_bifurcation_points(k_min: float = 1.5, k_max: float = 9.6,
                              dk: float = 0.05, N: int = 400) -> list[float]:
    """Every discrete bifurcation point of the constant branch in [k_min, k_max].

    On the N-interval grid the constant-branch Jacobian is J(k) = D - 2kI,
    with D the k-independent tridiagonal operator `_s4_operator`, so J(k)
    is singular exactly at half an eigenvalue of D.  The sign of det J(k),
    from one pivoted LU, is taken on a grid of spacing at most dk that spans
    the window; each sign change brackets one such k, which bisection refines
    to a few units in the last place.  The points sit O(dtheta^2) below
    k_ell = ell(ell+3)/2; at N = 400 the offsets are -1.8e-5, -1.6e-4 and
    -6.2e-4 for ell = 1, 2, 3.  D annihilates constants, so a window
    containing k = 0 returns it too, to roundoff.
    Two eigenvalues of D closer than dk can cancel in the sign and be missed.
    """
    if not (math.isfinite(dk) and dk > 0.0):
        raise ValueError(f"dk must be finite and positive, got {dk}")
    if not (math.isfinite(k_min) and math.isfinite(k_max) and k_min <= k_max):
        raise ValueError(f"need finite k_min <= k_max, got [{k_min}, {k_max}]")
    if N < 2:
        raise ValueError("the S^4 grid needs N >= 2 intervals")
    band = _s4_operator(N).band
    ks = np.linspace(k_min, k_max, max(1, math.ceil((k_max - k_min) / dk)) + 1).tolist()
    neg = [_det_is_negative(band, k) for k in ks]
    points = []
    for i in np.flatnonzero(np.diff(neg)):  # diff of bools is not_equal: the sign changes
        lo, hi = ks[i], ks[i + 1]
        while hi - lo > 64.0 * math.ulp(max(abs(lo), abs(hi))):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _det_is_negative(band, mid) == neg[i] else (lo, mid)
        points.append(0.5 * (lo + hi))
    return points


def _gradient_energy(u: np.ndarray) -> float:
    """integral over S^4 of |grad u|^2 = 2 pi^2 * int u'(theta)^2 sin^3 theta,
    with u' as np.gradient(u, theta) and the integral as np.trapezoid give them."""
    g = _s4_operator(u.size - 1)
    du = np.empty(u.size)
    if g.weights is None:
        du[1:-1] = (u[2:] - u[:-2]) / (2.0 * g.dtheta[0])
    else:
        du[1:-1] = g.weights[0] * u[:-2] + g.weights[1] * u[1:-1] + g.weights[2] * u[2:]
    du[0] = (u[1] - u[0]) / g.dtheta[0]
    du[-1] = (u[-1] - u[-2]) / g.dtheta[-1]
    y = du**2 * g.sin3
    return 2.0 * math.pi**2 * float((g.dtheta * (y[1:] + y[:-1]) / 2.0).sum())


def _make_branch_point(k: float, u: np.ndarray, res: float, tol: float,
                       arclength: float) -> BranchPoint:
    N = u.size - 1
    profile = RadialProfile(_s4_operator(N).theta, u, "s4_axisym", {"k": k, "N": N, "tol": tol}, res)
    return BranchPoint(k, profile, arclength, float(np.max(u) - np.min(u)), _gradient_energy(u))


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

    The Jacobian is the banded S^4 Jacobian J bordered by the dF/dk = u column
    and the arclength row c, so each step is `_bordered_solve` inline: one banded
    solve J^-1 [u, f], then dk = (g - c J^-1 f) / (tangent_k - c J^-1 u)."""
    n = u_pred.size
    wu = 1.0 / n  # mesh-independent inner product weight on the u block
    c = wu * tangent_u
    cols = np.empty((n, 2), order="F")

    def residual(z):
        F = np.empty(n + 1)
        F[:n] = s4_axisym_residual(z[:n], z[n])
        F[n] = wu * float(tangent_u @ (z[:n] - u_pred)) + tangent_k * (z[n] - k_pred)
        return F

    def jac_solve(z, rhs):
        cols[:, 0], cols[:, 1] = z[:n], rhs[:n]
        x_u, x_f = solve_banded((1, 1), _s4_jacobian_banded(z[:n], z[n]), cols).T
        schur = tangent_k - c @ x_u
        if schur == 0.0:
            raise np.linalg.LinAlgError("singular bordered system: zero Schur complement")
        dk = (rhs[n] - c @ x_f) / schur
        return np.append(x_f - dk * x_u, dk)

    z, _, it, F = _newton(residual, jac_solve, np.append(u_pred, k_pred), tol, max_iter,
                          n_positive=n)
    return z[:n], float(z[n]), float(np.max(np.abs(F[:n]))), it


def continue_branch(ell: int, k_from: float, k_to: float, steps: int,
                    N: int = 400, tol: float = 1e-9,
                    k_window: tuple = (2.0, 12.0)) -> BranchRun:
    """Pseudo-arclength continuation of the nonconstant branch seeded from
    the ell-th axisymmetric mode near its bifurcation point.

    The first point is a fixed-k Newton solve at k_from from a few signed
    multiples of the mode.  The first predictor is the exact tangent there,
    every later one the secant of the last two points.  Each step is the
    remaining k distance spread over the remaining points, capped at ten
    times min(|k_to - k_from| / steps, 0.05), floored at 1e-4 and halved on
    failure; once k has passed k_to, or where the tangent is vertical in k,
    the step keeps its last size.  The run emits `steps` points (status
    'ok') unless k leaves the window ('window') or the step collapses below
    1e-4 ('stalled').
    """
    if steps < 1 or not 0.0 < k_from < math.inf:
        raise ValueError("steps must be >= 1 and k_from positive and finite")
    if not math.isfinite(k_to) or (k_to == k_from and steps > 1):
        raise ValueError(f"k_to must be finite and differ from k_from, got k_to = {k_to}")
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
    if steps == 1:
        return BranchRun(points, "ok", "single point requested")

    wu = 1.0 / (N + 1)
    u_cur, k_cur = first.profile.values, first.k
    # exact tangent (du, dkk): J du + u dkk = 0, since dF/dk = u
    dkk = direction
    du = solve_banded((1, 1), _s4_jacobian_banded(u_cur, k_cur), -dkk * u_cur)
    h = min(abs(k_to - k_from) / steps, 0.05) * math.hypot(math.sqrt(wu * float(du @ du)), 1.0)
    h_max = 10.0 * h
    arclength = 0.0
    while len(points) < steps:
        norm = math.hypot(math.sqrt(wu * float(du @ du)), abs(dkk))
        tu, tk = du / norm, dkk / norm
        # spread the remaining k distance over the remaining points, so the
        # run lands on k_to with the requested point count
        remaining = direction * (k_to - k_cur)
        if remaining > 0 and abs(tk) > 1e-12:
            h = min(max(remaining / ((steps - len(points)) * abs(tk)), 1e-4), h_max)
        while True:
            u_pred = u_cur + h * tu
            k_pred = k_cur + h * tk
            try:
                u_new, k_new, res, _ = _bordered_corrector(u_pred, k_pred, tu, tk, tol)
                break
            except ConvergenceError as exc:
                h *= 0.5
                if h < 1e-4:
                    return BranchRun(points, "stalled", f"continuation step collapsed: {exc}")
        if not (k_window[0] <= k_new <= k_window[1]):
            return BranchRun(points, "window", f"k = {k_new:.4f} left the window {k_window}")
        arclength += h
        points.append(_make_branch_point(k_new, u_new, res, tol, arclength))
        du, dkk = u_new - u_cur, k_new - k_cur
        u_cur, k_cur = u_new, k_new
    if direction * (k_cur - k_to) >= 0:
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


def solve_torus(A: float, init: np.ndarray, tol: float = 1e-10,
                max_iter: int = 60) -> TorusRun:
    """Mean-constrained Newton for lam'' = A lam^3, period 2 pi: the
    reduction in the Ricci-flat case a = 0.

    The period integral of lam'' vanishes identically, so a solution needs
    A * integral(lam^3) = 0; the mean constraint makes the system square and
    its multiplier nu equals A * mean(lam^3) at convergence -- the exact
    obstruction.  A = 0 converges to the mean of the initial profile; any
    A != 0 with positive data converges only in the constrained sense and is
    reported 'obstructed'.
    """
    if not math.isfinite(A):
        raise ValueError(f"A must be finite, got {A}")
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
        z = _newton(residual, lambda z, rhs: _torus_newton_step(A, z, rhs),
                    np.append(lam, 0.0), tol, max_iter, n_positive=N, monitor=record)[0]
        status = "converged"
    except ConvergenceError as exc:
        z, status = exc.iterate, "diverged"
    lam = z[:N]

    true_res = torus_equation_residual(lam, A)
    profile = RadialProfile(torus_grid(N), lam, "torus_1d",
                            {"a": 0.0, "A": A, "N": N, "tol": tol, "mean": m0},
                            float(np.max(np.abs(true_res))))
    obstruction = A * float(np.sum(lam**3)) * dth
    if status == "converged":
        status = "solved" if abs(obstruction) < 1e-8 else "obstructed"
    # the monitor saw the start and every accepted step, however the solve ended
    return TorusRun(profile, status, obstruction, obstruction_history, max(laplacian_integrals),
                    len(obstruction_history) - 1)


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
    lines += [f"{c!r},{v!r}" for c, v in zip(profile.grid.tolist(), profile.values.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def profile_to_json_dict(profile: RadialProfile) -> dict:
    return {
        "equation": profile.equation,
        "params": profile.params,
        "residual_sup": profile.residual_sup,
        "grid": profile.grid.tolist(),
        "values": profile.values.tolist(),
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


def write_branch_jsonl(points: Sequence[BranchPoint], path) -> None:
    """One JSON line per branch point; an existing file is overwritten."""
    with open(path, "w") as fh:
        for p in points:
            fh.write(json.dumps(branch_point_summary(p), sort_keys=True) + "\n")
