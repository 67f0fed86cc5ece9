"""Pointwise residuals of the biharmonicity equations for conformal factors.

The central objects, for a conformal factor lam > 0 on an Einstein domain
(Ricci = a g, dimension n):

  * biharmonic_residual -- the full 3rd-order vector equation
        grad(Delta ln lam) - {2 Delta ln lam + (n-2)|grad ln lam|^2} grad ln lam
            + 2 a grad ln lam + ((6-n)/2) grad|grad ln lam|^2,
    which vanishes exactly at points where the conformal map is biharmonic.
  * einstein_form_residual -- its integrated gradient form
        grad(lam Delta lam + a lam^2 - ((n-4)/2)|grad lam|^2) - 4 (Delta lam) grad lam.
  * yamabe_residual -- the dimension-4 reduction Delta lam - a lam - A lam^3.

All operators act in the metric given by a ConformalMetricDescriptor; the
returned vectors are coordinate components in the chart, including the
mu^-2 index-raising factor of the curved gradient.

Both 3rd-order residuals are one formula in the jets of ln lam and ln mu
(value, gradient, Hessian, gradient of the Laplacian) on a whole grid at
once.  `fields.jets` gives them exactly for a field that carries a
LogQuadratic, so residuals of true solutions vanish to roundoff, and from
a 41-point central-difference stencil at step 1e-3 for any other field:
good to about 1e-4 for the biharmonic residual, but the einstein form
carries lam^2 and can miss by more where lam is large.  mu is always
exact.  The 2nd-order residuals use the field's `grad`/`hess` evaluators
where it has them, differences otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from . import qmc
from .fields import (
    DEFAULT_FD_STEP,
    FD_JET_STEP,
    FLAT,
    ConformalMetricDescriptor,
    DomainError,
    EinsteinDatum,
    ScalarField4,
    _grad,
    _lap,
    as_point,
    jets,
    laplace_beltrami,
)

GRID_EXCLUSION = 0.05

EQUATIONS = ("yamabe", "biharmonic", "einstein_form", "curvature_law", "isoparametric")


class IllConditionedError(ValueError):
    """Least-squares fit has no usable normal equation."""


class UnsupportedDimensionError(ValueError):
    """Operation stated only for certain dimensions."""


@dataclass(frozen=True)
class ConstantA:
    """Cubic coefficient fitted from Delta lam - a lam = A lam^3."""

    value: float
    fit_residual: float


@dataclass(frozen=True)
class ResidualReport:
    equation: str
    sup: float
    rms: float
    n_points: int
    n_failed: int
    params: dict
    grid: dict
    values: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        if self.equation not in EQUATIONS:
            raise ValueError(f"unknown equation {self.equation!r}")
        if self.sup + 1e-15 < self.rms:
            raise ValueError("sup norm cannot be below the RMS")
        if self.values is not None and len(self.values) != self.n_points:
            raise ValueError("per-point magnitudes must match the successful point count")


def _residual_vectors(equation: str, lam_jets, mu_jets, n: int, a: float) -> np.ndarray:
    """Biharmonic or einstein_form residual vectors from the jets of ln lam
    (and of ln mu, None for the flat metric) at a batch of points.

    With u = ln lam, m = ln mu and e = mu^-2: Delta_g u = e L with
    L = Delta u + 2 <grad m, grad u>, |grad_g u|^2 = e s with s = |grad u|^2,
    and grad e = -2 e grad m."""
    lam, gu, Hu, gLu = lam_jets
    if mu_jets is None:
        e, gm, Hm = np.ones(len(lam)), np.zeros_like(gu), np.zeros_like(Hu)
    else:
        mu, gm, Hm, _ = mu_jets
        e = mu**-2.0

    def dot(u, v):
        return np.einsum("ki,ki->k", u, v)[:, None]

    def mat(H, v):
        return np.einsum("kij,kj->ki", H, v)

    e = e[:, None]
    s = dot(gu, gu)
    Hgu = mat(Hu, gu)
    L = np.trace(Hu, axis1=1, axis2=2)[:, None] + 2.0 * dot(gm, gu)
    grad_L = gLu + 2.0 * mat(Hm, gu) + 2.0 * mat(Hu, gm)
    if equation == "biharmonic":
        vec = (e * (grad_L - 2.0 * L * gm) - e * (2.0 * L + (n - 2) * s) * gu + 2.0 * a * gu
               + (6 - n) * e * (Hgu - s * gm))
    else:
        # S = lam^2 (e (K - (n-4)/2 s) + a) with K = L + s, so Delta_g lam = lam e K
        K = L + s
        B = K - 0.5 * (n - 4) * s
        grad_S = lam[:, None] ** 2 * (2.0 * (e * B + a) * gu + e * (grad_L + (6 - n) * Hgu - 2.0 * B * gm))
        vec = grad_S - 4.0 * lam[:, None] ** 2 * e * K * gu
    return vec * e


def _grid_jets(lam: ScalarField4, X: np.ndarray, metric: ConformalMetricDescriptor,
               h: float | None = None):
    """(ok, jets of ln lam, exact jets of ln mu or None if flat) at the rows where lam is defined."""
    ok, lam_jets = jets(lam, X, FD_JET_STEP if h is None else h)
    return ok, lam_jets, None if metric.kind == "flat" else metric.factor().closed_form.jets(X[ok])


def _third_order(equation: str, lam: ScalarField4, datum: EinsteinDatum, X: np.ndarray,
                 metric: ConformalMetricDescriptor, h: float | None):
    """(ok, residual vectors at the rows of X where lam is defined)."""
    if metric.kind != "flat" and datum.n != 4:
        raise UnsupportedDimensionError("curved-metric residuals are implemented for n = 4 only")
    ok, lam_jets, mu_jets = _grid_jets(lam, X, metric, h)
    return ok, _residual_vectors(equation, lam_jets, mu_jets, datum.n, datum.a)


def _third_order_at(equation: str, lam: ScalarField4, datum: EinsteinDatum, x,
                    metric: ConformalMetricDescriptor, h: float | None) -> np.ndarray:
    x = as_point(x)
    ok, vec = _third_order(equation, lam, datum, x[None], metric, h)
    if not ok[0]:
        raise DomainError(f"field {lam.name or '<anonymous>'} is not defined around {x}")
    return vec[0]


def biharmonic_residual(lam: ScalarField4, datum: EinsteinDatum, x,
                        metric: ConformalMetricDescriptor = FLAT,
                        h: float | None = None) -> np.ndarray:
    """Vector residual of the 3rd-order biharmonicity equation at x.

    `h` is the stencil step of `fd_jets` for a field without a closed form."""
    return _third_order_at("biharmonic", lam, datum, x, metric, h)


def einstein_form_residual(lam: ScalarField4, datum: EinsteinDatum, x,
                           metric: ConformalMetricDescriptor = FLAT,
                           h: float | None = None) -> np.ndarray:
    """Vector residual of the integrated (gradient-form) equation at x.

    `h` is the stencil step of `fd_jets` for a field without a closed form."""
    return _third_order_at("einstein_form", lam, datum, x, metric, h)


def yamabe_residual(lam: ScalarField4, a: float, A: float, x,
                    metric: ConformalMetricDescriptor = FLAT,
                    h: float = DEFAULT_FD_STEP) -> float:
    """Delta_g lam - a lam - A lam^3 at x."""
    x = as_point(x)
    lam.check_domain(x)
    v = float(lam.value(x))
    lap = _lap(lam, x, h) if metric.kind == "flat" else laplace_beltrami(lam, metric, x, h)
    return lap - a * v - A * v**3


def estimate_A(lam: ScalarField4, a: float, samples: Sequence,
               metric: ConformalMetricDescriptor = FLAT, h: float = DEFAULT_FD_STEP) -> ConstantA:
    """Least-squares A from Delta lam - a lam = A lam^3 over sample points."""
    pts = [as_point(p) for p in samples]
    rhs = [yamabe_residual(lam, a, 0.0, p, metric=metric, h=h) for p in pts]
    return _least_squares_A(np.asarray(rhs), np.asarray([float(lam.value(p)) ** 3 for p in pts]))


def _least_squares_A(rhs: np.ndarray, cubes: np.ndarray) -> ConstantA:
    """A minimising |rhs - A cubes|, with rhs = Delta lam - a lam and cubes = lam^3."""
    if len(cubes) < 2:
        raise ValueError("need at least two sample points")
    denom = float(cubes @ cubes)
    if denom < 1e-14 * len(cubes):
        raise IllConditionedError("lam^3 vanishes at every sample; A is undetermined")
    value = float(cubes @ rhs) / denom
    return ConstantA(value, float(np.sqrt(np.mean((rhs - value * cubes) ** 2))))


def codomain_scalar_curvature(A: float, a: float, lam_value: float) -> float:
    """R_h from the compatibility law 6A + 2a/lam^2 + R_h = 0."""
    if lam_value <= 0:
        raise DomainError("conformal factor must be positive")
    return -6.0 * A - 2.0 * a / lam_value**2


def curvature_law_residual(lam: ScalarField4, n: int, R_g: float, R_h, x,
                           metric: ConformalMetricDescriptor = FLAT,
                           h: float = DEFAULT_FD_STEP) -> float:
    """Residual of 2(n-1) Delta lam = lam R_g - lam^3 R_h - (n-1)(n-4)/lam |grad lam|^2.

    R_h may be a constant or a callable of the point (a scalar-curvature
    field on the codomain pulled back through the map).
    """
    x = as_point(x)
    lam.check_domain(x)
    v = float(lam.value(x))
    if v <= 0:
        raise DomainError("conformal factor must be positive")
    lap = laplace_beltrami(lam, metric, x, h)
    g = _grad(lam, x, h)
    gsq = float(g @ g)
    if metric.kind != "flat":
        gsq /= metric.factor().value(x) ** 2
    rh = R_h(x) if callable(R_h) else float(R_h)
    return 2.0 * (n - 1) * lap - v * R_g + v**3 * rh + (n - 1) * (n - 4) / v * gsq


def tension_norm(lam: ScalarField4, n: int, x,
                 metric: ConformalMetricDescriptor = FLAT,
                 h: float = DEFAULT_FD_STEP) -> float:
    """Codomain norm of the tension field, (n-2) lam |grad ln lam|_g = (n-2)|grad lam|/mu."""
    x = as_point(x)
    lam.check_domain(x)
    nrm = float(np.linalg.norm(_grad(lam, x, h)))
    if metric.kind != "flat":
        nrm /= metric.factor().value(x)
    return (n - 2) * nrm


def aubin_condition(k: float, datum: EinsteinDatum) -> bool:
    """Strict inequality k < (n-2)/(4(n-1)) R_g guaranteeing positive solutions (n >= 4)."""
    if datum.n < 4:
        raise UnsupportedDimensionError("the existence criterion is stated for n >= 4")
    return k < (datum.n - 2) / (4.0 * (datum.n - 1)) * datum.scalar_curvature


def isoparametric_residuals(lam: ScalarField4, datum: EinsteinDatum,
                            u: Callable[[float], float], uprime: Callable[[float], float],
                            x, h: float = DEFAULT_FD_STEP) -> tuple[float, float]:
    """The two n != 4 profile conditions: Delta lam = u'(lam) and
    |grad lam|^2 = 2/(n-4) (lam u'(lam) - 4 u(lam) + a lam^2)."""
    if datum.n == 4:
        raise UnsupportedDimensionError("dimension 4 reduces to the cubic equation, not a profile pair")
    x = as_point(x)
    lam.check_domain(x)
    v = float(lam.value(x))
    g = _grad(lam, x, h)
    r1 = _lap(lam, x, h) - uprime(v)
    r2 = float(g @ g) - 2.0 / (datum.n - 4) * (v * uprime(v) - 4.0 * u(v) + datum.a * v**2)
    return r1, r2


# ---------------------------------------------------------------------------
# verification grids and report assembly
# ---------------------------------------------------------------------------

def standard_grid(n_points: int = 200, radius: float = 5.0,
                  singular_set: Sequence = (), exclusion: float = GRID_EXCLUSION,
                  seed: int | None = None) -> np.ndarray:
    """Quasi-random points in the ball |x| <= radius, away from singular loci.

    The default is the unscrambled Halton sequence, so grids are fully
    reproducible; passing a seed switches to seeded scrambling.  A radius
    that is not finite and positive, fewer than one point, or exclusions
    that leave too little of the ball raise ValueError.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"grid radius must be finite and positive, got {radius}")
    if n_points < 1:
        raise ValueError(f"a grid needs at least one point, got {n_points}")
    sampler = qmc.Halton(d=4, scramble=seed is not None, seed=seed)
    kept, found = [], 0
    for _ in range(64):
        pts = (2.0 * sampler.random(4 * n_points) - 1.0) * radius
        keep = np.einsum("ki,ki->k", pts, pts) <= radius**2
        for s in singular_set:
            keep &= s.distance(pts) >= exclusion
        kept.append(pts[keep][: n_points - found])
        found += len(kept[-1])
        if found == n_points:
            return np.concatenate(kept)
    raise ValueError("grid rejection loop failed to fill; exclusions too aggressive")


def residual_report(equation: str, lam: ScalarField4, grid: np.ndarray, *,
                    datum: EinsteinDatum | None = None,
                    a: float | None = None, A: float | None = None,
                    metric: ConformalMetricDescriptor = FLAT,
                    h: float | None = None,
                    grid_meta: dict | None = None) -> ResidualReport:
    """Sweep a residual over a grid, collecting magnitudes into a report.

    Points where lam is not defined are counted as failed and excluded
    from the norms: for yamabe those raising DomainError, for the 3rd-order
    equations those `jets` marks (within the singular margin, some
    q_i <= 0, or a difference stencil that fails).
    """
    params: dict = {"metric": metric.kind}
    if equation == "yamabe":
        if a is None or A is None:
            raise ValueError("yamabe residual needs a and A")
        params.update(a=a, A=A)
    elif equation in ("biharmonic", "einstein_form"):
        if datum is None:
            raise ValueError(f"{equation} residual needs the Einstein datum")
        params.update(n=datum.n, a=datum.a)
    else:
        raise ValueError(f"no grid sweep for equation {equation!r}")
    if h is not None:
        params["h"] = h
    X = np.asarray(grid, dtype=float)
    if equation == "yamabe":
        mags = []
        for p in X:
            try:
                mags.append(abs(yamabe_residual(lam, a, A, p, metric=metric, h=h or DEFAULT_FD_STEP)))
            except DomainError:
                pass
        mags = np.asarray(mags)
        n_failed = len(X) - mags.size
    else:
        ok, vecs = _third_order(equation, lam, datum, X, metric, h)
        n_failed = int(np.count_nonzero(~ok))
        mags = np.linalg.norm(vecs, axis=1)
    if mags.size == 0:
        raise DomainError("every grid point fell in a singular neighbourhood")
    meta = dict(grid_meta or {})
    meta.setdefault("n_points", int(len(grid)))
    return ResidualReport(
        equation=equation,
        sup=float(np.max(mags)),
        rms=float(np.sqrt(np.mean(mags**2))),
        n_points=int(mags.size),
        n_failed=n_failed,
        params=params,
        grid=meta,
        values=mags,
    )
