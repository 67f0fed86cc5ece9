"""Pointwise residuals of the biharmonicity equations for conformal factors.

The central objects, for a conformal factor lam > 0 on an Einstein domain
(Ricci = a g, dimension n):

  * biharmonic_residual -- the full 3rd-order vector equation
        grad(Delta ln lam) - {2 Delta ln lam + (n-2)|grad ln lam|^2} grad ln lam
            + 2 a grad ln lam + ((6-n)/2) grad|grad ln lam|^2,
    which vanishes exactly at points where the conformal map is biharmonic.
  * einstein_form_residual -- its integrated gradient form
        grad(lam Delta lam + a lam^2 - ((n-4)/2)|grad lam|^2) - 4 (Delta lam) grad lam,
    identically lam^2 times the biharmonic vector; for n = 4 it is
    lam^4 grad((Delta lam - a lam) / lam^3), zero where Delta lam - a lam = A lam^3.
  * yamabe_residual -- the dimension-4 reduction Delta lam - a lam - A lam^3.

All operators act in the metric given by a ConformalMetricDescriptor; the
returned vectors are coordinate components in the chart, including the
mu^-2 index-raising factor of the curved gradient.

The biharmonic vector is one formula in the jets of ln lam and ln mu
(value, gradient, Hessian, gradient of the Laplacian) on a whole grid at
once.  `fields.jets` gives them exactly for a field that carries a
LogQuadratic, so residuals of true solutions vanish to roundoff, and from
a 41-point central-difference stencil at step 1e-3 for any other field:
good to about 1e-4 for the biharmonic residual, and lam^2 times that for
the einstein form.  mu is always exact.  The 2nd-order residuals need only
lam, |grad lam|_g and Delta_g lam, and take them in one batch from
`fields._second_order`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from . import qmc
from .fields import (
    DEFAULT_FD_STEP,
    FLAT,
    ConformalMetricDescriptor,
    DomainError,
    EinsteinDatum,
    ScalarField4,
    UnsupportedDimensionError,
    _at_point,
    _grid_jets,
    _second_order,
    as_point,
)

GRID_EXCLUSION = 0.05

EQUATIONS = ("yamabe", "biharmonic", "einstein_form", "curvature_law", "isoparametric")


class IllConditionedError(ValueError):
    """Least-squares fit has no usable normal equation."""


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


def _residual_vectors(lam_jets, terms, n: int, a: float) -> np.ndarray:
    """Biharmonic residual vectors from the jets of ln lam and their `_jet_terms`
    at a batch of points; grad e = -2 e grad m."""
    gu, Hu, gLu = lam_jets[1:]
    e, gm, Hm, s, L = terms

    def mat(H, v):
        return np.einsum("kij,kj->ki", H, v)

    grad_L = gLu + 2.0 * mat(Hm, gu) + 2.0 * mat(Hu, gm)
    return e * (e * (grad_L - 2.0 * L * gm) - e * (2.0 * L + (n - 2) * s) * gu + 2.0 * a * gu
                + (6 - n) * e * (mat(Hu, gu) - s * gm))


def _residual_rows(lam: ScalarField4, X: np.ndarray, metric: ConformalMetricDescriptor, h: float | None,
                   equation: str, datum: EinsteinDatum | None = None, a: float = 0.0, A: float = 0.0):
    """(ok, the residual at the rows of X where lam is defined): Delta_g lam - a lam - A lam^3
    for yamabe, the vectors of `_residual_vectors` for the 3rd-order equations."""
    if equation == "yamabe":
        ok, v, _, _, lap = _second_order(lam, X, metric, h)
        return ok, lap - a * v - A * v**3
    if metric.kind != "flat" and datum.n != 4:
        raise UnsupportedDimensionError("curved-metric residuals are implemented for n = 4 only")
    ok, lam_jets, terms = _grid_jets(lam, X, metric, h)
    vec = _residual_vectors(lam_jets, terms, datum.n, datum.a)
    if equation == "einstein_form":
        # the gradient form is lam^2 times the biharmonic vector, term by term
        vec *= lam_jets[0][:, None] ** 2
    return ok, vec


def _tension(n: int, grad_sq):  # the codomain norm (n-2)|grad lam|_g of the tension field
    return (n - 2) * np.sqrt(grad_sq)


def biharmonic_residual(lam: ScalarField4, datum: EinsteinDatum, x,
                        metric: ConformalMetricDescriptor = FLAT,
                        h: float | None = None) -> np.ndarray:
    """Vector residual of the 3rd-order biharmonicity equation at x.

    `h` is the stencil step of `fd_jets` for a field without a closed form."""
    return _at_point(_residual_rows, lam, x, metric, h, "biharmonic", datum)[0]


def einstein_form_residual(lam: ScalarField4, datum: EinsteinDatum, x,
                           metric: ConformalMetricDescriptor = FLAT,
                           h: float | None = None) -> np.ndarray:
    """Vector residual of the gradient-form equation at x: lam(x)^2 times the biharmonic one.

    `h` is the stencil step of `fd_jets` for a field without a closed form."""
    return _at_point(_residual_rows, lam, x, metric, h, "einstein_form", datum)[0]


def yamabe_residual(lam: ScalarField4, a: float, A: float, x,
                    metric: ConformalMetricDescriptor = FLAT,
                    h: float = DEFAULT_FD_STEP) -> float:
    """Delta_g lam - a lam - A lam^3 at x."""
    return float(_at_point(_residual_rows, lam, x, metric, h, "yamabe", None, a, A)[0])


def estimate_A(lam: ScalarField4, a: float, samples: Sequence,
               metric: ConformalMetricDescriptor = FLAT, h: float = DEFAULT_FD_STEP) -> ConstantA:
    """Least-squares A from Delta lam - a lam = A lam^3 over sample points."""
    if len(samples) < 2:
        raise ValueError("need at least two sample points")
    ok, v, _, _, lap = _second_order(lam, np.array([as_point(p) for p in samples]), metric, h)
    if not ok.all():
        raise DomainError(f"field {lam.name or '<anonymous>'} is not defined at every sample")
    return _least_squares_A(v, lap, a)


def _least_squares_A(lam: np.ndarray, lap: np.ndarray, a: float) -> ConstantA:
    """A minimising |Delta lam - a lam - A lam^3| over the samples."""
    if len(lam) < 2:
        raise ValueError("need at least two sample points")
    rhs, cubes = lap - a * lam, lam**3
    denom = float(cubes @ cubes)
    # the fit is scale-covariant (lam -> c lam sends A -> A / c^2): only a sum
    # of lam^6 outside the normal doubles (subnormal, 0 or inf) leaves A undetermined
    if not sys.float_info.min <= denom < math.inf:
        raise IllConditionedError(f"sum of lam^6 over the samples is {denom!r}; A is undetermined")
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
    v, _, gsq, lap = _at_point(_second_order, lam, x, metric, h)
    if v <= 0:
        raise DomainError("conformal factor must be positive")
    rh = R_h(x) if callable(R_h) else float(R_h)
    return float(2.0 * (n - 1) * lap - v * R_g + v**3 * rh + (n - 1) * (n - 4) / v * gsq)


def tension_norm(lam: ScalarField4, n: int, x,
                 metric: ConformalMetricDescriptor = FLAT,
                 h: float = DEFAULT_FD_STEP) -> float:
    """Codomain norm of the tension field, (n-2) lam |grad ln lam|_g = (n-2)|grad lam|/mu."""
    return float(_tension(n, _at_point(_second_order, lam, x, metric, h)[2]))


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
    v, _, gsq, lap = _at_point(_second_order, lam, x, FLAT, h)
    return (float(lap - uprime(v)),
            float(gsq - 2.0 / (datum.n - 4) * (v * uprime(v) - 4.0 * u(v) + datum.a * v**2)))


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
    from the norms: those within the singular margin, where some q_i <= 0,
    or where a difference stencil fails.  A step `h` that is not finite and
    positive raises ValueError.
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
    ok, res = _residual_rows(lam, np.asarray(grid, dtype=float), metric, h, equation, datum, a, A)
    mags = np.abs(res) if equation == "yamabe" else np.linalg.norm(res, axis=1)
    n_failed = int(np.count_nonzero(~ok))
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
