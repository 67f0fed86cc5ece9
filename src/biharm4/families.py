"""Closed-form conformal-factor families and their declared constants.

The catalog collects every factor whose biharmonicity is known in closed
form, each a LogQuadratic with exact derivatives, and the constants
(a, A, R_h) it satisfies in Delta lam - a lam = A lam^3 and
6A + 2a/lam^2 + R_h = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .fields import (
    DomainError,
    LogQuadratic,
    ScalarField4,
    SingularLocus,
    _grad,
    as_point,
    quadratic_term,
    radial_power_field,
)


class AccuracyWarning(UserWarning):
    """Quadrature truncation estimate exceeded the requested budget."""


@dataclass(frozen=True)
class Bubble:
    """The extremal family v(x) = (2 delta / (delta^2 + |x-x0|^2))^((n-2)/2).

    Globally smooth, strictly positive, maximum (2/delta)^((n-2)/2) at x0,
    and Delta v = -(n(n-2)/4) v^((n+2)/(n-2)) pointwise.  In dimension 4 it
    solves Delta v = -2 v^3, i.e. the cubic equation with a = 0, A = -2.
    """

    n: int
    delta: float
    x0: tuple
    closed_form: LogQuadratic = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("bubbles are defined for n >= 3")
        if self.delta <= 0:
            raise ValueError("bubble width delta must be positive")
        object.__setattr__(self, "x0", tuple(float(c) for c in np.atleast_1d(self.x0)))
        if len(self.x0) != self.n:
            raise ValueError("center dimension must match n")
        m = (self.n - 2) / 2.0
        object.__setattr__(self, "closed_form", LogQuadratic(
            (2.0 * self.delta) ** m, (quadratic_term(-m, c0=self.delta**2, center=self.x0),)))

    def value(self, x) -> float:
        return self.closed_form.value(x)

    def gradient(self, x) -> np.ndarray:
        return self.closed_form.grad(x)

    def hessian(self, x) -> np.ndarray:
        return self.closed_form.hess(x)

    def laplacian(self, x) -> float:
        return float(np.trace(self.hessian(x)))

    def as_field(self) -> ScalarField4:
        return self.closed_form.field(name=f"bubble(n={self.n},delta={self.delta})")


@dataclass(frozen=True)
class CatalogEntry:
    """A named factor with the constants it is declared to satisfy."""

    name: str
    field: ScalarField4
    a: float
    A: Optional[float]
    R_h: Optional[float]
    grid_radius: float
    note: str = ""


def classical_example(name: str, alpha: float | None = None) -> CatalogEntry:
    """Closed-form catalog: the flat-domain factors with known constants.

    Names: inverse_radius, poincare_ball, sphere_identity, power_alpha
    (requires alpha; constants attach only for alpha = -1), and
    harmonic_inversion.
    """
    if name == "inverse_radius":
        return CatalogEntry(name, radial_power_field(-1.0, name="1/|x|"),
                            a=0.0, A=-1.0, R_h=6.0, grid_radius=5.0,
                            note="factor of the cylinder map x -> (ln|x|, x/|x|)")
    if name == "sphere_identity":
        return CatalogEntry(name, Bubble(4, 1.0, (0.0,) * 4).as_field(),
                            a=0.0, A=-2.0, R_h=12.0, grid_radius=5.0,
                            note="identity into the round chart metric")
    if name == "poincare_ball":
        lam = LogQuadratic(2.0, (quadratic_term(-1.0, c2=-1.0, c0=1.0),)).field(
            name="2/(1-|x|^2)", singular_set=(SingularLocus((0.0,) * 4, 1.0),))
        return CatalogEntry(name, lam, a=0.0, A=2.0, R_h=-12.0, grid_radius=0.9,
                            note="identity into the ball model; defined for |x| < 1")
    if name == "power_alpha":
        if alpha is None:
            raise ValueError("power_alpha requires the exponent alpha")
        lam = radial_power_field(alpha, name=f"|x|^{alpha}")
        is_sol = math.isclose(alpha, -1.0)
        return CatalogEntry(name, lam, a=0.0,
                            A=-1.0 if is_sol else None,
                            R_h=6.0 if is_sol else None,
                            grid_radius=5.0,
                            note="constant scalar curvature only at alpha = -1")
    if name == "harmonic_inversion":
        return CatalogEntry(name, radial_power_field(-2.0, name="1/|x|^2"),
                            a=0.0, A=0.0, R_h=0.0, grid_radius=5.0,
                            note="factor of inversion in the unit sphere; harmonic")
    raise ValueError(f"unknown classical example {name!r}")


CATALOG_NAMES = ("inverse_radius", "poincare_ball", "sphere_identity", "power_alpha", "harmonic_inversion")


def solution_catalog() -> list[CatalogEntry]:
    """Every entry with declared (a, A), including the alpha = -1 power factor."""
    return [
        classical_example("inverse_radius"),
        classical_example("poincare_ball"),
        classical_example("sphere_identity"),
        classical_example("power_alpha", alpha=-1.0),
        classical_example("harmonic_inversion"),
    ]


def perturbed(entry_field: ScalarField4, amplitude: float = 0.1) -> ScalarField4:
    """Multiply a closed-form factor by 1 + amplitude * x1^2/(1+|x|^2)
    = (1+|x|^2+amplitude*x1^2)/(1+|x|^2), which breaks the equation."""
    if entry_field.closed_form is None:
        raise ValueError("perturbed() needs a closed-form factor")
    bumped = (np.diag([1.0 + amplitude, 1.0, 1.0, 1.0]), np.zeros(4), 1.0, 1.0)
    factor = LogQuadratic(1.0, (bumped, quadratic_term(-1.0, c0=1.0)))
    return (entry_field.closed_form * factor).field(name=f"perturbed({entry_field.name})",
                                                     singular_set=entry_field.singular_set)


# ---------------------------------------------------------------------------
# Sobolev quotient
# ---------------------------------------------------------------------------

def sphere_surface_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_volume(n: int) -> float:
    """n-dimensional volume of the unit sphere S^n in R^{n+1}."""
    return sphere_surface_area(n + 1)


def sobolev_best_constant(n: int) -> float:
    """Best constant of the critical embedding, n(n-2)/4 * w^(2/n).

    The measured bubble quotient fixes the normalization w = volume of the
    unit n-sphere (for n = 4 the quotient is 4*pi*sqrt(6)/3 = 10.2575...,
    which matches this convention and not the unit-ball one).
    """
    return n * (n - 2) / 4.0 * sphere_volume(n) ** (2.0 / n)


def sobolev_quotient(v: ScalarField4, n: int, center=None, r_max: float = 80.0,
                     method: str = "radial", tail_budget: float = 0.01,
                     tensor_nodes: int = 16, tensor_half_width: float = 6.0) -> float:
    """(integral |grad v|^2) / (integral |v|^p)^(2/p) with p = 2n/(n-2).

    The radial method assumes v is radially symmetric about `center` and
    integrates along a ray with the surface-area weight; the tensor method
    uses a Gauss-Legendre product grid (coarse, for non-symmetric fields).
    A tail beyond r_max contributing more than `tail_budget` of either
    integral triggers an AccuracyWarning.
    """
    p = 2.0 * n / (n - 2.0)
    c = np.zeros(n) if center is None else as_point(center, n)

    def grad_sq(x):
        g = _grad(v, x)
        return float(g @ g)

    if method == "radial":
        from scipy.integrate import quad

        e = np.zeros(n)
        e[0] = 1.0
        w = sphere_surface_area(n)

        def num_integrand(r):
            return w * r ** (n - 1) * grad_sq(c + r * e)

        def den_integrand(r):
            return w * r ** (n - 1) * abs(v.value(c + r * e)) ** p

        num_main, _ = quad(num_integrand, 0.0, r_max, limit=200)
        den_main, _ = quad(den_integrand, 0.0, r_max, limit=200)
        num_tail, _ = quad(num_integrand, r_max, np.inf, limit=200)
        den_tail, _ = quad(den_integrand, r_max, np.inf, limit=200)
        num, den = num_main + num_tail, den_main + den_tail
        if num_tail > tail_budget * num or den_tail > tail_budget * den:
            warnings.warn(
                f"radial truncation at r_max={r_max} leaves a tail above {tail_budget:.0%} of the integral",
                AccuracyWarning,
            )
    elif method == "tensor":
        nodes, weights = np.polynomial.legendre.leggauss(tensor_nodes)
        nodes = nodes * tensor_half_width
        weights = weights * tensor_half_width
        num = den = 0.0
        grids = np.meshgrid(*([nodes] * n), indexing="ij")
        wgrids = np.meshgrid(*([weights] * n), indexing="ij")
        W = np.ones_like(grids[0])
        for wg in wgrids:
            W = W * wg
        pts = np.stack([g.ravel() for g in grids], axis=-1) + c
        Wf = W.ravel()
        for pt, wt in zip(pts, Wf):
            num += wt * grad_sq(pt)
            den += wt * abs(v.value(pt)) ** p
    else:
        raise ValueError(f"unknown quadrature method {method!r}")
    if den <= 0:
        raise ValueError("denominator integral vanished; field decays too fast or is zero")
    return num / den ** (2.0 / p)


# ---------------------------------------------------------------------------
# the cylinder diffeomorphism
# ---------------------------------------------------------------------------

def cylinder_map(x) -> tuple[float, np.ndarray, float]:
    """x -> (ln|x|, x/|x|) in R x S^3, with conformal factor 1/|x|."""
    x = as_point(x, 4)
    r = float(np.linalg.norm(x))
    if r < 1e-12:
        raise DomainError("the cylinder map is undefined at the origin")
    return math.log(r), x / r, 1.0 / r


def cylinder_pullback_defect(x, h: float = 1e-6) -> float:
    """Max-norm defect of (pullback metric) - lam^2 * identity at x.

    The pullback is computed from a finite-difference Jacobian of the map
    into R^5 = R x R^4; since the angular part lands on the unit sphere,
    the ambient Euclidean pullback equals the cylinder-metric pullback.
    """
    x = as_point(x, 4)

    def phi(y):
        t, theta, _ = cylinder_map(y)
        return np.concatenate([[t], theta])

    J = np.empty((5, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        J[:, j] = (phi(x + e) - phi(x - e)) / (2.0 * h)
    G = J.T @ J
    lam = 1.0 / float(np.linalg.norm(x))
    return float(np.max(np.abs(G - lam**2 * np.eye(4))))
