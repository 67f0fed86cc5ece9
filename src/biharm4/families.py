"""Closed-form conformal-factor families and their declared constants.

The catalog collects every factor whose biharmonicity is known in closed
form, each a LogQuadratic with exact derivatives, and the constants
(a, A, R_h) it satisfies in Delta lam - a lam = A lam^3 and
6A + 2a/lam^2 + R_h = 0.
"""

from __future__ import annotations

import functools
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
    as_point,
    fd_gradient,
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
    unit n-sphere (for n = 4 the quotient is 4*pi*sqrt(6)/3 = 10.2604...,
    which matches this convention and not the unit-ball one).
    """
    return n * (n - 2) / 4.0 * sphere_volume(n) ** (2.0 / n)


def sobolev_quotient(v: ScalarField4, n: int, center=None, r_max: float = 80.0,
                     method: str = "radial", tail_budget: float = 0.01,
                     tensor_nodes: int = 16, tensor_half_width: float = 6.0) -> float:
    """(integral |grad v|^2) / (integral |v|^p)^(2/p) with p = 2n/(n-2).

    The radial method assumes v is radially symmetric about `center` and
    integrates along a ray with the surface-area weight, by a fixed rule:
    12 Gauss-Legendre nodes on [0, r_max 2^-24] and on each panel
    [r_max 2^j, r_max 2^(j+1)], j = -24..23, 588 in all, which gives the
    bubble quotient to 4e-14 for widths 0.01 to 50.  A tail (the nodes
    beyond r_max) above `tail_budget` of either integral triggers an
    AccuracyWarning.  The tensor method uses a Gauss-Legendre product grid
    on the cube of half-width `tensor_half_width` about `center` (coarse,
    for non-symmetric fields).  A closed-form v is evaluated from one batch
    of jets, any other v row by row from `value` and `grad` (else `fd_gradient`).
    """
    if not n >= 3:
        raise ValueError("the Sobolev quotient needs n >= 3")
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError("r_max must be finite and positive")
    if not (math.isfinite(tensor_half_width) and tensor_half_width > 0):
        raise ValueError("tensor_half_width must be finite and positive")
    if not tensor_nodes >= 1:
        raise ValueError("tensor_nodes must be at least 1")
    if not (math.isfinite(tail_budget) and tail_budget >= 0):
        raise ValueError("tail_budget must be finite and non-negative")
    p = 2.0 * n / (n - 2.0)
    c = np.zeros(n) if center is None else as_point(center, n)
    if method == "radial":
        t, w = np.polynomial.legendre.leggauss(12)
        hi = r_max * 2.0 ** np.arange(-24, 25)
        lo = np.concatenate([[0.0], hi[:-1]])
        half = (hi - lo)[:, None] / 2.0
        r = ((hi + lo)[:, None] / 2.0 + half * t).ravel()
        X = c + r[:, None] * np.eye(n)[0]
        W = (half * w).ravel() * sphere_surface_area(n) * r ** (n - 1)
    elif method == "tensor":
        t, w = np.polynomial.legendre.leggauss(tensor_nodes)
        X = c + tensor_half_width * np.stack(np.meshgrid(*([t] * n), indexing="ij"), axis=-1).reshape(-1, n)
        W = functools.reduce(np.multiply.outer, [tensor_half_width * w] * n).ravel()
    else:
        raise ValueError(f"unknown quadrature method {method!r}")
    if v.closed_form is not None:
        lam, g = v.closed_form.jets(X)[:2]
        G = lam[:, None] * g
    else:
        lam, G = np.empty(len(X)), np.empty(X.shape)
        for k, x in enumerate(X):
            lam[k], G[k] = v.value(x), v.grad(x) if v.grad is not None else fd_gradient(v.value, x)
    terms = W * np.stack([np.einsum("ki,ki->k", G, G), np.abs(lam) ** p])
    num, den = terms.sum(axis=1)
    if method == "radial":
        num_tail, den_tail = terms[:, r > r_max].sum(axis=1)
        if num_tail > tail_budget * num or den_tail > tail_budget * den:
            warnings.warn(
                f"radial truncation at r_max={r_max} leaves a tail above {tail_budget:.0%} of the integral",
                AccuracyWarning,
            )
    if den <= 0:
        raise ValueError("denominator integral vanished; field decays too fast or is zero")
    return float(num / den ** (2.0 / p))


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
