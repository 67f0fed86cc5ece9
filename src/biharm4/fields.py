"""Scalar fields on R^4 and flat / conformally flat differential operators.

Sign convention: the Laplacian is div grad (trace of the Hessian), with
negative spectrum.  For a conformal metric g = mu^2 dx^2 in dimension 4,

    Delta_g f = mu^-2 (Delta f + 2 <grad ln mu, grad f>).

Every closed-form conformal factor of the package is a LogQuadratic,
C * prod_i q_i(x)^p_i with each q_i quadratic; a field built from one
carries it as `closed_form`, which gives exact jets of ln lam on a batch of
points.  Their one kernel, `_jets`, takes points of shape (..., P, n), so
factors that share one term layout get their jets in one call, with C, M,
w and c stacked on the leading axes.  Any other field gets the same jets
from one 41-point stencil of central differences (`fd_jets`); `jets` picks
whichever applies.

The metric's factor mu is a LogQuadratic too, the constant 1 for the
flat metric, and every operator takes its exact jets, so the flat and
round charts share one path.  `_second_order` gives lam, grad lam,
|grad lam|_g^2 and Delta_g lam on a batch: from exact jets for a closed
form, else per row from the field's `grad`/`hess` and one (2n+1)-point
central stencil (`_central`) for what it lacks; the per-point operators
are its one-row views.  Only the curved metric is restricted to dimension 4.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

DEFAULT_FD_STEP = 1e-4
FD_JET_STEP = 1e-3
SINGULAR_EXCLUSION = 1e-9


class DomainError(ValueError):
    """Evaluation requested at (or too close to) a singular point."""


class UnsupportedDimensionError(ValueError):
    """Operation stated only for certain dimensions."""


def _step(h: float | None, default: float) -> float:
    if h is not None and not (math.isfinite(h) and h > 0):
        raise ValueError(f"difference step h must be finite and positive, got {h}")
    return default if h is None else h


def as_point(x, dim: int | None = None) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or (dim is not None and p.size != dim):
        raise ValueError(f"expected a coordinate vector{'' if dim is None else f' of length {dim}'}, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("coordinates must be finite")
    return p


@dataclass(frozen=True)
class SingularLocus:
    """A point (radius=0) or a centered sphere excluded from a field's domain."""

    center: tuple
    radius: float = 0.0

    def distance(self, x: np.ndarray):
        """Distance from a point, or from each row of a batch of points."""
        d = np.linalg.norm(np.asarray(x) - np.asarray(self.center), axis=-1)
        return abs(d - self.radius)


@dataclass(frozen=True)
class ScalarField4:
    """Scalar function with optional analytic gradient / Hessian evaluators.

    `value` maps a coordinate vector to a float; `grad` to a vector of the
    same length; `hess` to a symmetric matrix.  Fields are immutable and the
    evaluators are pure, so instances are safe to share across workers.
    `closed_form` is the LogQuadratic the evaluators come from, if any; the
    residuals use its exact jets instead of the evaluators.
    """

    value: Callable[[np.ndarray], float]
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    singular_set: tuple = ()
    name: str = ""
    closed_form: Optional["LogQuadratic"] = None

    def __call__(self, x) -> float:
        x = as_point(x)
        self.check_domain(x)
        return float(self.value(x))

    def distance_to_singular(self, x: np.ndarray) -> float:
        if not self.singular_set:
            return math.inf
        return min(s.distance(x) for s in self.singular_set)

    def check_domain(self, x: np.ndarray, margin: float = SINGULAR_EXCLUSION) -> None:
        if self.distance_to_singular(x) < margin:
            raise DomainError(f"field {self.name or '<anonymous>'} is singular within {margin} of {x}")


def _positive(q: float, x) -> float:
    if not q > 0.0:
        raise DomainError(f"log-quadratic factor has q = {q:.3g} <= 0 at {x}")
    return q


def quadratic_term(p: float, c2: float = 1.0, c0: float = 0.0, center=None, w=None) -> tuple:
    """The term (M, w, c, p) of (c2 |x-b|^2 + w.(x-b) + c0)^p, b the center
    (the origin of R^4 by default)."""
    b = np.zeros(4) if center is None else np.asarray(center, dtype=float)
    wb = np.zeros(b.size) if w is None else np.asarray(w, dtype=float)
    return (c2 * np.eye(b.size), wb - 2.0 * c2 * b, c2 * float(b @ b) - float(wb @ b) + c0, p)


@dataclass(frozen=True, eq=False)
class LogQuadratic:
    """lam(x) = C * prod_i q_i(x)^p_i with q_i(x) = x^T M_i x + w_i.x + c_i.

    `terms` holds one (M_i, w_i, c_i, p_i) per factor, M_i symmetric.  The
    class is closed under products and positive scaling.  Its domain is
    {q_i > 0 for every i}; evaluation anywhere else raises DomainError.
    `jets` gives ln lam's exact gradient, Hessian and gradient of the
    Laplacian on a batch of points, which is all the 3rd-order residuals
    need; `grad` and `hess` are its one-row views, `values` is its lam alone
    and `value` evaluates lam at one point.
    """

    C: float
    terms: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.C) and self.C > 0):
            raise ValueError("a log-quadratic factor needs a positive finite constant")
        terms = []
        for M, w, c, p in self.terms:
            M = np.asarray(M, dtype=float)
            terms.append((0.5 * (M + M.T), np.asarray(w, dtype=float), float(c), float(p)))
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "terms", tuple(terms))

    def __mul__(self, other):
        if isinstance(other, LogQuadratic):
            return LogQuadratic(self.C * other.C, self.terms + other.terms)
        if isinstance(other, numbers.Real):
            return LogQuadratic(self.C * other, self.terms)
        return NotImplemented

    __rmul__ = __mul__

    def field(self, name: str = "", singular_set: tuple = ()) -> ScalarField4:
        return ScalarField4(self.value, self.grad, self.hess, singular_set=singular_set,
                            name=name, closed_form=self)

    # ndarray.dot costs about half of `@` on 4-vectors, and `fd_jets` calls
    # `value` at every stencil point
    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        v = self.C
        for M, w, c, p in self.terms:
            v *= _positive(float(x.dot(M.dot(x) + w)) + c, x) ** p
        return v

    def grad(self, x) -> np.ndarray:
        """lam grad ln lam, from a one-row `jets`."""
        lam, g, _, _ = (j[0] for j in self.jets(np.asarray(x, dtype=float)[None]))
        return lam * g

    def hess(self, x) -> np.ndarray:
        """lam (Hess ln lam + grad ln lam grad ln lam^T), from a one-row `jets`."""
        lam, g, H, _ = (j[0] for j in self.jets(np.asarray(x, dtype=float)[None]))
        return lam * (H + np.outer(g, g))

    def in_domain(self, X) -> np.ndarray:
        """Whether every q_i is positive, per row of X."""
        X = np.asarray(X, dtype=float)
        ok = np.ones(len(X), dtype=bool)
        for _, _, _, q, _ in _quadratics(self.terms, X, check=False):
            ok &= q > 0.0
        return ok

    def values(self, X) -> np.ndarray:
        """lam at the rows of X, from the product loop of `jets` alone, so
        equal to `jets(X)[0]` bit for bit."""
        X = np.asarray(X, dtype=float)
        lam = np.full(len(X), self.C)
        for _, _, p, q, _ in _quadratics(self.terms, X):
            lam *= q**p
        return lam

    def jets(self, X):
        """`_jets` at the rows of X: shapes (P,), (P, n), (P, n, n) and (P, n) for X of shape (P, n)."""
        return _jets(self.C, self.terms, np.asarray(X, dtype=float))


def _quadratics(terms, X: np.ndarray, check: bool = True):
    """(M, w, p, q, MX) per term (M, w, c, p) at the points X of shape (..., P, n), leaving
    grad q = 2 MX + w to `_jets`; with `check`, a term with q <= 0 somewhere raises DomainError."""
    for M, w, c, p in terms:
        MX = X @ M
        q = np.einsum("...ki,...ki->...k", X, MX + w) + c
        if check and not np.all(q > 0.0):
            raise DomainError("log-quadratic factor has q <= 0 at some point of the batch")
        yield M, w, p, q, MX


def _jets(C, terms, X: np.ndarray):
    """(lam, grad ln lam, Hess ln lam, grad Delta ln lam) of C prod_i q_i^p_i at X of shape (..., P, n).
    A batch of factors with one term layout gives C, M, w and c the leading axes ... of X, then (1,),
    (n, n), (1, n) and (1,); each p stays one float, as numpy rounds q**p differently for an array p."""
    lam = np.full(X.shape[:-1], C)
    g, H, gL = np.zeros(X.shape), np.zeros(X.shape + X.shape[-1:]), np.zeros(X.shape)
    for M, w, p, q, MX in _quadratics(terms, X):
        gq, qc = 2.0 * MX + w, q[..., None]
        r = p / qc
        gq_sq = np.einsum("...ki,...ki->...k", gq, gq)[..., None]
        lam *= q**p
        g += r * gq
        H += r[..., None] * (2.0 * M[..., None, :, :] - gq[..., :, None] * gq[..., None, :] / qc[..., None])
        # grad of p (2 tr M / q - |grad q|^2 / q^2), with grad |grad q|^2 = 4 M grad q
        tr = np.trace(M, axis1=-2, axis2=-1)[..., None, None]
        gL -= (r / qc) * (2.0 * tr * gq + 4.0 * gq @ M - 2.0 * gq_sq / qc * gq)
    return lam, g, H, gL


@functools.lru_cache
def _axis_offsets(n: int) -> np.ndarray:
    """The points of `_central` in units of the step: the centre, then +e_i, then -e_i."""
    return np.concatenate([np.zeros((1, n)), np.eye(n), -np.eye(n)])


def _central(value: Callable[[np.ndarray], float], x: np.ndarray, h: float):
    """(f, grad f, Delta f) at x by O(h^2) central differences of `value` on
    one stencil of 2n + 1 points: the centre and +-h on each axis."""
    f = np.array([value(y) for y in x + h * _axis_offsets(x.size)], dtype=float)
    fp, fm = f[1:].reshape(2, -1)
    return f[0], (fp - fm) / (2.0 * h), float(np.sum(fp - 2.0 * f[0] + fm)) / h**2


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference gradient, O(h^2)."""
    return _central(f, np.asarray(x, dtype=float), _step(h, DEFAULT_FD_STEP))[1]


def fd_laplacian(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = DEFAULT_FD_STEP) -> float:
    """Central-difference Laplacian (trace of the Hessian), O(h^2)."""
    return _central(f, np.asarray(x, dtype=float), _step(h, DEFAULT_FD_STEP))[2]


@functools.lru_cache
def _jet_stencil(n: int):
    """The stencil of `fd_jets` in units of the step, and the weights that
    turn ln f on it into h * grad, h^2 * Hess and h^3 * grad Delta of ln f.

    The points are the centre, +-1 and +-2 steps on each axis, and the four
    diagonal points +-e_i +-e_j of each pair i < j: 41 for n = 4.  d_i Delta
    is the central difference along e_i of every axis second difference; its
    d_iii term is the one that reaches the +-2 points.  Each weight set is
    the standard O(h^2) central formula."""
    E = np.eye(n)
    points = [np.zeros(n)] + [c * E[i] for i in range(n) for c in (1, -1, 2, -2)]
    points += [a * E[i] + b * E[j] for i in range(n) for j in range(i + 1, n) for a in (1, -1) for b in (1, -1)]
    index = {tuple(p): k for k, p in enumerate(points)}

    def weights(*terms):
        w = np.zeros(len(points))
        for c, p in terms:
            w[index[tuple(p)]] += c
        return w

    def second(i, at):  # u(at + e_i) - 2 u(at) + u(at - e_i)
        return weights((1.0, at + E[i]), (-2.0, at), (1.0, at - E[i]))

    def mixed(i, j):
        return weights((0.25, E[i] + E[j]), (-0.25, E[i] - E[j]), (-0.25, E[j] - E[i]), (0.25, -E[i] - E[j]))

    grad = np.array([weights((0.5, E[i]), (-0.5, -E[i])) for i in range(n)])
    hess = np.array([[second(i, points[0]) if i == j else mixed(i, j) for j in range(n)] for i in range(n)])
    grad_lap = np.array([sum(second(j, E[i]) - second(j, -E[i]) for j in range(n)) / 2.0 for i in range(n)])
    return np.array(points), grad, hess, grad_lap


def fd_jets(f: ScalarField4, X, h: float = FD_JET_STEP):
    """`jets` of f by central differences of ln f, each O(h^2).

    Every row x of X gets one stencil of 41 values for n = 4 (see `_jet_stencil`).
    Derivatives of the catalog factors blow up like powers of the distance
    d to the singular set, so the step is h * min(1, max(d, 0.01))^1.5 to
    keep truncation bounded; the floor keeps roundoff from taking over.  A
    row fails when its stencil reaches the singular margin, f raises
    DomainError on it or f is not positive on it."""
    X = np.asarray(X, dtype=float)
    stencil, w_grad, w_hess, w_grad_lap = _jet_stencil(X.shape[1])
    ok = np.zeros(len(X), dtype=bool)
    rows, steps = [], []
    for k, x in enumerate(X):
        d = f.distance_to_singular(x)
        s = h * min(1.0, max(d, 0.01)) ** 1.5
        if d < SINGULAR_EXCLUSION + 2.0 * s:
            continue
        try:
            vals = np.array([f.value(y) for y in x + s * stencil], dtype=float)
        except DomainError:
            continue
        if np.all(vals > 0.0):
            ok[k] = True
            rows.append(vals)
            steps.append(s)
    V = np.reshape(rows, (-1, len(stencil)))
    U = np.log(V)
    s = np.array(steps)[:, None]
    H = np.einsum("km,ijm->kij", U, w_hess) / (s**2)[:, :, None]
    return ok, (V[:, 0], U @ w_grad.T / s, H, U @ w_grad_lap.T / s**3)


def domain_mask(f: ScalarField4, X) -> np.ndarray:
    """Per row of X, whether the closed-form f is defined there: outside
    the singular margin and where every q_i > 0."""
    X = np.asarray(X, dtype=float)
    ok = f.closed_form.in_domain(X)
    for s in f.singular_set:
        ok &= s.distance(X) >= SINGULAR_EXCLUSION
    return ok


def jets(f: ScalarField4, X, h: float = FD_JET_STEP):
    """(ok, (lam, grad ln lam, Hess ln lam, grad Delta ln lam)) for lam = f.

    `ok` marks the rows of X where f is defined, and the jets are given at
    those rows only, with the shapes of `LogQuadratic.jets`: exact when f
    carries a LogQuadratic (h is then unused), `fd_jets` at step h otherwise."""
    if f.closed_form is None:
        return fd_jets(f, X, h)
    X = np.asarray(X, dtype=float)
    ok = domain_mask(f, X)
    return ok, f.closed_form.jets(X[ok])


@dataclass(frozen=True)
class EinsteinDatum:
    """Dimension and Einstein constant of the domain: Ricci = a g."""

    n: int
    a: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("Einstein domain dimension must be >= 3")

    @property
    def scalar_curvature(self) -> float:
        return self.n * self.a


_MU = {"flat": LogQuadratic(1.0), "spherical": LogQuadratic(2.0, (quadratic_term(-1.0, c0=1.0),))}


@dataclass(frozen=True)
class ConformalMetricDescriptor:
    """g = mu^2 dx^2; kind 'flat' means mu = 1, 'spherical' means mu = 2/(1+|x|^2).

    `mu` is the factor as a LogQuadratic for either kind, so every operator
    reads its exact jets the same way: those of the factor 1 are ones and zeros.
    """

    kind: str = "flat"

    def __post_init__(self):
        if self.kind not in ("flat", "spherical"):
            raise ValueError(f"unknown metric kind {self.kind!r}")

    @classmethod
    def flat(cls) -> "ConformalMetricDescriptor":
        return cls("flat")

    @classmethod
    def spherical(cls) -> "ConformalMetricDescriptor":
        return cls("spherical")

    @property
    def mu(self) -> LogQuadratic:
        return _MU[self.kind]


FLAT = ConformalMetricDescriptor.flat()


def _jet_terms(lam_jets, mu_jets):
    """(e, grad m, Hess m, s, L) from the jets of u = ln lam and m = ln mu,
    with e = mu^-2, s = |grad u|^2, L = Delta u + 2 <grad m, grad u>: Delta_g u = e L."""
    _, gu, Hu, _ = lam_jets
    mu, gm, Hm, _ = mu_jets
    e = mu**-2.0
    s, gmu = np.einsum("ki,ki->k", gu, gu)[:, None], np.einsum("ki,ki->k", gm, gu)[:, None]
    return e[:, None], gm, Hm, s, np.trace(Hu, axis1=1, axis2=2)[:, None] + 2.0 * gmu


def _lam_terms(lam_jets, terms):
    """(lam, grad lam, |grad lam|_g^2, Delta_g lam) from the jets of ln lam and
    their `_jet_terms`: lam grad u, e lam^2 s and e lam (L + s)."""
    lam, gu = lam_jets[:2]
    e, _, _, s, L = terms
    return lam, lam[:, None] * gu, (e * s)[:, 0] * lam**2, (e * (L + s))[:, 0] * lam


def _grid_jets(lam: ScalarField4, X: np.ndarray, metric: ConformalMetricDescriptor, h: float | None = None):
    """(ok, jets of ln lam, their `_jet_terms` with the exact jets of ln mu) at the rows where lam is defined."""
    ok, lam_jets = jets(lam, X, _step(h, FD_JET_STEP))
    return ok, lam_jets, _jet_terms(lam_jets, metric.mu.jets(X[ok]))


def _second_order(f: ScalarField4, X: np.ndarray, metric: ConformalMetricDescriptor, h: float | None = None):
    """(ok, lam, grad lam, |grad lam|_g^2, Delta_g lam) at the rows of X where lam = f is
    defined: exact jets for a closed-form f, else per row its `grad`/`hess` where it has
    them and one `_central` stencil at step h where not.  mu is always exact."""
    h = _step(h, DEFAULT_FD_STEP)
    if metric.kind != "flat" and X.shape[1] != 4:
        raise UnsupportedDimensionError("curved-metric operators are implemented for n = 4 only")
    if f.closed_form is not None:
        ok, lam_jets, terms = _grid_jets(f, X, metric)
        return (ok, *_lam_terms(lam_jets, terms))
    analytic = f.grad is not None and f.hess is not None
    ok, v, G, lap = np.zeros(len(X), dtype=bool), np.zeros(len(X)), np.zeros(X.shape), np.zeros(len(X))
    for k, x in enumerate(X):
        try:
            f.check_domain(x)
            v[k], G[k], lap[k] = (f.value(x), 0.0, 0.0) if analytic else _central(f.value, x, h)
            if f.grad is not None:
                G[k] = f.grad(x)
            if f.hess is not None:
                lap[k] = np.trace(f.hess(x))
            ok[k] = True
        except DomainError:
            pass
    G = G[ok]
    mu, gm = metric.mu.jets(X[ok])[:2]
    return ok, v[ok], G, np.einsum("ki,ki->k", G, G) / mu**2, (lap[ok] + 2.0 * np.einsum("ki,ki->k", gm, G)) / mu**2


def _at_point(batched, lam: ScalarField4, x, *args) -> list:
    """`batched(lam, X, *args)` at the single point x; DomainError where lam is not defined."""
    x = as_point(x)
    ok, *out = batched(lam, x[None], *args)
    if not ok[0]:
        raise DomainError(f"field {lam.name or '<anonymous>'} is not defined around {x}")
    return [o[0] for o in out]


def gradient(f: ScalarField4, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Gradient of f at x: exact for a closed form, else its `grad` evaluator or central differences."""
    return _at_point(_second_order, f, x, FLAT, h)[1]


def laplacian_flat(f: ScalarField4, x, h: float = DEFAULT_FD_STEP) -> float:
    """Flat Laplacian of f at x: exact for a closed form, else the trace of `hess` or central differences."""
    return float(_at_point(_second_order, f, x, FLAT, h)[3])


def laplace_beltrami(f: ScalarField4, g: ConformalMetricDescriptor, x, h: float = DEFAULT_FD_STEP) -> float:
    """Laplace-Beltrami of f for g = mu^2 dx^2 in dimension 4.

    Exact for a closed form, else from f's `grad`/`hess` evaluators where
    it has them and central differences otherwise; mu is always exact.
    """
    return float(_at_point(_second_order, f, x, g, h)[3])


@dataclass(frozen=True)
class FdDiscrepancy:
    """Analytic-vs-finite-difference discrepancies at one point."""

    gradient_error: float
    laplacian_error: float
    step: float

    @property
    def max_error(self) -> float:
        return max(self.gradient_error, self.laplacian_error)


def fd_consistency(f: ScalarField4, x, h: float = DEFAULT_FD_STEP) -> FdDiscrepancy:
    """Max discrepancy between f's analytic and fd gradient / Laplacian at x."""
    _, G, _, lap = _at_point(_second_order, f, x, FLAT, h)
    if f.grad is None or f.hess is None:
        raise ValueError(f"field {f.name or '<anonymous>'} has no analytic grad and hess to check")
    _, fd_G, fd_lap = _central(f.value, as_point(x), h)
    return FdDiscrepancy(float(np.max(np.abs(G - fd_G))), float(abs(lap - fd_lap)), h)


def constant_field(c: float) -> ScalarField4:
    """The constant c > 0."""
    return LogQuadratic(c).field(name=f"const({c})")


def radial_power_field(p: float, center=None, coeff: float = 1.0, name: str = "") -> ScalarField4:
    """f(x) = coeff * |x - c|^p for coeff > 0, outside the center c."""
    c = np.zeros(4) if center is None else np.asarray(center, dtype=float)
    return LogQuadratic(coeff, (quadratic_term(p / 2.0, center=c),)).field(
        name=name or f"{coeff}*|x-c|^{p}", singular_set=(SingularLocus(tuple(c)),))
