"""Mobius transformations of R^4 and their conformal factors.

Transforms are stored in the normal form

    x  ->  t_out + alpha Q (x - t_in) / |x - t_in|^eps,

with Q orthogonal and eps in {0, 2} (affine similarity / inversion type).
The four metric pairings (flat or round chart metric on each side) each
give a closed-form conformal factor; the flat->sphere one is always a
Bubble (`mobius_normal_form`).  A map is harmonic when its factor is
constant, else proper biharmonic on the flat domain and not on the round.

alpha is restricted to be positive so factors are positive; an
orientation-reversing sign can be absorbed into Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import Bubble
from .fields import (
    ConformalMetricDescriptor,
    DomainError,
    EinsteinDatum,
    LogQuadratic,
    ScalarField4,
    _grid_jets,
    _lam_terms,
    as_point,
    constant_field,
    quadratic_term,
    radial_power_field,
)
from .residuals import IllConditionedError, _least_squares_A, _residual_vectors, _tension, standard_grid

PAIRINGS = ("flat-flat", "flat-sphere", "sphere-flat", "sphere-sphere")
ORTHOGONALITY_TOL = 1e-12
# (1+|x|^2)/2, the factor of the identity chart-to-flat leg
_HALF_PLUS = LogQuadratic(0.5, (quadratic_term(1.0, c0=1.0),))


class TransformParseError(ValueError):
    """Malformed transform literal."""


@dataclass(frozen=True)
class MobiusTransform:
    t_out: tuple
    t_in: tuple
    alpha: float
    Q: tuple
    eps: int

    def __post_init__(self):
        object.__setattr__(self, "t_out", tuple(float(c) for c in np.atleast_1d(self.t_out)))
        object.__setattr__(self, "t_in", tuple(float(c) for c in np.atleast_1d(self.t_in)))
        Q = np.asarray(self.Q, dtype=float).reshape(4, 4)
        object.__setattr__(self, "Q", tuple(map(tuple, Q)))
        if len(self.t_out) != 4 or len(self.t_in) != 4:
            raise ValueError("translations must be 4-vectors")
        if self.eps not in (0, 2):
            raise ValueError("eps must be 0 or 2")
        if self.alpha == 0.0:
            raise ValueError("alpha must be nonzero")
        if np.max(np.abs(Q.T @ Q - np.eye(4))) > ORTHOGONALITY_TOL:
            raise ValueError("Q must be orthogonal to 1e-12")

    @property
    def q_matrix(self) -> np.ndarray:
        return np.asarray(self.Q, dtype=float)

    @property
    def out_vec(self) -> np.ndarray:
        return np.asarray(self.t_out, dtype=float)

    @property
    def in_vec(self) -> np.ndarray:
        return np.asarray(self.t_in, dtype=float)

    @classmethod
    def identity(cls) -> "MobiusTransform":
        return cls((0.0,) * 4, (0.0,) * 4, 1.0, tuple(map(tuple, np.eye(4))), 0)

    @classmethod
    def inversion(cls) -> "MobiusTransform":
        return cls((0.0,) * 4, (0.0,) * 4, 1.0, tuple(map(tuple, np.eye(4))), 2)


def mobius_apply(T: MobiusTransform, x) -> np.ndarray:
    x = as_point(x, 4)
    y = x - T.in_vec
    if T.eps == 2:
        r2 = float(y @ y)
        if r2 < 1e-24:
            raise DomainError("inversion-type transform has a pole at t_in")
        y = y / r2
    return T.out_vec + T.alpha * (T.q_matrix @ y)


def mobius_conformal_factor(T: MobiusTransform, pairing: str) -> ScalarField4:
    """Conformal factor of T under the given metric pairing, as a closed-form
    (log-quadratic) field.

    flat->flat:     alpha / |x-b|^eps
    flat->sphere:   2 alpha / ((1+|a|^2)|x-b|^eps + 2 alpha <a, Q(x-b)> + alpha^2 |x-b|^(2-eps))
    sphere->flat:   (1+|x|^2)/2 * alpha / |x-b|^eps
    sphere->sphere: (1+|x|^2)/2 * (flat->sphere factor)

    The flat->sphere denominator is a positive-definite quadratic, so that
    factor (and the sphere->sphere one) is globally smooth.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    if T.alpha <= 0:
        raise ValueError("conformal factors need alpha > 0 for positivity")
    a, b, al, Q, eps = T.out_vec, T.in_vec, T.alpha, T.q_matrix, T.eps

    if pairing.endswith("flat"):
        leg = radial_power_field(-2.0, center=b, coeff=al, name=f"{al}/|x-b|^2") if eps else constant_field(al)
        if pairing == "flat-flat":
            return leg
        return (_HALF_PLUS * leg.closed_form).field(name="sphere_flat_factor", singular_set=leg.singular_set)

    # denominator of the composed factor; quadratic in x for either eps
    w = 2.0 * al * (Q.T @ a)
    if eps == 2:
        denom = quadratic_term(-1.0, 1.0 + float(a @ a), al**2, center=b, w=w)
    else:
        denom = quadratic_term(-1.0, al**2, 1.0 + float(a @ a), center=b, w=w)
    fs = LogQuadratic(2.0 * al, (denom,))
    if pairing == "flat-sphere":
        return fs.field(name="flat_sphere_factor")
    return (_HALF_PLUS * fs).field(name="sphere_sphere_factor")


def mobius_normal_form(T: MobiusTransform) -> Bubble:
    """The flat->sphere factor as Bubble(4, delta, e) = 2 delta / (delta^2 + |x-e|^2).

    eps = 2: delta = alpha/(1+|a|^2),  e = b - alpha Q^T a / (1+|a|^2)
    eps = 0: delta = 1/alpha,          e = b - Q^T a / alpha
    """
    if T.alpha <= 0:
        raise ValueError("normal form needs alpha > 0")
    a, b, al, Q = T.out_vec, T.in_vec, T.alpha, T.q_matrix
    if T.eps == 2:
        delta = al / (1.0 + float(a @ a))
        e = b - al * (Q.T @ a) / (1.0 + float(a @ a))
    else:
        delta = 1.0 / al
        e = b - (Q.T @ a) / al
    return Bubble(4, delta, e)


def mobius_compose(T2: MobiusTransform, T1: MobiusTransform) -> MobiusTransform:
    """The transform T2 o T1, reduced to the standard normal form."""
    a1, b1, al1, Q1, e1 = T1.out_vec, T1.in_vec, T1.alpha, T1.q_matrix, T1.eps
    a2, b2, al2, Q2, e2 = T2.out_vec, T2.in_vec, T2.alpha, T2.q_matrix, T2.eps

    if e1 == 0:
        # T1 is affine: T1 x - b2 = al1 Q1 (x - b'), b' = b1 - Q1^T (a1 - b2)/al1
        bp = b1 - Q1.T @ (a1 - b2) / al1
        alpha = al2 * al1 ** (1 - e2)
        return MobiusTransform(tuple(a2), tuple(bp), alpha, tuple(map(tuple, Q2 @ Q1)), e2)

    c = a1 - b2
    cn2 = float(c @ c)
    if e2 == 0:
        return MobiusTransform(tuple(a2 + al2 * (Q2 @ c)), tuple(b1), al2 * al1,
                               tuple(map(tuple, Q2 @ Q1)), 2)
    if cn2 < 1e-28:
        # inversion centers cancel: the composition is affine
        return MobiusTransform(tuple(a2), tuple(b1), al2 / al1,
                               tuple(map(tuple, Q2 @ Q1)), 0)
    H = np.eye(4) - 2.0 * np.outer(c, c) / cn2
    a = a2 + al2 * (Q2 @ c) / cn2
    alpha = al2 * al1 / cn2
    b = b1 - al1 * (Q1.T @ c) / cn2
    return MobiusTransform(tuple(a), tuple(b), alpha, tuple(map(tuple, Q2 @ H @ Q1)), 2)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    classification: str  # harmonic | proper_biharmonic | not_biharmonic
    reason: str
    evidence: dict

    def __post_init__(self):
        if self.classification not in ("harmonic", "proper_biharmonic", "not_biharmonic"):
            raise ValueError(f"unknown classification {self.classification!r}")


def _isometry_parameters(T: MobiusTransform, tol: float = 1e-9) -> bool:
    """True when T is on the sphere-isometry locus of the sphere->sphere pairing."""
    a = T.out_vec
    alpha = 1.0 if T.eps == 0 else 1.0 + float(a @ a)
    return bool(np.max(np.abs(T.in_vec - T.q_matrix.T @ a)) <= tol) and abs(T.alpha - alpha) <= tol


def sphere_isometry(eps: int, Q, t_out) -> MobiusTransform:
    """Construct a transform on the isometry locus with the given rotation part."""
    Q = np.asarray(Q, dtype=float)
    a = np.asarray(t_out, dtype=float)
    alpha = 1.0 if eps == 0 else 1.0 + float(a @ a)
    return MobiusTransform(tuple(a), tuple(Q.T @ a), alpha, tuple(map(tuple, Q)), eps)


def classify_mobius(T: MobiusTransform, pairing: str,
                    n_points: int = 60, seed: int | None = None) -> Verdict:
    """Classify T under the pairing, attaching numerical residual evidence.

    One closed-form rule gives the verdict: harmonic when the factor is
    constant (no quadratic term, or a sphere->sphere isometry), else
    proper_biharmonic on the flat domain, where every factor solves the
    cubic equation, else not_biharmonic.  The evidence never decides it (a
    very wide bubble looks constant on the grid).  It comes from one batch
    of exact jets of ln lam, and of ln mu on the spherical domain (|x| <= 3,
    a = 3): the biharmonic residual and tension sup-norms, the factor range
    for sphere->sphere, A fitted on the first 12 grid points for a flat
    domain (None where the sum of lam^6 there is not a normal double), and
    for flat->sphere the normal-form distance at 25 seeded points.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    factor = mobius_conformal_factor(T, pairing)
    spherical_domain = pairing.startswith("sphere")
    metric = ConformalMetricDescriptor.spherical() if spherical_domain else ConformalMetricDescriptor.flat()
    datum = EinsteinDatum(4, 3.0 if spherical_domain else 0.0)
    radius = 3.0 if spherical_domain else 5.0
    grid = standard_grid(n_points, radius, factor.singular_set, seed=seed)

    # the grid keeps off the singular set, so the factor is defined at every row
    _, lam_jets, terms = _grid_jets(factor, grid, metric)
    bh = _residual_vectors(lam_jets, terms, datum.n, datum.a)
    lam, _, grad_sq, lap = _lam_terms(lam_jets, terms)
    evidence = {"biharmonic_residual_sup": float(np.max(np.linalg.norm(bh, axis=1))),
                "tension_sup": float(np.max(_tension(datum.n, grad_sq))),
                "einstein_a": datum.a, "grid_radius": radius, "n_points": int(len(grid))}
    if not spherical_domain:
        try:
            fit = _least_squares_A(lam[:12], lap[:12], datum.a)
            evidence.update(fitted_A=fit.value, fit_residual=fit.fit_residual)
        except IllConditionedError:
            evidence.update(fitted_A=None, fit_residual=None)
    if pairing == "flat-sphere":
        nf = mobius_normal_form(T)
        X = np.random.default_rng(99).uniform(-3.0, 3.0, size=(25, 4))
        got, want = factor.closed_form.jets(X)[0], nf.closed_form.jets(X)[0]
        evidence.update(normal_form_error=float(np.max(np.abs(got - want))), delta=nf.delta)
    if pairing == "sphere-sphere":
        evidence["factor_range"] = float(np.max(lam) - np.min(lam))

    if not factor.closed_form.terms or (pairing == "sphere-sphere" and _isometry_parameters(T)):
        return Verdict("harmonic", "constant conformal factor: a homothety or sphere isometry", evidence)
    if not spherical_domain:
        return Verdict("proper_biharmonic",
                       "nonconstant factor solves the cubic equation on the flat domain", evidence)
    return Verdict("not_biharmonic",
                   "nonconstant factor on the round domain fails the cubic reduction", evidence)


# ---------------------------------------------------------------------------
# random transforms and the CLI literal format
# ---------------------------------------------------------------------------

def random_orthogonal(rng: np.random.Generator) -> np.ndarray:
    M = rng.standard_normal((4, 4))
    Q, R = np.linalg.qr(M)
    return Q @ np.diag(np.sign(np.diag(R)))


def random_transform(rng: np.random.Generator, eps: int,
                     translation_scale: float = 1.2,
                     alpha_range: tuple = (0.5, 2.0)) -> MobiusTransform:
    Q = random_orthogonal(rng)
    return MobiusTransform(
        tuple(rng.uniform(-translation_scale, translation_scale, 4)),
        tuple(rng.uniform(-translation_scale, translation_scale, 4)),
        float(rng.uniform(*alpha_range)),
        tuple(map(tuple, Q)),
        eps,
    )


def parse_transform(text: str) -> MobiusTransform:
    """Parse 'eps=2 alpha=1.5 tout=0,0,0,0 tin=1,0,0,0 Q=identity'.

    Q accepts 'identity' or 16 comma-separated row-major entries, which must
    form an orthogonal matrix.
    """
    fieldsmap = {}
    for token in text.split():
        if "=" not in token:
            raise TransformParseError(f"expected key=value, got {token!r}")
        key, _, val = token.partition("=")
        fieldsmap[key.lower()] = val
    try:
        eps = int(fieldsmap.get("eps", "0"))
        alpha = float(fieldsmap.get("alpha", "1"))

        def vec(key):
            raw = fieldsmap.get(key, "0,0,0,0")
            parts = [float(t) for t in raw.split(",")]
            if len(parts) != 4:
                raise TransformParseError(f"{key} needs 4 components")
            return tuple(parts)

        qraw = fieldsmap.get("q", "identity")
        if qraw == "identity":
            Q = np.eye(4)
        else:
            entries = [float(t) for t in qraw.split(",")]
            if len(entries) != 16:
                raise TransformParseError("Q needs 16 row-major entries or 'identity'")
            Q = np.asarray(entries).reshape(4, 4)
        return MobiusTransform(vec("tout"), vec("tin"), alpha, tuple(map(tuple, Q)), eps)
    except TransformParseError:
        raise
    except (ValueError, KeyError) as exc:
        raise TransformParseError(f"malformed transform literal: {exc}") from exc


def transform_literal(T: MobiusTransform) -> str:
    """Render a transform back to the literal format (canonical form)."""

    def fmt_vec(v):
        return ",".join(repr(float(c)) for c in v)

    Q = T.q_matrix
    if np.max(np.abs(Q - np.eye(4))) == 0.0:
        qtxt = "identity"
    else:
        qtxt = ",".join(repr(float(c)) for c in Q.ravel())
    return f"eps={T.eps} alpha={T.alpha!r} tout={fmt_vec(T.t_out)} tin={fmt_vec(T.t_in)} Q={qtxt}"
