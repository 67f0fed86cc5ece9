"""Closed-form families: bubbles, the catalog, quotients, the cylinder map."""

import math
import warnings

import numpy as np
import pytest

from biharm4.families import (
    AccuracyWarning,
    Bubble,
    classical_example,
    cylinder_map,
    cylinder_pullback_defect,
    perturbed,
    sobolev_best_constant,
    sobolev_quotient,
    solution_catalog,
    sphere_surface_area,
)
from biharm4.fields import DomainError, ScalarField4, fd_gradient, fd_laplacian

BUBBLE_QUOTIENT_4D = 4.0 * math.pi * math.sqrt(6.0) / 3.0  # analytic value of the extremal quotient
GAUSSIAN_QUOTIENT_4D = 4.0 * math.pi  # analytic value for exp(-|x|^2)


def _laplacian(b, x) -> float:
    return float(np.trace(b.closed_form.hess(x)))


def test_bubble_values_and_laplacian_4d():
    b = Bubble(4, 1.0, (0.0,) * 4)
    assert b.value(np.zeros(4)) == pytest.approx(2.0)
    assert _laplacian(b, np.zeros(4)) == pytest.approx(-16.0)  # -2 v^3 at v = 2
    b2 = Bubble(4, 2.0, (0.0,) * 4)
    assert b2.value(np.array([2.0, 0, 0, 0])) == pytest.approx(0.5)


def test_bubble_dimension_three_with_fd_oracle():
    b = Bubble(3, 1.0, (0.0,) * 3)
    x0 = np.zeros(3)
    assert b.value(x0) == pytest.approx(math.sqrt(2.0))
    want = -(3.0 * 1.0 / 4.0) * b.value(x0) ** 5
    assert _laplacian(b, x0) == pytest.approx(want, rel=1e-12)
    assert fd_laplacian(b.value, x0, 1e-3) == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bubble_equation_identity_across_dimensions(n):
    rng = np.random.default_rng(100 + n)
    b = Bubble(n, float(rng.uniform(0.5, 2.0)), tuple(rng.uniform(-1, 1, n)))
    p = (n + 2.0) / (n - 2.0)
    worst = 0.0
    for _ in range(40):
        x = rng.uniform(-4.0, 4.0, n)
        worst = max(worst, abs(_laplacian(b, x) + n * (n - 2) / 4.0 * b.value(x) ** p))
    assert worst < 1e-8


def test_bubble_analytic_derivatives_match_fd():
    b = Bubble(4, 1.3, (0.2, -0.4, 0.0, 0.1))
    x = np.array([0.5, 0.3, -0.2, 0.8])
    assert np.max(np.abs(b.closed_form.grad(x) - fd_gradient(b.value, x, 1e-4))) < 1e-8
    assert _laplacian(b, x) == pytest.approx(fd_laplacian(b.value, x, 1e-4), abs=1e-7)


def test_bubble_validation():
    with pytest.raises(ValueError):
        Bubble(2, 1.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        Bubble(4, -1.0, (0.0,) * 4)
    with pytest.raises(ValueError):
        Bubble(4, 1.0, (0.0,) * 3)


# ---------------------------------------------------------------------------
# Sobolev quotient
# ---------------------------------------------------------------------------

def test_bubble_quotients_agree_and_match_best_constant():
    rng = np.random.default_rng(3)
    qs = []
    for _ in range(5):
        d = float(rng.uniform(0.5, 2.0))
        x0 = tuple(rng.uniform(-1.0, 1.0, 4))
        qs.append(sobolev_quotient(Bubble(4, d, x0).as_field(), 4, center=x0))
    spread = (max(qs) - min(qs)) / min(qs)
    assert spread < 5e-3
    assert qs[0] == pytest.approx(BUBBLE_QUOTIENT_4D, rel=1e-6)
    assert sobolev_best_constant(4) == pytest.approx(BUBBLE_QUOTIENT_4D, rel=1e-12)


def test_quotient_scale_invariance():
    b = Bubble(4, 1.0, (0.0,) * 4).as_field()
    doubled = (2.0 * b.closed_form).field()
    assert sobolev_quotient(doubled, 4) == pytest.approx(sobolev_quotient(b, 4), rel=1e-10)


def gaussian_field():
    return ScalarField4(
        lambda x: math.exp(-float(x @ x)),
        lambda x: -2.0 * x * math.exp(-float(x @ x)),
        lambda x: (4.0 * np.outer(x, x) - 2.0 * np.eye(len(x))) * math.exp(-float(x @ x)),
    )


def test_gaussian_quotient_strictly_above_bubble():
    q = sobolev_quotient(gaussian_field(), 4)
    assert q == pytest.approx(GAUSSIAN_QUOTIENT_4D, rel=1e-8)
    assert q > 1.01 * BUBBLE_QUOTIENT_4D


def test_tensor_quadrature_agrees_roughly():
    q = sobolev_quotient(gaussian_field(), 4, method="tensor",
                         tensor_nodes=16, tensor_half_width=2.5)
    assert q == pytest.approx(GAUSSIAN_QUOTIENT_4D, rel=1e-3)


def test_truncation_warning_when_tail_matters():
    # a bubble integrated only to r = 2 leaves a visible gradient tail
    b = Bubble(4, 1.0, (0.0,) * 4).as_field()
    with pytest.warns(AccuracyWarning):
        sobolev_quotient(b, 4, r_max=2.0)


@pytest.mark.parametrize("delta", [0.01, 0.1, 1.0, 10.0, 50.0])
def test_radial_rule_across_widths(delta):
    # the fixed 588-node ray rule against the exact quotient, off the origin;
    # at r_max = 80 the tail of the wide bubbles exceeds 1 % and must warn
    x0 = (0.3, -0.2, 0.7, 0.1)
    b = Bubble(4, delta, x0).as_field()
    plain = ScalarField4(b.value, b.grad)  # no closed_form: the evaluator branch
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q = sobolev_quotient(b, 4, center=x0)
        q_plain = sobolev_quotient(plain, 4, center=x0)
    assert sum(issubclass(w.category, AccuracyWarning) for w in caught) == (2 if delta > 1.0 else 0)
    assert q == pytest.approx(BUBBLE_QUOTIENT_4D, rel=1e-10)
    assert q_plain == pytest.approx(q, rel=1e-12)
    tensor = dict(center=x0, method="tensor", tensor_nodes=6, tensor_half_width=3.0 * delta)
    assert sobolev_quotient(plain, 4, **tensor) == pytest.approx(sobolev_quotient(b, 4, **tensor), rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(n=2),
    dict(n=1),
    dict(r_max=0.0),
    dict(r_max=-1.0),
    dict(r_max=math.inf),
    dict(r_max=math.nan),
    dict(tensor_half_width=0.0, method="tensor"),
    dict(tensor_half_width=-1.0, method="tensor"),
    dict(tensor_half_width=math.nan, method="tensor"),
    dict(tensor_half_width=math.inf, method="tensor"),
    dict(tensor_nodes=0, method="tensor"),
    dict(tensor_nodes=-3, method="tensor"),
    dict(tail_budget=math.nan),
    dict(tail_budget=math.inf),
    dict(tail_budget=-0.01),
    dict(method="simpson"),
])
def test_sobolev_quotient_rejects_bad_input(kwargs):
    b = Bubble(4, 1.0, (0.0,) * 4).as_field()
    with pytest.raises(ValueError):
        sobolev_quotient(b, **{"n": 4, **kwargs})


def test_sphere_surface_area_values():
    assert sphere_surface_area(4) == pytest.approx(2.0 * math.pi**2)
    assert sphere_surface_area(3) == pytest.approx(4.0 * math.pi)


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

def test_catalog_declared_constants():
    declared = {e.name: e for e in solution_catalog()}
    assert (declared["inverse_radius"].a, declared["inverse_radius"].A,
            declared["inverse_radius"].R_h) == (0.0, -1.0, 6.0)
    assert (declared["sphere_identity"].A, declared["sphere_identity"].R_h) == (-2.0, 12.0)
    assert (declared["poincare_ball"].A, declared["poincare_ball"].R_h) == (2.0, -12.0)
    assert (declared["harmonic_inversion"].A, declared["harmonic_inversion"].R_h) == (0.0, 0.0)
    # the |x|^alpha metric has constant scalar curvature only at alpha = -1,
    # where the codomain is the cylinder with scalar curvature +6
    assert (declared["power_alpha"].A, declared["power_alpha"].R_h) == (-1.0, 6.0)


def test_power_alpha_without_solution_has_no_constants():
    entry = classical_example("power_alpha", alpha=0.7)
    assert entry.A is None and entry.R_h is None
    with pytest.raises(ValueError):
        classical_example("power_alpha")


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        classical_example("klein_bottle")


def test_poincare_ball_positive_inside_only():
    lam = classical_example("poincare_ball").field
    assert lam.value(np.zeros(4)) == pytest.approx(2.0)
    assert lam.value(np.array([0.9, 0, 0, 0])) > 0
    with pytest.raises(DomainError):
        lam(np.array([1.0, 0, 0, 0]))


def test_perturbed_field_stays_positive_with_analytic_data():
    pf = perturbed(classical_example("sphere_identity").field)
    x = np.array([0.4, -0.2, 0.9, 0.3])
    assert pf.value(x) > 0
    assert np.max(np.abs(np.asarray(pf.grad(x)) - fd_gradient(pf.value, x, 1e-5))) < 1e-8


# ---------------------------------------------------------------------------
# the cylinder diffeomorphism
# ---------------------------------------------------------------------------

def test_cylinder_map_values():
    t, theta, lam = cylinder_map(np.array([math.e, 0, 0, 0]))
    assert t == pytest.approx(1.0)
    assert np.allclose(theta, [1, 0, 0, 0])
    assert lam == pytest.approx(1.0 / math.e)
    t, _, lam = cylinder_map(np.array([0, 0.6, 0.8, 0]))
    assert t == pytest.approx(0.0)
    assert lam == pytest.approx(1.0)


def test_cylinder_map_rejects_origin():
    with pytest.raises(DomainError):
        cylinder_map(np.zeros(4))


def test_cylinder_pullback_is_conformal():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.uniform(-2, 2, 4)
        if np.linalg.norm(x) < 0.5:
            continue
        assert cylinder_pullback_defect(x) < 1e-8
