"""Field evaluators, finite differences, and the conformal Laplacian."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm4.families import Bubble, classical_example, perturbed, solution_catalog
from biharm4.fields import (
    ConformalMetricDescriptor,
    DomainError,
    EinsteinDatum,
    LogQuadratic,
    ScalarField4,
    SingularLocus,
    UnsupportedDimensionError,
    fd_consistency,
    fd_gradient,
    fd_jets,
    fd_laplacian,
    gradient,
    laplace_beltrami,
    laplacian_flat,
    radial_power_field,
)
from biharm4.mobius import PAIRINGS, mobius_conformal_factor, random_transform
from biharm4.residuals import biharmonic_residual, einstein_form_residual


def radius_field():
    return ScalarField4(lambda x: float(x @ x),
                        lambda x: 2.0 * x,
                        lambda x: 2.0 * np.eye(4),
                        name="|x|^2")


def test_gradient_of_radius_squared():
    f = radius_field()
    assert np.allclose(gradient(f, [1, 0, 0, 0]), [2, 0, 0, 0])
    assert np.allclose(fd_gradient(f.value, np.array([1.0, 0, 0, 0])), [2, 0, 0, 0], atol=1e-10)


def test_gradient_of_inverse_radius():
    f = classical_example("inverse_radius").field
    assert np.allclose(gradient(f, [1, 0, 0, 0]), [-1, 0, 0, 0], atol=1e-12)


def test_gradient_vanishes_at_bubble_center():
    b = Bubble(4, 1.0, (0.0,) * 4).as_field()
    assert np.allclose(gradient(b, np.zeros(4)), np.zeros(4), atol=1e-14)


def test_laplacian_inverse_radius_on_unit_sphere():
    # Delta(1/|x|) = -1/|x|^3 in four dimensions: equals -lam^3
    f = classical_example("inverse_radius").field
    x = np.array([0.0, 1.0, 0.0, 0.0])
    assert laplacian_flat(f, x) == pytest.approx(-1.0, abs=1e-12)
    assert fd_laplacian(f.value, x) == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("alpha", [-0.5, 1.3, -1.0])
def test_laplacian_radial_power(alpha):
    f = radial_power_field(alpha)
    x = np.array([0.7, -0.4, 0.2, 0.9])
    r = float(np.linalg.norm(x))
    expected = alpha * (alpha + 2.0) * r ** (alpha - 2.0)
    assert laplacian_flat(f, x) == pytest.approx(expected, rel=1e-12)


def test_laplacian_of_constant_is_zero():
    from biharm4.fields import constant_field

    assert laplacian_flat(constant_field(3.7), [1, 2, 0, -1]) == 0.0


def test_singular_point_rejected():
    f = classical_example("inverse_radius").field
    with pytest.raises(DomainError):
        gradient(f, np.zeros(4))
    # a value-only copy takes the difference path, behind the same domain check
    with pytest.raises(DomainError):
        laplacian_flat(ScalarField4(f.value, singular_set=f.singular_set), [1e-10, 0, 0, 0])


def test_value_only_field_falls_back_to_differences():
    f = ScalarField4(lambda x: float(x[0] * x[0]))
    x = np.array([0.5, 0.0, 0.0, 0.0])
    assert gradient(f, x)[0] == pytest.approx(1.0)
    assert laplacian_flat(f, x) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        fd_consistency(f, x)


def test_fd_jets_fail_the_rows_outside_the_domain():
    # a value-only copy of 2/(1-|x|^2): inside the ball, a stencil that would
    # reach the singular sphere's margin, and outside, where q < 0 raises
    lam = classical_example("poincare_ball").field
    plain = ScalarField4(lam.value, singular_set=lam.singular_set)
    X = np.array([[0.2, 0.1, 0.0, 0.0], [1.0 - 1e-6, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    ok, (v, g, H, gL) = fd_jets(plain, X)
    assert ok.tolist() == [True, False, False]
    assert v.shape == (1,) and g.shape == (1, 4) and H.shape == (1, 4, 4) and gL.shape == (1, 4)
    assert v[0] == lam.value(X[0])


def test_central_differences_exact_on_quadratics():
    # no truncation term at all, so a large step shows pure roundoff
    f = radius_field()
    x = np.array([0.3, 1.1, -0.4, 0.2])
    d = fd_consistency(f, x, h=0.25)
    assert d.max_error < 1e-12


def test_fd_consistency_bubble_bound():
    # frozen from the Taylor bound: O(h^2) truncation at h = 1e-3 stays
    # well below 1e-5 for the unit bubble; halving h quarters it
    b = Bubble(4, 1.0, (0.0,) * 4).as_field()
    x = np.array([0.3, 0.0, 0.0, 0.0])
    d1 = fd_consistency(b, x, h=1e-3)
    d2 = fd_consistency(b, x, h=5e-4)
    assert d1.max_error < 1e-5
    assert d1.max_error / d2.max_error == pytest.approx(4.0, rel=0.15)


def test_fd_consistency_near_singular_set_is_domain_error():
    f = classical_example("inverse_radius").field
    with pytest.raises(DomainError):
        fd_consistency(f, [1e-10, 0, 0, 0])


def test_fd_consistency_second_order_at_random_points():
    # halving the step divides the discrepancy by 4 +- 10%
    rng = np.random.default_rng(42)
    fields = [
        Bubble(4, 1.0, (0.0,) * 4).as_field(),
        Bubble(4, 1.7, (0.4, -0.2, 0.0, 0.3)).as_field(),
        classical_example("inverse_radius").field,
        classical_example("harmonic_inversion").field,
    ]
    checked = 0
    for f in fields:
        for _ in range(8):
            x = rng.uniform(-2.0, 2.0, 4)
            if f.distance_to_singular(x) < 0.5:
                continue
            d1 = fd_consistency(f, x, h=2e-3).max_error
            d2 = fd_consistency(f, x, h=1e-3).max_error
            if d2 < 1e-12:  # below roundoff the ratio is noise
                continue
            assert d1 / d2 == pytest.approx(4.0, rel=0.10)
            checked += 1
    assert checked >= 20


def test_laplace_beltrami_flat_equals_flat_laplacian():
    rng = np.random.default_rng(5)
    f = Bubble(4, 1.2, (0.1, 0.0, -0.3, 0.2)).as_field()
    flat = ConformalMetricDescriptor.flat()
    for _ in range(10):
        x = rng.uniform(-2, 2, 4)
        assert laplace_beltrami(f, flat, x) == laplacian_flat(f, x)


def test_laplace_beltrami_is_curved_only_in_dimension_four():
    b3 = Bubble(3, 1.0, (0.0,) * 3).as_field()
    x = np.array([0.3, -0.2, 0.5])
    assert laplace_beltrami(b3, ConformalMetricDescriptor.flat(), x) == laplacian_flat(b3, x)
    with pytest.raises(UnsupportedDimensionError):
        laplace_beltrami(b3, ConformalMetricDescriptor.spherical(), x)


def test_laplace_beltrami_spherical_constant_zero():
    from biharm4.fields import constant_field

    sph = ConformalMetricDescriptor.spherical()
    assert laplace_beltrami(constant_field(2.5), sph, [0.3, 0.1, 0, 0]) == 0.0


def test_laplace_beltrami_spherical_linear_at_origin():
    # frozen expected value 0: the chart factor is critical at the origin,
    # so the first-order correction term vanishes there
    sph = ConformalMetricDescriptor.spherical()
    x1 = ScalarField4(lambda x: float(x[0]), lambda x: np.eye(4)[0], lambda x: np.zeros((4, 4)), name="x1")
    assert laplace_beltrami(x1, sph, np.zeros(4)) == pytest.approx(0.0, abs=1e-14)


def _divergence_form_oracle(fv, muv, x, h):
    # independent route: mu^-4 sum_i d_i (mu^2 d_i f), all by differences
    def flux(y, i):
        e = np.zeros(4)
        e[i] = h
        return muv(y) ** 2 * (fv(y + e) - fv(y - e)) / (2 * h)

    acc = 0.0
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        acc += (flux(x + e, i) - flux(x - e, i)) / (2 * h)
    return acc / muv(x) ** 4


def test_laplace_beltrami_matches_divergence_form_oracle():
    sph = ConformalMetricDescriptor.spherical()
    muv = lambda y: 2.0 / (1.0 + float(y @ y))
    f = Bubble(4, 1.3, (0.1, 0.2, -0.3, 0.0)).as_field()
    # the exact jets, and the evaluator and stencil rows of copies without a closed form
    for lam in (f, ScalarField4(f.value, f.grad), ScalarField4(f.value)):
        rng = np.random.default_rng(8)
        for _ in range(6):
            x = rng.uniform(-1.5, 1.5, 4)
            got = laplace_beltrami(lam, sph, x)
            want = _divergence_form_oracle(f.value, muv, x, 1e-4)
            assert got == pytest.approx(want, abs=5e-7)
    # the oracle itself is 2nd order: halving h quarters its drift
    x = np.array([0.4, -0.3, 0.2, 0.6])
    exact = laplace_beltrami(f, sph, x)
    e1 = abs(_divergence_form_oracle(f.value, muv, x, 4e-3) - exact)
    e2 = abs(_divergence_form_oracle(f.value, muv, x, 2e-3) - exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_einstein_datum():
    d = EinsteinDatum(4, 3.0)
    assert d.scalar_curvature == 12.0
    with pytest.raises(ValueError):
        EinsteinDatum(2, 1.0)


def test_singular_locus_sphere_distance():
    s = SingularLocus((0.0,) * 4, 1.0)
    assert s.distance(np.array([0.5, 0, 0, 0])) == pytest.approx(0.5)
    assert s.distance(np.array([2.0, 0, 0, 0])) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# log-quadratic factors: exact jets against finite differences
# ---------------------------------------------------------------------------

def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def log_quadratic_terms(draw):
    """1-3 terms with positive-definite M and q >= 0.5 everywhere."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        B = np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=16, max_size=16))).reshape(4, 4)
        M = B @ B.T / 4.0 + draw(_floats(0.5, 1.5)) * np.eye(4)
        w = np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=4, max_size=4)))
        # min of x^T M x + w.x is -w^T M^-1 w / 4
        c = float(w @ np.linalg.solve(M, w)) / 4.0 + draw(_floats(0.5, 2.0))
        terms.append((M, w, c, draw(_floats(-2.0, 2.0))))
    return tuple(terms)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(terms=log_quadratic_terms(), C=_floats(0.5, 2.0),
       x=st.lists(_floats(-1.0, 1.0), min_size=4, max_size=4), split=st.integers(0, 2))
def test_log_quadratic_jets_match_finite_differences(terms, C, x, split):
    lq = LogQuadratic(C, terms)
    x = np.array(x)
    h = 1e-5

    # lam's gradient and Hessian, and the jets of ln lam, against central differences
    g = lq.grad(x)
    assert np.allclose(g, fd_gradient(lq.value, x, h), rtol=1e-6, atol=1e-8)
    H_fd = np.column_stack([(lq.grad(x + h * e) - lq.grad(x - h * e)) / (2 * h) for e in np.eye(4)])
    assert np.allclose(lq.hess(x), H_fd, rtol=1e-6, atol=1e-8)
    lam, gu, Hu, gLu = (j[0] for j in lq.jets(x[None]))
    assert lam == pytest.approx(lq.value(x), rel=1e-14)
    assert np.allclose(gu, g / lam, rtol=1e-12, atol=1e-14)
    lap_u = lambda y: float(np.trace(lq.jets(y[None])[2][0]))
    assert np.allclose(gLu, fd_gradient(lap_u, x, h), rtol=1e-6, atol=1e-8)

    # the difference jets of a value-only copy against the exact ones, and the
    # 3rd-order residuals the two feed
    exact_field, plain = lq.field(), ScalarField4(lq.value)
    ok, fd = fd_jets(plain, x[None])
    assert ok.tolist() == [True]
    for j_fd, j_exact in zip(fd, lq.jets(x[None])):
        assert np.allclose(j_fd, j_exact, rtol=1e-4, atol=1e-4)
    for datum, metric in ((EinsteinDatum(4, 0.0), ConformalMetricDescriptor.flat()),
                          (EinsteinDatum(4, 3.0), ConformalMetricDescriptor.spherical())):
        for residual in (biharmonic_residual, einstein_form_residual):
            exact = residual(exact_field, datum, x, metric=metric)
            fd = residual(plain, datum, x, metric=metric)
            assert np.allclose(exact, fd, rtol=1e-4, atol=1e-4)

    # a product's jets are its factors' jets added (lam multiplied)
    left, right = LogQuadratic(C, terms[:split]), LogQuadratic(1.0, terms[split:])
    jl, jr, jp = left.jets(x[None]), right.jets(x[None]), (left * right).jets(x[None])
    assert jp[0] == pytest.approx(jl[0] * jr[0], rel=1e-13)
    for a, b, p in zip(jl[1:], jr[1:], jp[1:]):
        assert np.allclose(p, a + b, rtol=1e-12, atol=1e-12)


def test_log_quadratic_values_equal_the_jets_lam_bit_for_bit():
    rng = np.random.default_rng(17)
    # radii spread over (0, 3), so the Poincare ball's |x| < 1 gets rows too
    X = rng.standard_normal((300, 4))
    X *= rng.uniform(0.0, 3.0, (300, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
    factors = [e.field.closed_form for e in solution_catalog()]
    factors.append(perturbed(classical_example("sphere_identity").field).closed_form)
    factors += [mobius_conformal_factor(random_transform(rng, eps), pairing).closed_form
                for eps in (0, 2) for pairing in PAIRINGS]
    for lq in factors:
        Y = X[lq.in_domain(X)]
        assert len(Y) >= 50
        assert np.array_equal(lq.values(Y), lq.jets(Y)[0])


@pytest.mark.parametrize("bad_row", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0]])
def test_log_quadratic_values_raise_where_jets_do(bad_row):
    # q = 1 - |x|^2 of the Poincare ball is 0 and then negative at these rows
    lq = classical_example("poincare_ball").field.closed_form
    X = np.array([[0.1, 0.2, 0.0, 0.0], bad_row])
    for method in (lq.values, lq.jets):
        with pytest.raises(DomainError):
            method(X)
    assert np.array_equal(lq.values(X[:1]), lq.jets(X[:1])[0])
