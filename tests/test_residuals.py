"""Residual operators: the cubic reduction, the 3rd-order system, and the
derived identities connecting them."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import qmc

from biharm4.families import Bubble, classical_example, perturbed, sobolev_quotient, solution_catalog
from biharm4.fields import (
    ConformalMetricDescriptor,
    DomainError,
    EinsteinDatum,
    LogQuadratic,
    ScalarField4,
    SingularLocus,
    constant_field,
    fd_consistency,
    fd_gradient,
    fd_laplacian,
    gradient,
    laplace_beltrami,
    laplacian_flat,
)
from biharm4.mobius import PAIRINGS, mobius_conformal_factor, random_transform
from biharm4.residuals import (
    IllConditionedError,
    ResidualReport,
    UnsupportedDimensionError,
    aubin_condition,
    biharmonic_residual,
    codomain_scalar_curvature,
    curvature_law_residual,
    einstein_form_residual,
    estimate_A,
    residual_report,
    standard_grid,
    tension_norm,
    yamabe_residual,
)

FLAT4 = EinsteinDatum(4, 0.0)


# ---------------------------------------------------------------------------
# the cubic reduction
# ---------------------------------------------------------------------------

def test_yamabe_inverse_radius():
    lam = classical_example("inverse_radius").field
    assert yamabe_residual(lam, 0.0, -1.0, [2.0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("name,A", [("sphere_identity", -2.0), ("poincare_ball", 2.0)])
def test_yamabe_identity_map_examples(name, A):
    entry = classical_example(name)
    x = np.array([0.3, -0.1, 0.2, 0.4])
    assert yamabe_residual(entry.field, 0.0, A, x) == pytest.approx(0.0, abs=1e-11)


def test_yamabe_power_alpha_only_minus_one():
    minus_one = classical_example("power_alpha", alpha=-1.0)
    x = np.array([1.0, 0, 0, 0])
    assert yamabe_residual(minus_one.field, 0.0, -1.0, x) == pytest.approx(0.0, abs=1e-13)
    other = classical_example("power_alpha", alpha=-0.5)
    assert abs(yamabe_residual(other.field, 0.0, -1.0, x)) > 1e-2


# ---------------------------------------------------------------------------
# the 3rd-order vector residual
# ---------------------------------------------------------------------------

def test_biharmonic_inverse_radius_pointwise():
    lam = classical_example("inverse_radius").field
    r = biharmonic_residual(lam, FLAT4, [1.0, 0, 0, 0])
    assert np.linalg.norm(r) < 1e-6


def test_biharmonic_constant_exactly_zero():
    r = biharmonic_residual(constant_field(2.0), EinsteinDatum(4, 1.5), [0.3, 0.4, 0, 0])
    assert np.all(r == 0.0)


def test_biharmonic_bubble_pointwise():
    lam = Bubble(4, 1.0, (0.0,) * 4).as_field()
    r = biharmonic_residual(lam, FLAT4, [0.5, 0, 0, 0])
    assert np.linalg.norm(r) < 1e-6


def test_einstein_form_sphere_identity():
    lam = classical_example("sphere_identity").field
    r = einstein_form_residual(lam, FLAT4, [1.0, 0, 0, 0])
    assert np.linalg.norm(r) < 1e-6


def test_einstein_form_constant_zero():
    r = einstein_form_residual(constant_field(1.3), EinsteinDatum(4, 2.0), [1.0, 1.0, 0, 0])
    assert np.linalg.norm(r) < 1e-12


def test_einstein_form_power_half_fails():
    lam = classical_example("power_alpha", alpha=-0.5).field
    r = einstein_form_residual(lam, FLAT4, [1.0, 0, 0, 0])
    assert np.linalg.norm(r) > 1e-2


def test_gradient_form_identity_with_cubic_residual():
    # derived identity: the gradient-form residual equals
    # lam * grad(r) - 3 r * grad(lam) with r the cubic residual (same a, A),
    # on solutions and non-solutions alike
    rng = np.random.default_rng(17)
    cases = [
        (Bubble(4, 1.0, (0.0,) * 4).as_field(), 0.0, -2.0),
        (classical_example("inverse_radius").field, 0.0, -1.0),
        (classical_example("harmonic_inversion").field, 0.0, 0.0),
        (perturbed(Bubble(4, 1.5, (0.2, 0, 0, 0)).as_field()), 0.0, -2.0),
        (classical_example("power_alpha", alpha=-0.5).field, 0.0, -1.0),
    ]
    worst = 0.0
    for lam, a, A in cases:
        datum = EinsteinDatum(4, a)
        n_done = 0
        while n_done < 50:
            x = rng.uniform(-3.0, 3.0, 4)
            if lam.distance_to_singular(x) < 0.3:
                continue
            lhs = einstein_form_residual(lam, datum, x)
            r0 = yamabe_residual(lam, a, A, x)
            grad_r = fd_gradient(lambda y: yamabe_residual(lam, a, A, y), x, 1e-4)
            grad_lam = np.asarray(lam.grad(x))
            rhs = lam.value(x) * grad_r - 3.0 * r0 * grad_lam
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            n_done += 1
    assert worst < 1e-4


def test_gradient_form_identity_in_the_chart_metric():
    # the same identity holds with chart-metric operators (any constant A):
    # exercises the curved einstein_form path with the unit-sphere datum
    from biharm4.mobius import mobius_conformal_factor, random_transform

    sph = ConformalMetricDescriptor.spherical()
    mu = sph.mu
    rng = np.random.default_rng(6)
    T = random_transform(rng, 2)
    lam = mobius_conformal_factor(T, "sphere-sphere")
    datum = EinsteinDatum(4, 3.0)
    a, A = 3.0, -1.0
    worst = 0.0
    done = 0
    while done < 15:
        x = rng.uniform(-2.0, 2.0, 4)
        if lam.distance_to_singular(x) < 0.3:
            continue
        lhs = einstein_form_residual(lam, datum, x, metric=sph)
        r0 = yamabe_residual(lam, a, A, x, metric=sph)
        grad_r = fd_gradient(lambda y: yamabe_residual(lam, a, A, y, metric=sph), x, 1e-4)
        m2 = mu.value(x) ** 2
        rhs = lam.value(x) * grad_r / m2 - 3.0 * r0 * np.asarray(lam.grad(x)) / m2
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        done += 1
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# fitting the cubic coefficient
# ---------------------------------------------------------------------------

def test_estimate_A_bubble():
    lam = Bubble(4, 1.0, (0.0,) * 4).as_field()
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(10, 4))
    fit = estimate_A(lam, 0.0, pts)
    assert fit.value == pytest.approx(-2.0, abs=1e-8)
    assert fit.fit_residual < 1e-8


def test_estimate_A_harmonic_field():
    lam = classical_example("harmonic_inversion").field
    pts = [[1.0, 0, 0, 0], [0, 2.0, 0, 0], [1.0, 1.0, 1.0, 0]]
    fit = estimate_A(lam, 0.0, pts)
    assert fit.value == pytest.approx(0.0, abs=1e-10)
    assert fit.fit_residual < 1e-10


def test_estimate_A_no_constant_fits_exponential():
    # oracle: Delta(e^{x1})/e^{3 x1} = e^{-2 x1} takes different values at
    # x1 = 0 and x1 = 1, so no constant A can fit
    lam = ScalarField4(
        lambda x: math.exp(x[0]),
        lambda x: math.exp(x[0]) * np.array([1.0, 0, 0, 0]),
        lambda x: math.exp(x[0]) * np.outer([1.0, 0, 0, 0], [1.0, 0, 0, 0]),
    )
    assert abs(math.exp(-2 * 0.0) - math.exp(-2 * 1.0)) > 0.5
    fit = estimate_A(lam, 0.0, [[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.5, 0, 0, 0]])
    assert fit.fit_residual > 1e-2


def _constant_field(c):
    return ScalarField4(lambda x: c, lambda x: np.zeros(4), lambda x: np.zeros((4, 4)))


def test_estimate_A_requires_samples_and_conditioning():
    lam = Bubble(4, 1.0, (0.0,) * 4).as_field()
    with pytest.raises(ValueError):
        estimate_A(lam, 0.0, [[1.0, 0, 0, 0]])
    # lam^3 = 1e-330 underflows to 0 at every sample: A is undetermined;
    # at lam = 1e-52 the sum of lam^6 = 2e-312 is subnormal and keeps too few digits
    for c in (1e-110, 1e-52):
        with pytest.raises(IllConditionedError):
            estimate_A(_constant_field(c), 0.0, [[1.0, 0, 0, 0], [0, 1.0, 0, 0]])


def test_estimate_A_is_scale_covariant():
    # lam -> c lam sends A -> A / c^2, so a small lam^3 alone does not make the
    # fit ill-conditioned: a wide bubble (lam ~ 2e-3, lam^6 ~ 6e-17) still fits
    # A = -2, and a small constant fits its exact A = 0
    pts = np.random.default_rng(12).uniform(-3.0, 3.0, (12, 4))
    fit = estimate_A(Bubble(4, 1000.0, (0.0,) * 4).as_field(), 0.0, pts)
    assert fit.value == pytest.approx(-2.0, abs=1e-12)
    assert fit.fit_residual < 1e-12
    fit = estimate_A(_constant_field(1e-8), 0.0, [[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    assert (fit.value, fit.fit_residual) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# curvature bookkeeping
# ---------------------------------------------------------------------------

def test_codomain_scalar_curvature_identity_maps():
    for eps in (1.0, -1.0):
        assert codomain_scalar_curvature(-2.0 * eps, 0.0, 0.77) == pytest.approx(12.0 * eps)


def test_codomain_scalar_curvature_closed_cases():
    lam = 1.3
    assert codomain_scalar_curvature(-1.0, 3.0, lam) == pytest.approx(6.0 - 6.0 / lam**2)
    assert codomain_scalar_curvature(-1.0, -3.0, lam) == pytest.approx(6.0 + 6.0 / lam**2)
    with pytest.raises(DomainError):
        codomain_scalar_curvature(-1.0, 0.0, -0.1)


def test_curvature_law_sphere_identity():
    lam = classical_example("sphere_identity").field
    x = np.array([0.7, 0.1, -0.3, 0.2])
    assert curvature_law_residual(lam, 4, 0.0, 12.0, x) == pytest.approx(0.0, abs=1e-10)


def test_curvature_law_homothety():
    c = 1.9
    for n, a in ((4, 2.0), (5, -1.0)):
        lam = constant_field(c)
        R_g = n * a
        assert curvature_law_residual(lam, n, R_g, R_g / c**2, [1, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)


def test_curvature_law_inverse_radius_needs_rh_six():
    lam = classical_example("inverse_radius").field
    x = np.array([1.3, 0.2, 0, 0])
    rh = codomain_scalar_curvature(-1.0, 0.0, lam.value(x))
    assert rh == pytest.approx(6.0)
    assert curvature_law_residual(lam, 4, 0.0, rh, x) == pytest.approx(0.0, abs=1e-10)
    assert abs(curvature_law_residual(lam, 4, 0.0, 5.0, x)) > 1e-3


def test_curvature_law_consistent_with_codomain_formula():
    # plugging the field R_h(x) = -6A - 2a/lam^2 back in gives 6x the cubic
    # residual, so catalog solutions stay below 1e-6
    rng = np.random.default_rng(23)
    for entry in solution_catalog():
        rh_field = lambda x, e=entry: codomain_scalar_curvature(e.A, e.a, e.field.value(x))
        n_done = 0
        while n_done < 10:
            x = rng.uniform(-entry.grid_radius, entry.grid_radius, 4)
            if entry.field.distance_to_singular(x) < 0.1 or np.linalg.norm(x) > entry.grid_radius:
                continue
            res = curvature_law_residual(entry.field, 4, 4 * entry.a, rh_field, x)
            assert abs(res) < 1e-6
            n_done += 1


# ---------------------------------------------------------------------------
# tension norm and existence inequality
# ---------------------------------------------------------------------------

def test_tension_norm_constant_and_low_dim():
    assert tension_norm(constant_field(3.0), 4, [1, 1, 0, 0]) == 0.0
    lam = Bubble(4, 1.0, (0.0,) * 4).as_field()
    assert tension_norm(lam, 2, [0.5, 0, 0, 0]) == 0.0


def test_tension_norm_inverse_radius_hand_value():
    # |grad ln lam| = 1/|x| so the norm is (n-2) * lam * |x|^-1 = 2 at |x| = 1
    lam = classical_example("inverse_radius").field
    assert tension_norm(lam, 4, [0, 0, 1.0, 0]) == pytest.approx(2.0, abs=1e-12)


def test_aubin_condition_table():
    # strict inequality k < (n-2)/(4(n-1)) * n a; for n=4, k=a it reads a < 2a/3
    for a, expected in ((-3.0, True), (-0.1, True), (0.0, False), (0.1, False), (3.0, False)):
        assert aubin_condition(a, EinsteinDatum(4, a)) is expected
    with pytest.raises(UnsupportedDimensionError):
        aubin_condition(0.0, EinsteinDatum(3, 1.0))


def test_curved_biharmonic_residual_rejects_dimension_three():
    b3 = Bubble(3, 1.0, (0.0,) * 3).as_field()
    with pytest.raises(UnsupportedDimensionError):
        biharmonic_residual(b3, EinsteinDatum(3, 0.0), [0.3, -0.2, 0.5],
                            metric=ConformalMetricDescriptor.spherical())


# ---------------------------------------------------------------------------
# grids, reports, and the forward-direction sweep
# ---------------------------------------------------------------------------

def test_standard_grid_determinism_and_exclusions():
    s = (SingularLocus((0.0,) * 4),)
    g1 = standard_grid(50, 5.0, s)
    g2 = standard_grid(50, 5.0, s)
    assert np.array_equal(g1, g2)
    assert np.all(np.linalg.norm(g1, axis=1) <= 5.0)
    assert np.min(np.linalg.norm(g1, axis=1)) > 0.05
    g3 = standard_grid(50, 5.0, s, seed=1)
    assert not np.array_equal(g1, g3)


def _per_point_grid(n_points, radius, singular_set=(), exclusion=0.05, seed=None):
    """The grid filter one candidate at a time: same Halton blocks, same order."""
    sampler = qmc.Halton(d=4, scramble=seed is not None, seed=seed)
    out = []
    for _ in range(64):
        for p in (2.0 * sampler.random(4 * n_points) - 1.0) * radius:
            if float(p @ p) <= radius**2 and all(s.distance(p) >= exclusion for s in singular_set):
                out.append(p)
                if len(out) == n_points:
                    return np.asarray(out)
    raise ValueError("exclusions too aggressive")


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("singular_set", [(), (SingularLocus((0.3, 0.0, 0.0, 0.0)),),
                                          (SingularLocus((0.0,) * 4, 1.0),)],
                         ids=["none", "point", "unit-sphere"])
@pytest.mark.parametrize("radius", [0.9, 3.0, 5.0])
def test_standard_grid_equals_the_per_point_filter(radius, singular_set, seed):
    for n in (1, 60, 200, 800):
        got = standard_grid(n, radius, singular_set, seed=seed)
        want = _per_point_grid(n, radius, singular_set, seed=seed)
        assert got.shape == want.shape == (n, 4)
        assert got.tobytes() == want.tobytes()


def test_standard_grid_rejects_exclusions_that_leave_no_room():
    everywhere = (SingularLocus((0.0,) * 4),)
    with pytest.raises(ValueError, match="too aggressive"):
        standard_grid(10, 1.0, everywhere, exclusion=2.0)
    with pytest.raises(ValueError):
        _per_point_grid(10, 1.0, everywhere, exclusion=2.0)


def test_catalog_solves_both_equations_on_standard_grids():
    # forward direction: every declared family member satisfies the cubic
    # equation to 1e-6 and the 3rd-order system to 1e-5 on its grid
    for entry in solution_catalog():
        grid = standard_grid(200, entry.grid_radius, entry.field.singular_set)
        ry = residual_report("yamabe", entry.field, grid, a=entry.a, A=entry.A)
        rb = residual_report("biharmonic", entry.field, grid, datum=EinsteinDatum(4, entry.a))
        assert ry.sup < 1e-6, entry.name
        assert rb.sup < 1e-5, entry.name
        assert ry.sup >= ry.rms >= 0.0


def test_perturbation_breaks_catalog_fields():
    for entry in solution_catalog():
        grid = standard_grid(200, entry.grid_radius, entry.field.singular_set)
        pf = perturbed(entry.field)
        ry = residual_report("yamabe", pf, grid, a=entry.a, A=entry.A)
        rb = residual_report("biharmonic", pf, grid, datum=EinsteinDatum(4, entry.a))
        assert ry.sup > 1e-2, entry.name
        assert rb.sup > 1e-2, entry.name


def test_characterization_scan_on_R4():
    # Caffarelli-Gidas-Spruck (1989): the positive solutions of the cubic
    # equation on R^4 with A < 0 are the bubbles.  Over single-term factors
    # q^p, q = c2 x^T diag(1, 1, 1, m) x + c0, the exact flat biharmonic
    # residual vanishes on exactly the bubbles, 1/|x|, 1/|x|^2 and the ball
    # models, and stays order one on every other candidate.
    sups = {}
    for c2 in (1.0, -1.0):
        for m in (1.0, 0.5, -1.0):
            for c0 in (1.0, 0.25, 0.0):
                if c2 < 0 and m > 0 and c0 == 0:
                    continue  # q < 0 everywhere
                radius = 0.9 * math.sqrt(c0) if c2 < 0 < c0 else 3.0
                grid = standard_grid(60, radius)
                for p in np.arange(-2.0, 1.25, 0.25):
                    if p == 0:
                        continue
                    term = (c2 * np.diag([1.0, 1.0, 1.0, m]), np.zeros(4), c0, p)
                    lam = LogQuadratic(1.0, (term,)).field()
                    sups[c2, m, c0, p] = residual_report("biharmonic", lam, grid, datum=FLAT4).sup
    assert len(sups) == 192
    solutions = {key for key, sup in sups.items() if sup < 1e-8}
    assert solutions == {(1.0, 1.0, 1.0, -1.0), (1.0, 1.0, 0.25, -1.0),      # bubbles
                         (1.0, 1.0, 0.0, -0.5), (1.0, 1.0, 0.0, -1.0),       # 1/|x|, 1/|x|^2
                         (-1.0, 1.0, 1.0, -1.0), (-1.0, 1.0, 0.25, -1.0)}    # ball models
    assert min(sup for key, sup in sups.items() if key not in solutions) > 0.1


def test_estimate_A_recovers_catalog_constants():
    rng = np.random.default_rng(31)
    for entry in solution_catalog():
        pts = []
        while len(pts) < 12:
            x = rng.uniform(-entry.grid_radius, entry.grid_radius, 4)
            if np.linalg.norm(x) <= entry.grid_radius and entry.field.distance_to_singular(x) > 0.2:
                pts.append(x)
        fit = estimate_A(entry.field, entry.a, pts)
        assert fit.value == pytest.approx(entry.A, abs=1e-8), entry.name
        assert fit.fit_residual < 1e-8


def test_residual_report_counts_domain_failures():
    lam = classical_example("inverse_radius").field
    grid = np.vstack([np.zeros(4), np.ones(4)])
    rep = residual_report("yamabe", lam, grid, a=0.0, A=-1.0)
    assert rep.n_failed == 1
    assert rep.n_points == 1


def test_residual_report_validates_norm_ordering():
    with pytest.raises(ValueError):
        ResidualReport("yamabe", sup=1.0, rms=2.0, n_points=3, n_failed=0, params={}, grid={})


def _yamabe_cases():
    cases = []
    for entry in solution_catalog():
        cases.append(pytest.param(entry.field, entry.a, entry.A, entry.grid_radius, id=entry.name))
        cases.append(pytest.param(perturbed(entry.field), entry.a, entry.A, entry.grid_radius,
                                  id=f"perturbed {entry.name}"))
    T = random_transform(np.random.default_rng(8), 2)
    cases += [pytest.param(mobius_conformal_factor(T, p), 3.0, -1.0, 3.0, id=p) for p in PAIRINGS]
    return cases


def _counting(lam, calls):
    """lam with evaluators that record the name of each one called; a closed form stays attached."""
    def count(slot, fn):
        return None if fn is None else (lambda x: calls.append(slot) or fn(x))
    return dataclasses.replace(lam, value=count("value", lam.value), grad=count("grad", lam.grad),
                               hess=count("hess", lam.hess))


@pytest.mark.parametrize("metric", [ConformalMetricDescriptor.flat(), ConformalMetricDescriptor.spherical()],
                         ids=["flat", "spherical"])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "value-only"])
@pytest.mark.parametrize("lam, a, A, radius", _yamabe_cases())
def test_yamabe_report_rows_are_the_pointwise_residual(lam, a, A, radius, closed, metric):
    # a closed-form factor reads its jets and calls no evaluator; any other
    # field takes one stencil of 2n + 1 = 9 values per row, against 10 (flat)
    # and 18 (spherical) for separate gradient and Laplacian differences
    if not closed:
        lam = ScalarField4(lam.value, singular_set=lam.singular_set, name="value-only")
    calls = []
    grid = standard_grid(40, radius, lam.singular_set)
    rep = residual_report("yamabe", _counting(lam, calls), grid, a=a, A=A, metric=metric)
    assert rep.n_failed == 0
    assert len(calls) == (0 if closed else 9 * len(grid))
    for x, got in zip(grid, rep.values):
        assert got == abs(yamabe_residual(lam, a, A, x, metric=metric))
        # the per-point operator of the fields module: the same to roundoff of its largest term
        v = lam.value(x)
        terms = (laplace_beltrami(lam, metric, x), a * v, A * v**3)
        want = terms[0] - terms[1] - terms[2]
        assert abs(got - abs(want)) <= max(1e-12 * max(map(abs, terms)), 1e-14)


# the per-point operators of the fields module, at the point x with step h
_POINT_OPERATORS = {
    "gradient": gradient,
    "laplacian_flat": laplacian_flat,
    "laplace_beltrami": lambda lam, x, h: laplace_beltrami(lam, ConformalMetricDescriptor.spherical(), x, h),
    "fd_consistency": fd_consistency,
    "fd_gradient": lambda lam, x, h: fd_gradient(lam.value, x, h),
    "fd_laplacian": lambda lam, x, h: fd_laplacian(lam.value, x, h),
}


@pytest.mark.parametrize("equation", ["yamabe", "biharmonic", "einstein_form", *_POINT_OPERATORS])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "value-only"])
@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_step_must_be_finite_and_positive(h, closed, equation):
    lam = Bubble(4, 1.0, (0.0,) * 4).as_field()
    if not closed:
        lam = ScalarField4(lam.value)
    grid = standard_grid(5, 5.0)
    if equation in _POINT_OPERATORS:
        calls = (lambda: _POINT_OPERATORS[equation](lam, grid[0], h),)
    elif equation == "yamabe":
        calls = (lambda: residual_report("yamabe", lam, grid, a=0.0, A=-2.0, h=h),
                 lambda: yamabe_residual(lam, 0.0, -2.0, grid[0], h=h))
    else:
        calls = (lambda: residual_report(equation, lam, grid, datum=FLAT4, h=h),
                 lambda: (biharmonic_residual if equation == "biharmonic" else einstein_form_residual)(
                     lam, FLAT4, grid[0], h=h))
    for call in calls:
        with pytest.raises(ValueError, match="finite and positive"):
            call()


@pytest.mark.parametrize("operator", ["sobolev.radial", "sobolev.tensor", "gradient", "laplacian_flat",
                                      "laplace_beltrami"])
def test_evaluator_calls_per_node_and_per_point(operator):
    # what the benchmark pays: a Sobolev node of a grad-only field costs one
    # value and one grad call, a per-point operator on a value-only field one
    # stencil of 2n + 1 = 9 values, and a closed form no call at all
    b = Bubble(4, 1.3, (0.1, 0.2, -0.3, 0.0)).as_field()
    if operator.startswith("sobolev"):
        method = operator.split(".")[1]
        run = lambda lam: sobolev_quotient(lam, 4, center=(0.1, 0.2, -0.3, 0.0), method=method, tensor_nodes=3)
        copy, want = ScalarField4(b.value, b.grad), (588 if method == "radial" else 3**4) * ["value", "grad"]
    else:
        run = lambda lam: _POINT_OPERATORS[operator](lam, np.array([0.4, -0.3, 0.2, 0.6]), 1e-4)
        copy, want = ScalarField4(b.value), 9 * ["value"]
    for lam, expected in ((b, []), (copy, want)):
        calls = []
        run(_counting(lam, calls))
        assert sorted(calls) == sorted(expected)

