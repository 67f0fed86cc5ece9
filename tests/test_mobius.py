"""Mobius transforms: factors, normal forms, composition, classification."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biharm4.fields import ConformalMetricDescriptor, DomainError, EinsteinDatum, fd_laplacian
from biharm4.mobius import (
    PAIRINGS,
    MobiusTransform,
    TransformParseError,
    classify_mobius,
    mobius_apply,
    mobius_compose,
    mobius_conformal_factor,
    mobius_normal_form,
    parse_transform,
    random_orthogonal,
    random_transform,
    sphere_isometry,
    transform_literal,
)
from biharm4.residuals import estimate_A, residual_report, standard_grid, tension_norm

I4 = tuple(map(tuple, np.eye(4)))


def test_apply_inversion_and_affine():
    inv = MobiusTransform.inversion()
    assert np.allclose(mobius_apply(inv, [2.0, 0, 0, 0]), [0.5, 0, 0, 0])
    ident = MobiusTransform.identity()
    x = np.array([0.3, -1.0, 2.0, 0.7])
    assert np.allclose(mobius_apply(ident, x), x)
    shift = MobiusTransform((1.0, 2.0, 3.0, 4.0), (0.0,) * 4, 1.0, I4, 0)
    assert np.allclose(mobius_apply(shift, x), x + np.array([1, 2, 3, 4]))


def test_apply_pole_is_domain_error():
    T = MobiusTransform((0.0,) * 4, (1.0, 0, 0, 0), 1.0, I4, 2)
    with pytest.raises(DomainError):
        mobius_apply(T, [1.0, 0, 0, 0])


def test_transform_validation():
    with pytest.raises(ValueError):
        MobiusTransform((0.0,) * 4, (0.0,) * 4, 0.0, I4, 2)
    with pytest.raises(ValueError):
        MobiusTransform((0.0,) * 4, (0.0,) * 4, 1.0, I4, 1)
    bad_q = tuple(map(tuple, np.eye(4) * 1.001))
    with pytest.raises(ValueError):
        MobiusTransform((0.0,) * 4, (0.0,) * 4, 1.0, bad_q, 0)


def test_flat_flat_factors():
    inv = MobiusTransform.inversion()
    lam = mobius_conformal_factor(inv, "flat-flat")
    x = np.array([0.0, 2.0, 0, 0])
    assert lam.value(x) == pytest.approx(0.25)
    # the factor's Laplacian carries the alpha prefactor: for
    # lam = alpha |x-b|^(-eps), Delta lam = alpha eps(eps-2) |x-b|^(-eps-2);
    # checked at a hypothetical eps = 1 where the bracket does not vanish
    from biharm4.fields import radial_power_field

    alpha = 2.0
    probe = radial_power_field(-1.0, coeff=alpha)
    r = float(np.linalg.norm(x))
    assert fd_laplacian(probe.value, x, 1e-4) == pytest.approx(alpha * 1.0 * (1.0 - 2.0) * r**-3, abs=1e-6)


def test_flat_sphere_identity_factor_is_chart_factor():
    T = MobiusTransform.identity()
    lam = mobius_conformal_factor(T, "flat-sphere")
    x = np.array([1.0, 0, 0, 0])
    assert lam.value(x) == pytest.approx(1.0)  # 2/(1+1)
    assert lam.value(np.zeros(4)) == pytest.approx(2.0)


def test_factor_composition_rule_through_the_chart():
    # factor of (chart leg) o (mobius leg) = nu(phi(x)) * mu(x)
    rng = np.random.default_rng(7)
    for eps in (0, 2):
        T = random_transform(rng, eps)
        lam = mobius_conformal_factor(T, "flat-sphere")
        mu = mobius_conformal_factor(T, "flat-flat")
        for _ in range(20):
            x = rng.uniform(-3, 3, 4)
            if eps == 2 and np.linalg.norm(x - T.in_vec) < 0.1:
                continue
            y = mobius_apply(T, x)
            nu = 2.0 / (1.0 + float(y @ y))
            assert lam.value(x) == pytest.approx(nu * mu.value(x), rel=1e-12, abs=1e-12)


def test_sphere_domain_factors():
    T = MobiusTransform.inversion()
    lam_sf = mobius_conformal_factor(T, "sphere-flat")
    x = np.array([2.0, 0, 0, 0])
    # (1+|x|^2)/2 * 1/|x|^2 at |x| = 2
    assert lam_sf.value(x) == pytest.approx(2.5 * 0.25)
    lam_ss = mobius_conformal_factor(T, "sphere-sphere")
    # inversion maps the chart sphere to itself isometrically... not for
    # alpha = 1: the factor is (1+|x|^2)/2 * 2/(1+|x|^(-2)*|x|^2...)
    assert lam_ss.value(x) > 0


def test_normal_form_examples():
    nf = mobius_normal_form(MobiusTransform.inversion())
    assert nf.delta == pytest.approx(1.0)
    assert np.allclose(nf.x0, np.zeros(4))

    T = MobiusTransform((0.0,) * 4, (0.0,) * 4, 2.0, I4, 0)
    nf = mobius_normal_form(T)
    assert nf.delta == pytest.approx(0.5)
    assert np.allclose(nf.x0, np.zeros(4))

    a = (1.0, 0.0, 0.0, 0.0)
    T = MobiusTransform(a, (0.0,) * 4, 2.0, I4, 2)
    nf = mobius_normal_form(T)
    assert nf.delta == pytest.approx(1.0)
    assert np.allclose(nf.x0, -np.asarray(a))


@pytest.mark.parametrize("eps", [0, 2])
def test_normal_form_reproduces_factor_pointwise(eps):
    rng = np.random.default_rng(50 + eps)
    for _ in range(50):
        T = random_transform(rng, eps)
        lam = mobius_conformal_factor(T, "flat-sphere")
        nf = mobius_normal_form(T)
        assert nf.delta > 0
        for _ in range(2):
            x = rng.uniform(-4, 4, 4)
            assert abs(lam.value(x) - nf.value(x)) < 1e-10


def test_composition_group_closure():
    rng = np.random.default_rng(9)
    for _ in range(12):
        T1 = random_transform(rng, int(rng.integers(0, 2) * 2))
        T2 = random_transform(rng, int(rng.integers(0, 2) * 2))
        T = mobius_compose(T2, T1)
        mu = mobius_conformal_factor(T1, "flat-flat")
        nu = mobius_conformal_factor(T2, "flat-flat")
        lam = mobius_conformal_factor(T, "flat-flat")
        for _ in range(10):
            x = rng.uniform(-3, 3, 4)
            try:
                y = mobius_apply(T1, x)
                z = mobius_apply(T2, y)
                w = mobius_apply(T, x)
            except DomainError:
                continue
            assert np.max(np.abs(z - w)) < 1e-10 * max(1.0, np.max(np.abs(z)))
            assert abs(nu.value(y) * mu.value(x) - lam.value(x)) < 1e-10


# translations on a half-integer lattice: two inversion centres either
# coincide exactly (the affine branch of mobius_compose) or sit 0.5 apart
_LATTICE = st.tuples(*[st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])] * 4)
_ROTATION = st.one_of(st.just(np.eye(4)),
                      st.integers(0, 2**32 - 1).map(lambda s: random_orthogonal(np.random.default_rng(s))))


def _transforms(translations):
    return st.builds(lambda a, b, alpha, Q, eps: MobiusTransform(a, b, alpha, tuple(map(tuple, Q)), eps),
                     translations, translations, st.floats(0.25, 4.0), _ROTATION, st.sampled_from([0, 2]))


_TRANSFORMS = _transforms(_LATTICE)
_POINTS = st.tuples(*[st.floats(-3.0, 3.0)] * 4).map(np.array)


def _chain(x, *Ts):
    """x pushed through each transform in turn, or None within 0.1 of a pole."""
    for T in Ts:
        if T.eps == 2 and np.linalg.norm(x - T.in_vec) < 0.1:
            return None
        x = mobius_apply(T, x)
    return x


def _same_point(got, want):
    return np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(T1=_TRANSFORMS, T2=_TRANSFORMS, T3=_TRANSFORMS, x=_POINTS)
def test_composition_is_associative(T1, T2, T3, x):
    want = _chain(x, T1, T2, T3)
    assume(want is not None)
    left = mobius_compose(T3, mobius_compose(T2, T1))
    right = mobius_compose(mobius_compose(T3, T2), T1)
    assert _same_point(mobius_apply(left, x), want)
    assert _same_point(mobius_apply(right, x), want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(T=_TRANSFORMS, x=_POINTS)
def test_composition_has_a_two_sided_identity(T, x):
    E = MobiusTransform((0,) * 4, (0,) * 4, 1.0, I4, 0)
    want = _chain(x, T)
    assume(want is not None)
    assert _same_point(mobius_apply(mobius_compose(E, T), x), want)
    assert _same_point(mobius_apply(mobius_compose(T, E), x), want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(T=_transforms(st.tuples(*[st.floats(-1e6, 1e6)] * 4)))
def test_transform_literal_round_trips(T):
    assert parse_transform(transform_literal(T)) == T


def test_composition_inversion_cancels_to_affine():
    inv = MobiusTransform.inversion()
    T = mobius_compose(inv, inv)
    assert T.eps == 0
    x = np.array([0.3, 0.7, -0.2, 0.5])
    assert np.allclose(mobius_apply(T, x), x)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_flat_flat():
    v = classify_mobius(MobiusTransform.inversion(), "flat-flat")
    assert v.classification == "proper_biharmonic"
    assert v.evidence["biharmonic_residual_sup"] < 1e-5
    assert v.evidence["tension_sup"] > 0
    assert v.evidence["fitted_A"] == pytest.approx(0.0, abs=1e-10)

    v = classify_mobius(MobiusTransform.identity(), "flat-flat")
    assert v.classification == "harmonic"


def test_classify_flat_sphere_is_always_proper():
    rng = np.random.default_rng(77)
    for eps in (0, 2):
        T = random_transform(rng, eps)
        v = classify_mobius(T, "flat-sphere")
        assert v.classification == "proper_biharmonic"
        assert v.evidence["biharmonic_residual_sup"] < 1e-5
        assert v.evidence["tension_sup"] > 0
        assert v.evidence["normal_form_error"] < 1e-10
        # the factor solves the cubic equation with A = -2 in the a = 0 chart
        assert v.evidence["fitted_A"] == pytest.approx(-2.0, abs=1e-8)


def test_classify_sphere_flat_never_biharmonic():
    rng = np.random.default_rng(41)
    for eps in (0, 2):
        for _ in range(3):
            T = random_transform(rng, eps)
            v = classify_mobius(T, "sphere-flat")
            assert v.classification == "not_biharmonic"
            assert v.evidence["biharmonic_residual_sup"] > 1e-2


def test_classify_sphere_sphere_isometry_locus():
    rng = np.random.default_rng(13)
    for eps in (0, 2):
        Q = random_orthogonal(rng)
        t_out = rng.uniform(-1, 1, 4)
        T = sphere_isometry(eps, Q, t_out)
        v = classify_mobius(T, "sphere-sphere")
        assert v.classification == "harmonic"
        assert v.evidence["factor_range"] < 1e-12

        # a 1% change of alpha leaves the locus and the factor moves
        T2 = MobiusTransform(T.t_out, T.t_in, 1.01 * T.alpha, T.Q, eps)
        v2 = classify_mobius(T2, "sphere-sphere")
        assert v2.classification == "not_biharmonic"
        assert v2.evidence["factor_range"] > 1e-3


def test_classify_sphere_sphere_rotation_example():
    Q = random_orthogonal(np.random.default_rng(4))
    T = MobiusTransform((0.0,) * 4, (0.0,) * 4, 1.0, tuple(map(tuple, Q)), 0)
    v = classify_mobius(T, "sphere-sphere")
    assert v.classification == "harmonic"


def _agrees(got, want, abs_tol=1e-14):
    return abs(got - want) <= max(1e-12 * abs(want), abs_tol)


def _audit_cases():
    rng = np.random.default_rng(2024)
    cases = [(random_transform(rng, eps), pairing) for pairing in PAIRINGS for eps in (0, 2) for _ in range(3)]
    cases += [(sphere_isometry(eps, random_orthogonal(rng), rng.uniform(-1, 1, 4)), "sphere-sphere")
              for eps in (0, 2) for _ in range(3)]
    return cases


@pytest.mark.parametrize("T, pairing", _audit_cases())
def test_classify_evidence_matches_the_pointwise_functions(T, pairing):
    v = classify_mobius(T, pairing)
    ev = v.evidence
    factor = mobius_conformal_factor(T, pairing)
    spherical = pairing.startswith("sphere")
    metric = ConformalMetricDescriptor.spherical() if spherical else ConformalMetricDescriptor.flat()
    grid = standard_grid(60, 3.0 if spherical else 5.0, factor.singular_set)
    assert ev["n_points"] == len(grid) == 60

    report = residual_report("biharmonic", factor, grid, datum=EinsteinDatum(4, ev["einstein_a"]), metric=metric)
    assert _agrees(ev["biharmonic_residual_sup"], report.sup)
    assert _agrees(ev["tension_sup"], max(tension_norm(factor, 4, p, metric=metric) for p in grid))
    if spherical:
        assert "fitted_A" not in ev
    else:
        fit = estimate_A(factor, 0.0, grid[:12])
        assert ev["fitted_A"] == fit.value
        assert ev["fit_residual"] == fit.fit_residual
    if pairing == "sphere-sphere":
        values = [factor.value(p) for p in grid]
        assert _agrees(ev["factor_range"], max(values) - min(values))


def test_classify_flat_pairings_need_two_fit_points():
    T = MobiusTransform.inversion()
    for pairing in ("flat-flat", "flat-sphere"):
        with pytest.raises(ValueError):
            classify_mobius(T, pairing, n_points=1)
    assert classify_mobius(T, "sphere-flat", n_points=1).evidence["n_points"] == 1


# ---------------------------------------------------------------------------
# the CLI literal format
# ---------------------------------------------------------------------------

def test_parse_transform_literal():
    T = parse_transform("eps=2 alpha=1.5 tout=0,0,0,0 tin=1,0,0,0 Q=identity")
    assert T.eps == 2 and T.alpha == 1.5
    assert T.t_in == (1.0, 0.0, 0.0, 0.0)
    # 16-entry row-major orthogonal matrix
    q = ",".join(str(v) for v in np.eye(4).ravel())
    T2 = parse_transform(f"eps=0 alpha=1 Q={q}")
    assert T2.q_matrix.tolist() == np.eye(4).tolist()


def test_parse_transform_round_trip():
    rng = np.random.default_rng(2)
    T = random_transform(rng, 2)
    T2 = parse_transform(transform_literal(T))
    assert T2 == T


def test_parse_transform_rejects_garbage():
    with pytest.raises(TransformParseError):
        parse_transform("eps=2 alpha=abc")
    with pytest.raises(TransformParseError):
        parse_transform("tout=1,2")
    with pytest.raises(TransformParseError):
        parse_transform("nonsense")
    with pytest.raises(ValueError):
        parse_transform("eps=0 alpha=1 Q=" + ",".join(["1.0"] * 15) + ",2.0")
