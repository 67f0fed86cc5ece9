"""Biharmonic conformal maps between 4-dimensional space forms.

Residual verification of the conformal-factor equations, the closed-form
solution catalog, the Mobius-transformation classification, and numerical
solvers for the reduced equation Delta lam - a lam = A lam^3 in radial,
axisymmetric, and periodic symmetry classes.
"""

from .fields import (
    ConformalMetricDescriptor,
    DomainError,
    EinsteinDatum,
    ScalarField4,
    SingularLocus,
    fd_consistency,
    gradient,
    laplace_beltrami,
    laplacian_flat,
)
from .families import (
    AccuracyWarning,
    Bubble,
    CatalogEntry,
    classical_example,
    cylinder_map,
    sobolev_best_constant,
    sobolev_quotient,
    solution_catalog,
)
from .mobius import (
    MobiusTransform,
    TransformParseError,
    Verdict,
    classify_many,
    classify_mobius,
    mobius_apply,
    mobius_compose,
    mobius_conformal_factor,
    mobius_normal_form,
    parse_transform,
)
from .residuals import (
    ConstantA,
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
from .solver import (
    BranchError,
    BranchPoint,
    ConvergenceError,
    PositivityError,
    RadialProfile,
    bifurcation_points,
    continue_branch,
    solve_radial_r4,
    solve_s4,
    solve_torus,
)

__version__ = "0.1.0"
