"""Numerical toolkit for the existence criterion of perturbed
Moser-Trudinger extremals: Green/Robin geometry, radial correction
profiles, concentration bubbles, the limit ratio criterion, and the
constrained variational solvers, with a batch CLI front-end."""

from .perturbation import (
    PerturbationFamily,
    FamilyKind,
    AsymptoticData,
    NonAdmissibleError,
    ExponentBudgetError,
    asymptotic_data,
    eval_g,
    eval_H,
    eval_psi_N,
    phi_N,
    xi,
)
from .domain import (
    DomainModel,
    Shape,
    RobinReport,
    PoleCoincidenceError,
    DegenerateMaxError,
    first_bessel_zero,
    lambda1,
    robin_report,
)
from .profiles import (
    RadialProfile,
    StepFailureError,
    solve_profile,
    laplacian_profile,
    profile_integrals,
    s0_explicit,
)
from .bubble import (
    BubbleSolution,
    ExpansionReport,
    BlowDownError,
    shoot_bubble,
    verify_expansion,
    verify_source_expansion,
    ladder_reports,
)
from .criterion import (
    CriterionReport,
    Verdict,
    Cor2Class,
    ratio_value,
    closed_form_l,
    limit_l,
    classify,
    cor2_classifier,
    ratio_curve_csv,
    LOG_GAMMA_GRID,
)
from .variational import (
    ExtremalRun,
    RootFailError,
    solve_subcritical,
    lambda_g_report,
    step1_testfun,
    model_testfun_energy,
)

__version__ = "1.0.0"

__all__ = [
    "PerturbationFamily", "FamilyKind", "AsymptoticData",
    "NonAdmissibleError", "ExponentBudgetError", "asymptotic_data",
    "eval_g", "eval_H", "eval_psi_N", "phi_N", "xi",
    "DomainModel", "Shape", "RobinReport", "PoleCoincidenceError",
    "DegenerateMaxError", "first_bessel_zero", "lambda1", "robin_report",
    "RadialProfile", "StepFailureError", "solve_profile",
    "laplacian_profile", "profile_integrals", "s0_explicit",
    "BubbleSolution", "ExpansionReport", "BlowDownError", "shoot_bubble",
    "verify_expansion", "verify_source_expansion", "ladder_reports",
    "CriterionReport", "Verdict", "Cor2Class",
    "ratio_value", "closed_form_l", "limit_l", "classify",
    "cor2_classifier", "ratio_curve_csv",
    "LOG_GAMMA_GRID",
    "ExtremalRun", "RootFailError",
    "solve_subcritical", "lambda_g_report",
    "step1_testfun", "model_testfun_energy",
    "__version__",
]
