"""Exact symbolic engine for commutative differential graded algebras over Q.

The package builds free graded-commutative algebras with rational
coefficients, equips them with differentials, computes cohomology by exact
linear algebra over monomial bases, and mechanizes the model constructions
used for biquotients and projectivized quaternionic bundles.
"""

from sullivan.gradedalg import Generator, Monomial, Polynomial, basis_of_degree, substitute
from sullivan.cdga import (
    FreeCDGA,
    Morphism,
    apply_d,
    cancel_acyclic_pair,
    change_of_variable,
    compose_and_check,
    rename_generators,
    tensor,
    validate,
)
from sullivan.cohomology import (
    CohomologyReport,
    RingPresentation,
    betti,
    cup_product,
    is_quasi_iso,
    quotient_ring_dims,
)
from sullivan.constructors import (
    ClassifyingData,
    PontryaginData,
    biquotient_model,
    bsp_model,
    hp_model,
    projectivize,
    pure_check,
    sphere_model,
)
from sullivan.reduction import ReductionLog, find_reducible, reduce, replay
from sullivan.dsl import (
    DslError,
    parse_classifying,
    parse_expression,
    parse_model,
    parse_morphism,
    parse_pontryagin,
    render_model,
    render_morphism,
)
from sullivan.presets import (
    CASES,
    classifying_data,
    comparison_morphism,
    data_files,
    data_text,
    pontryagin_setup,
)
from sullivan.verify import render_report, run_all, run_case

__version__ = "0.1.0"
