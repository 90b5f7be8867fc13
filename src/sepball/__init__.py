"""Separable neighborhoods of the identity in tensor products of matrix
algebras: cb-norm sandwiches, entanglement witnesses, and the rank
formula constants, all with checkable certificates."""

from .algebra import (
    BipartiteElement,
    FdAlgebra,
    assemble,
    identity_minus,
)
from .cbnorm import (
    CbNormResult,
    MajorizingPair,
    SearchBudget,
    amplification_norm,
    cb_norm,
    cb_upper_sdp,
    closed_form,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    HermiticityError,
    PositivityError,
    SchemaError,
    SepballError,
    SizeCapError,
)
from .maps import (
    LinearMapRep,
    apply_to_second_leg,
    embedded_transpose,
    identity_map,
    reduction_map,
    transpose_map,
)
from .sdp import SdpOptions, SdpProblem, SdpSolution, hermitian_basis, solve
from .separability import (
    ScanReport,
    SepVerdict,
    WitnessData,
    entanglement_witness,
    extremal_direction,
    extremal_entangled,
    ppt_check,
    sep_ball_scan,
)
from .theorems import (
    KappaReport,
    RankFormulaReport,
    eta_certificate,
    gamma_certificate,
    kappa_matrix_check,
    rank_formula_report,
    symbolic_rank_values,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteElement",
    "CbNormResult",
    "ConvergenceError",
    "DimensionError",
    "FdAlgebra",
    "HermiticityError",
    "KappaReport",
    "LinearMapRep",
    "MajorizingPair",
    "PositivityError",
    "RankFormulaReport",
    "ScanReport",
    "SchemaError",
    "SdpOptions",
    "SdpProblem",
    "SdpSolution",
    "SearchBudget",
    "SepVerdict",
    "SepballError",
    "SizeCapError",
    "WitnessData",
    "amplification_norm",
    "apply_to_second_leg",
    "assemble",
    "cb_norm",
    "cb_upper_sdp",
    "closed_form",
    "embedded_transpose",
    "entanglement_witness",
    "eta_certificate",
    "extremal_direction",
    "extremal_entangled",
    "gamma_certificate",
    "hermitian_basis",
    "identity_map",
    "identity_minus",
    "kappa_matrix_check",
    "ppt_check",
    "rank_formula_report",
    "reduction_map",
    "sep_ball_scan",
    "solve",
    "symbolic_rank_values",
    "transpose_map",
]
