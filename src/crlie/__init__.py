"""crlie: exact verification of CR, Kahler-CR and pseudo-Poisson structures
on finite-dimensional Lie algebras given by rational structure constants."""

from .linalg import Matrix, Rational, Subspace, Vector, kernel, rat, solve, vector
from .lie import LieAlgebra, StructureError, heisenberg3, sl2, so3
from .multivector import (
    Bivector, Trivector, derive, in_wedge_subspace, push, schouten, wedge, wedge3,
)
from .crkahler import (
    CRData, KahlerCRData, LeftSymmetricProduct, build_extension, center_U,
    check_cr, check_kahler, check_left_symmetric, ideal_complement_complex,
    induced_bracket, left_symmetric_product, omega_radical, semisimple_exactness,
)
from .poisson import (
    PseudoPoissonData, check_cocycle, check_j_invariance, check_pseudo_poisson,
    coboundary_delta, coboundary_pi, product_structure,
)
from .report import CheckResult, Report
from .inputdoc import (
    InputError, Payloads, algebra_document, dump_document, parse_document, parse_text,
)
from .checks import run_checks
from . import catalog

__all__ = [
    "Matrix", "Rational", "Subspace", "Vector", "kernel", "rat", "solve", "vector",
    "LieAlgebra", "StructureError", "heisenberg3", "sl2", "so3",
    "Bivector", "Trivector", "derive", "in_wedge_subspace", "push", "schouten",
    "wedge", "wedge3",
    "CRData", "KahlerCRData", "LeftSymmetricProduct", "build_extension",
    "center_U", "check_cr", "check_kahler", "check_left_symmetric",
    "ideal_complement_complex", "induced_bracket", "left_symmetric_product",
    "omega_radical",
    "semisimple_exactness",
    "PseudoPoissonData", "check_cocycle", "check_j_invariance",
    "check_pseudo_poisson", "coboundary_delta", "coboundary_pi",
    "product_structure",
    "CheckResult", "Report",
    "InputError", "Payloads", "algebra_document", "dump_document",
    "parse_document", "parse_text",
    "run_checks", "catalog",
]

__version__ = "0.1.0"
