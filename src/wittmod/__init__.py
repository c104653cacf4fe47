"""Exact tensor-field modules over Witt algebras, with an sl3 analysis engine.

Layers, bottom up:

* ``scalars`` - exact rational-function arithmetic in the module
  parameters, with a text printer and certified factorization helpers.
* ``tensor`` - tensor-field modules over the rank-n Witt algebra and the
  twisted de Rham differential.
* ``glmod`` - input gl_n modules: explicit finite-dimensional ones (wedge
  powers included) and the cuspidal gl_2 family, acting fibrewise on
  ``tensor`` elements.
* ``sl3`` - the embedded sl3 action for n = 2 with the cuspidal input:
  closed formulas, the Witt-route cross-check, genericity conditions and
  the truncation-operator identities.
* ``engine`` - windowed analysis: closures, generation/irreducibility,
  singular vectors, the recursion obstruction oracle, index-leakage and
  centrality checks.
* ``cli`` - one subcommand per check, canonical JSON reports.
"""

from .scalars import (
    ParamPolynomial,
    Scalar,
    factor_linear_in_iota,
    factor_polynomial,
    scalar_to_text,
)
from .tensor import (
    ModuleElement,
    WittGenerator,
    act_witt,
    de_rham_differential,
    element_to_json,
    jacobi_residual,
    witt_bracket_residual,
)
from .glmod import (
    CuspidalGl2,
    FinDimGlModule,
    exterior_power,
    verify_gl_brackets,
)
from .sl3 import (
    DEFAULT_VALUES,
    DEGENERATE_VALUES,
    Params,
    act_embedded,
    act_gen,
    act_word,
    basis_element,
    check_generic,
    parse_word,
    proof_identity_report,
    verify_embedding,
    verify_sl3_brackets,
)
from .engine import (
    DEFAULT_WORDS,
    SubspaceBasis,
    Window,
    bracket_report,
    check_degenerate_reducibility,
    check_generation,
    check_irreducible,
    closure,
    derham_report,
    find_singular_vectors,
    gt_central_check,
    gt_obstruction,
    recursion_factorization_oracle,
    witt_consistency_report,
)
from .report import aggregate_verdict, canonical_json, exit_code_for

__version__ = "0.1.0"

__all__ = [
    "ParamPolynomial", "Scalar",
    "factor_linear_in_iota", "factor_polynomial", "scalar_to_text",
    "ModuleElement", "WittGenerator", "act_witt", "de_rham_differential",
    "element_to_json", "jacobi_residual", "witt_bracket_residual",
    "CuspidalGl2", "FinDimGlModule", "exterior_power", "verify_gl_brackets",
    "DEFAULT_VALUES", "DEGENERATE_VALUES", "Params",
    "act_embedded", "act_gen", "act_word", "basis_element", "check_generic",
    "parse_word", "proof_identity_report", "verify_embedding", "verify_sl3_brackets",
    "DEFAULT_WORDS", "SubspaceBasis", "Window", "bracket_report",
    "check_degenerate_reducibility", "check_generation", "check_irreducible",
    "closure", "derham_report", "find_singular_vectors", "gt_central_check",
    "gt_obstruction", "recursion_factorization_oracle", "witt_consistency_report",
    "aggregate_verdict", "canonical_json", "exit_code_for",
    "__version__",
]
