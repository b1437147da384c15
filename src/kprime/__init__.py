"""Prime implicate compilation for modal logic K.

Parse formulas, convert them to modal clauses, compile a knowledge base
into its prime implicates with the direct resolution calculus, and answer
entailment queries from the compiled set.  A tableau decides K entailment,
except for the clause pairs the compiler's residue settles by structure
(pic.entails_structurally); a bounded brute-force enumerator provides
independent ground truth at test scale.
"""

from .brute import enumerate_clauses, prime_implicates_brute
from .cnf import nnf, single_clause, to_cnf
from .errors import (
    BudgetExceeded,
    ClauseBudgetExceeded,
    KPrimeError,
    ParseError,
    RecursionDepthExceeded,
    TableauBudgetExceeded,
)
from .normalization import make_clause, make_cnf, simplify, simplify_cnf
from .parser import parse, render
from .pic import (
    EntailmentOracle,
    PicConfig,
    PicResult,
    StageRecord,
    covering_implicate,
    prime_implicates,
    residue_detailed,
    subsumes,
    subsumption_reduce,
)
from .resolution import (
    ResolutionStep,
    closure_step_traced,
    gamma_resolvents,
    sigma_resolvents,
)
from .semantics import (
    KripkeModel,
    SatResult,
    Tableau,
    enumerate_tree_models,
    model_check,
)
from .syntax import (
    BOT,
    BOTTOM_CLAUSE,
    And,
    Bottom,
    Box,
    Clause,
    Cnf,
    Diamond,
    Formula,
    Literal,
    Not,
    Or,
    Var,
    clause_length,
    clause_to_formula,
    clause_to_json,
    clause_from_json,
    cnf_length,
    cnf_to_formula,
    length,
    modal_depth,
    variables,
)

__all__ = [
    "enumerate_clauses",
    "prime_implicates_brute",
    "nnf",
    "single_clause",
    "to_cnf",
    "BudgetExceeded",
    "ClauseBudgetExceeded",
    "KPrimeError",
    "ParseError",
    "RecursionDepthExceeded",
    "TableauBudgetExceeded",
    "make_clause",
    "make_cnf",
    "simplify",
    "simplify_cnf",
    "parse",
    "render",
    "EntailmentOracle",
    "PicConfig",
    "PicResult",
    "StageRecord",
    "covering_implicate",
    "prime_implicates",
    "residue_detailed",
    "subsumes",
    "subsumption_reduce",
    "ResolutionStep",
    "closure_step_traced",
    "gamma_resolvents",
    "sigma_resolvents",
    "KripkeModel",
    "SatResult",
    "Tableau",
    "enumerate_tree_models",
    "model_check",
    "BOT",
    "BOTTOM_CLAUSE",
    "And",
    "Bottom",
    "Box",
    "Clause",
    "Cnf",
    "Diamond",
    "Formula",
    "Literal",
    "Not",
    "Or",
    "Var",
    "clause_length",
    "clause_to_formula",
    "clause_to_json",
    "clause_from_json",
    "cnf_length",
    "cnf_to_formula",
    "length",
    "modal_depth",
    "variables",
]
