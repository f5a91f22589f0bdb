"""Process calculus toolkit: a CCS dialect with atomic action sequences,
interpreted both over labeled transition systems and over place/transition
nets, with a reverse translation from nets back to processes."""

from .terms import (
    Action, TAU_ACT, act_in, act_out, format_sequence,
    Nil, NIL, Prefix, StrongPrefix, Sum, Par, Restrict, Const, Term,
    Env, Program, MccsError, UndefinedConstantError, GuardednessError,
    format_term, free_names, subst_map, term_key,
    check_wellformed, classify_finite_net,
)
from .parser import (ParseError, parse_program, parse_term, format_program,
                     parse_sequence, parse_pnet, format_pnet)
from .sync import SyncMode, sync_outcomes
from .normalform import NormalForm, normalize
from .lts import Budget, DEFAULT_BUDGET, Lts, StepEngine, build_lts
from .nets import (
    PTNet, dec, build_net, NetBuilder, marking_graph, format_marking,
    marking_key, is_reduced, is_safe, OMEGA,
)
from .net2term import TranslationError, translate, is_ccs_net
from .equiv import (
    IncompleteLtsError, bisimilar, BisimResult,
    formula_holds, render_formula, is_bisimulation_partition,
    isomorphic, IsoResult, verify_isomorphism,
)

__version__ = "0.1.0"

__all__ = [
    "Action", "TAU_ACT", "act_in", "act_out", "format_sequence",
    "Nil", "NIL", "Prefix", "StrongPrefix", "Sum", "Par", "Restrict",
    "Const", "Term", "Env", "Program",
    "MccsError", "UndefinedConstantError", "GuardednessError",
    "format_term", "free_names", "subst_map", "term_key",
    "check_wellformed", "classify_finite_net",
    "ParseError", "parse_program", "parse_term", "format_program",
    "parse_sequence",
    "SyncMode", "sync_outcomes",
    "NormalForm", "normalize",
    "Budget", "DEFAULT_BUDGET", "Lts", "StepEngine", "build_lts",
    "PTNet", "dec", "build_net", "NetBuilder", "marking_graph",
    "parse_pnet", "format_pnet", "format_marking", "marking_key",
    "is_reduced", "is_safe", "OMEGA",
    "TranslationError", "translate", "is_ccs_net",
    "IncompleteLtsError", "bisimilar", "BisimResult",
    "formula_holds", "render_formula", "is_bisimulation_partition",
    "isomorphic", "IsoResult", "verify_isomorphism",
    "__version__",
]
