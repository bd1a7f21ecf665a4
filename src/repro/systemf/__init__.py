"""System F: the target language of the F_G translation (paper Figure 2).

Public surface:

- :mod:`repro.systemf.ast` — types and terms,
- :func:`type_of` — the typechecker (used to verify Theorems 1 and 2),
- :func:`evaluate` — a call-by-value evaluator,
- :func:`pretty_type` / :func:`pretty_term` — concrete-syntax printers,
- :data:`BUILTIN_TYPES` — the primitive constants the paper's examples use.

The verify and evaluate path (AST, builtins, checker, evaluator) loads with
the package; the printers load on first access.
"""

from repro._lazy import lazy_exports
from repro.systemf.ast import (
    BOOL,
    INT,
    App,
    BoolLit,
    Fix,
    If,
    IntLit,
    Lam,
    Let,
    Nth,
    TBase,
    TFn,
    TForall,
    TList,
    TTuple,
    TVar,
    Term,
    Tuple_,
    TyApp,
    TyLam,
    Type,
    Var,
    free_type_vars,
    substitute,
    types_equal,
)
from repro.systemf.builtins import BUILTIN_TYPES, make_prim_values
from repro.systemf.eval import Env, evaluate
from repro.systemf.typecheck import TypeEnv, type_of

__getattr__, __dir__ = lazy_exports(globals(), {
    "pretty_term": ("repro.systemf.pretty", "pretty_term"),
    "pretty_type": ("repro.systemf.pretty", "pretty_type"),
})

__all__ = [
    "App",
    "BOOL",
    "BUILTIN_TYPES",
    "BoolLit",
    "Env",
    "Fix",
    "If",
    "INT",
    "IntLit",
    "Lam",
    "Let",
    "Nth",
    "TBase",
    "TFn",
    "TForall",
    "TList",
    "TTuple",
    "TVar",
    "Term",
    "Tuple_",
    "TyApp",
    "TyLam",
    "Type",
    "TypeEnv",
    "Var",
    "evaluate",
    "free_type_vars",
    "make_prim_values",
    "pretty_term",
    "pretty_type",
    "substitute",
    "type_of",
    "types_equal",
]
