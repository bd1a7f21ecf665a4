"""System F_G: concepts, models, where clauses, associated types (the paper's
primary contribution).

Public surface:

- :mod:`repro.fg.ast` — types, terms, concept/model declarations,
- :func:`typecheck` — type-directed translation to System F,
- :func:`type_of`, :func:`translate` — the two projections of ``typecheck``,
- :func:`verify_translation` — executable Theorems 1 and 2,
- :func:`evaluate` — run a program (translate, then evaluate the System F
  image; the paper gives F_G its semantics exactly this way),
- :class:`Env` — the four-part environment Gamma (plus equalities),
- :class:`CongruenceSolver` — type equality with same-type constraints.

The checker loads with the package; the direct interpreter
(:func:`interpret`) and the printers (:func:`pretty_term`,
:func:`pretty_type`) load on first access.  ``typecheck`` stays eager: the
entry-point function of that name shadows the submodule, and binding it
here, after the submodule has loaded, is what keeps it the function.
"""

from repro._lazy import lazy_exports
from repro.fg import ast
from repro.fg.congruence import CongruenceSolver, solver_for_equalities
from repro.fg.env import Env, ModelInfo
from repro.fg.typecheck import (
    Checker,
    evaluate,
    translate,
    type_of,
    typecheck,
    typecheck_all,
    verify_translation,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "interpret": ("repro.fg.interp", "interpret"),
    "pretty_term": ("repro.fg.pretty", "pretty_term"),
    "pretty_type": ("repro.fg.pretty", "pretty_type"),
})

__all__ = [
    "Checker",
    "CongruenceSolver",
    "Env",
    "ModelInfo",
    "ast",
    "evaluate",
    "interpret",
    "pretty_term",
    "pretty_type",
    "solver_for_equalities",
    "translate",
    "type_of",
    "typecheck",
    "typecheck_all",
    "verify_translation",
]
