"""Term forms for the section 6 extensions.

These are the features the paper names as important-but-omitted: *named
models* (Kahl & Scheffczyk 2001), *parameterized models* (Haskell's
parameterized instances), and — via :attr:`ConceptDef.defaults` on the core
AST — *defaults for concept members*.  The core checker rejects these nodes;
:class:`repro.extensions.checker.ExtChecker` gives them semantics.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.diagnostics.source import Span
from repro.fg.ast import ConceptReq, ModelDef, SameType, Term


class NamedModelExpr(Term):
    """``model name = C<taus> { ... } in body``.

    The model is checked and its dictionary bound at the declaration, but it
    does **not** participate in implicit model lookup; bring it into scope
    with :class:`UseModelsExpr`.  This is the management mechanism for
    overlapping models the paper points to (section 6, "named models").
    """

    __slots__ = _fields = ("name", "model", "body")

    def __init__(self, span: Optional[Span] = None, name: str = "",
                 model: ModelDef = None, body: Term = None) -> None:
        self.span = span
        self.name = name
        self.model = model
        self.body = body


class UseModelsExpr(Term):
    """``use m1, m2 in body`` — adopt named models for implicit lookup."""

    __slots__ = _fields = ("names", "body")

    def __init__(self, span: Optional[Span] = None,
                 names: Tuple[str, ...] = (), body: Term = None) -> None:
        self.span = span
        self.names = names
        self.body = body


class OverloadExpr(Term):
    """``overload f { alt1; alt2; ... } in body`` — algorithm specialization.

    Each alternative is a generic function; an instantiation ``f[taus]``
    selects the *most specific applicable* alternative: applicable means
    every requirement has a model in scope (and same-type constraints
    hold); more specific means its requirement closure strictly contains
    the other's.  This is the where-clause-driven dispatch the paper points
    to for iterator-category specialization (section 6, "algorithm
    specialization"; Jarvi, Willcock & Lumsdaine 2004).
    """

    __slots__ = _fields = ("name", "alternatives", "body")

    def __init__(self, span: Optional[Span] = None, name: str = "",
                 alternatives: Tuple[Term, ...] = (),
                 body: Term = None) -> None:
        self.span = span
        self.name = name
        self.alternatives = alternatives
        self.body = body


class ParamModelExpr(Term):
    """``model forall t... where reqs. C<taus> { ... } in body``.

    A family of models, one for each instantiation of the parameters that
    satisfies the where clause — Haskell's ``instance Monoid [a]``
    (section 6, "parameterized models").  The dictionary translates to a
    polymorphic dictionary *function*; each use applies it to the matched
    type arguments and the dictionaries its own where clause demands.
    """

    __slots__ = _fields = ("vars", "requirements", "same_types", "model",
                           "body")

    def __init__(self, span: Optional[Span] = None,
                 vars: Tuple[str, ...] = (),
                 requirements: Tuple[ConceptReq, ...] = (),
                 same_types: Tuple[SameType, ...] = (),
                 model: ModelDef = None, body: Term = None) -> None:
        self.span = span
        self.vars = vars
        self.requirements = requirements
        self.same_types = same_types
        self.model = model
        self.body = body
