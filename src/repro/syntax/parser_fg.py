"""Recursive-descent parser for the F_G concrete syntax.

Grammar sketch (terms)::

    expr      ::= 'let' IDENT '=' expr 'in' expr
                | 'type' IDENT '=' type 'in' expr
                | 'concept' conceptdef 'in' expr
                | 'model' modeldef 'in' expr
                | '\\' params '.' expr                      -- lambda
                | '/\\' tyvars [ 'where' clauses ] '.' expr -- generic fn
                | 'if' expr 'then' expr 'else' expr
                | 'fix' postfix
                | postfix
    postfix   ::= atom { '(' args ')' | '[' types ']' }
    atom      ::= NUMBER | 'true' | 'false' | IDENT
                | IDENT '<' types '>' '.' IDENT             -- member access
                | '(' expr { ',' expr } ')'                 -- parens / tuple
                | 'nth' atom NUMBER

and (types)::

    type      ::= 'forall' tyvars [ 'where' clauses ] '.' type
                | 'fn' '(' types ')' '->' type
                | 'list' type
                | 'int' | 'bool' | 'unit' | IDENT
                | IDENT '<' types '>' '.' IDENT             -- associated type
                | '(' type { '*' type } ')'

A where clause is a comma- (or semicolon-) separated list; each item is a
concept requirement ``C<types>`` or a same-type constraint ``type == type``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.diagnostics.errors import ParseError
from repro.diagnostics.limits import resource_scope
from repro.diagnostics.reporter import DiagnosticReport, DiagnosticReporter
from repro.fg import ast as G
from repro.syntax.lexer import TokenStream, stream


def parse_program(text: str, filename: str = "<input>") -> G.Term:
    """Parse a complete F_G program (one expression)."""
    with resource_scope():
        ts = stream(text, filename)
        term = _expr(ts)
        ts.take("EOF", "end of program")
    return term


#: Token kinds at which the resilient parser resynchronizes after an error:
#: statement-ish separators and the keywords that begin a fresh declaration.
SYNC_TOKENS = frozenset((";", "}", "in", "let", "model", "concept"))


def parse_program_resilient(
    text: str,
    filename: str = "<input>",
    max_errors: int = 20,
    reporter: Optional[DiagnosticReporter] = None,
) -> Tuple[Optional[G.Term], DiagnosticReport]:
    """Parse with error recovery: report several parse errors in one run.

    On a parse error the parser skips ahead to a synchronization token
    (``;``, ``}``, ``in``, ``let``, ``model``, ``concept``) and resumes, so
    one syntax error does not hide the rest of the program's problems.
    Returns the last successfully parsed expression (``None`` when nothing
    parsed) together with the collected :class:`DiagnosticReport`.  The
    returned term is best-effort; callers must consult ``report.ok`` before
    trusting it.
    """
    if reporter is None:
        reporter = DiagnosticReporter(max_errors=max_errors)
    return parse_recovering(text, filename, reporter), reporter.finish()


def parse_recovering(
    text: str, filename: str, reporter: DiagnosticReporter
) -> Optional[G.Term]:
    """:func:`parse_program_resilient`'s parse: every error lands in
    ``reporter``, and the result is the best-effort term alone."""
    ts = stream(text, filename, reporter)
    term: Optional[G.Term] = None
    while not reporter.at_limit:  # the lexer may have reached the cap
        try:
            term = _expr(ts)
            ts.take("EOF", "end of program")
            break
        except ParseError as err:
            reporter.error(err)
            if reporter.at_limit or not _resynchronize(ts):
                break
    return term


def _resynchronize(ts: TokenStream) -> bool:
    """Skip to the next point a fresh expression can start; False at EOF.

    Always consumes at least one token so a failed parse cannot loop
    forever at the same position.  Separators (``;``, ``}``, ``in``) are
    consumed; declaration keywords (``let``, ``model``, ``concept``) are
    left in place — they begin the re-parsed expression.
    """
    ts.skip()
    while not ts.at("EOF"):
        kind = ts.kind()
        if kind in (";", "}", "in"):
            ts.skip()
            return not ts.at("EOF")
        if kind in ("let", "model", "concept"):
            return True
        ts.skip()
    return False


def parse_type(text: str, filename: str = "<type>") -> G.FGType:
    """Parse a single F_G type."""
    with resource_scope():
        ts = stream(text, filename)
        t = _type(ts)
        ts.take("EOF", "end of type")
    return t


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


def _forall_type(ts: TokenStream) -> G.TForall:
    ts.take("forall")
    vars_ = _tyvar_list(ts)
    reqs, sames = _where_clauses(ts)
    ts.take(".", "forall type")
    body = _type(ts)
    return G.TForall(vars_, reqs, sames, body)


def _fn_type(ts: TokenStream) -> G.TFn:
    ts.take("fn")
    ts.take("(", "fn type")
    params: List[G.FGType] = []
    if not ts.at(")"):
        params.append(_type(ts))
        while ts.match(","):
            params.append(_type(ts))
    ts.take(")", "fn type")
    ts.take("->", "fn type")
    return G.TFn(tuple(params), _type(ts))


def _type(ts: TokenStream) -> G.FGType:
    kind = ts.kind()
    if kind == "int":
        ts.skip()
        return G.INT
    if kind == "bool":
        ts.skip()
        return G.BOOL
    if kind == "unit":
        ts.skip()
        return G.TTuple(())
    if kind == "fn":
        return _fn_type(ts)
    if kind == "list":
        ts.skip()
        return G.TList(_type(ts))
    if kind == "forall":
        return _forall_type(ts)
    if kind == "IDENT":
        name = ts.text(ts.skip())
        if ts.at("<"):
            args = _type_args(ts)
            ts.take(".", "associated type")
            member = ts.text(ts.take("IDENT", "associated type"))
            return G.TAssoc(name, args, member)
        return G.TVar(name)
    if kind == "(":
        ts.skip()
        first = _type(ts)
        if ts.at("*"):
            items = [first]
            while ts.match("*"):
                if ts.at(")"):  # trailing '*' marks a 1-tuple: (t *)
                    break
                items.append(_type(ts))
            ts.take(")", "tuple type")
            return G.TTuple(tuple(items))
        ts.take(")", "parenthesized type")
        return first
    ts.error(f"expected a type, found {kind!r}")
    raise AssertionError("unreachable")


def _type_args(ts: TokenStream) -> Tuple[G.FGType, ...]:
    ts.take("<", "type arguments")
    args = [_type(ts)]
    while ts.match(","):
        args.append(_type(ts))
    ts.take(">", "type arguments")
    return tuple(args)


def _tyvar_list(ts: TokenStream) -> Tuple[str, ...]:
    names = [ts.text(ts.take("IDENT", "type parameter"))]
    while ts.match(","):
        names.append(ts.text(ts.take("IDENT", "type parameter")))
    return tuple(names)


def _where_clauses(
    ts: TokenStream,
) -> Tuple[Tuple[G.ConceptReq, ...], Tuple[G.SameType, ...]]:
    """Parse ``where C<t>, ...; tau == tau', ...`` (empty if absent)."""
    reqs: List[G.ConceptReq] = []
    sames: List[G.SameType] = []
    if not ts.match("where"):
        return (), ()
    while True:
        left = _requirement_or_type(ts)
        if ts.match("=="):
            right = _type(ts)
            sames.append(G.SameType(_as_type(ts, left), right))
        else:
            if not isinstance(left, G.ConceptReq):
                ts.error(
                    "expected a concept requirement C<...> or a same-type "
                    "constraint tau == tau in where clause"
                )
            reqs.append(left)
        if not (ts.match(",") or ts.match(";")):
            break
    return tuple(reqs), tuple(sames)


def _requirement_or_type(ts: TokenStream) -> G.FGType:
    """A where-clause item: ``C<types>`` (maybe ``.member``) or any type.

    A ``.`` after ``C<types>`` is ambiguous: it may select an associated
    type (left side of a same-type constraint) or terminate the whole where
    clause.  We take it as an associated type only when ``== `` follows —
    terms can never begin with ``ident ==``, so this lookahead is safe.
    """
    if ts.at("IDENT") and ts.kind(1) == "<":
        name = ts.text(ts.skip())
        args = _type_args(ts)
        if ts.at(".") and ts.kind(1) == "IDENT" and ts.kind(2) == "==":
            ts.skip()
            member = ts.text(ts.take("IDENT", "associated type"))
            return G.TAssoc(name, args, member)
        return G.ConceptReq(name, args)
    return _type(ts)


def _as_type(ts: TokenStream, t: G.FGType) -> G.FGType:
    if isinstance(t, G.ConceptReq):
        ts.error(f"concept requirement {t} cannot appear in a same-type constraint")
    return t


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def _expr(ts: TokenStream) -> G.Term:
    kind = ts.kind()
    if kind == "let":
        return _let(ts)
    if kind == "type":
        return _type_alias(ts)
    if kind == "concept":
        return _concept(ts)
    if kind == "model":
        return _model(ts)
    if kind == "use":
        return _use_models(ts)
    if kind == "overload":
        return _overload(ts)
    if kind == "\\":
        return _lambda(ts)
    if kind == "/\\":
        return _tylambda(ts)
    if kind == "if":
        return _if(ts)
    return _postfix(ts)


def _let(ts: TokenStream) -> G.Term:
    span = ts.span(ts.take("let"))
    name = ts.text(ts.take("IDENT", "let binding"))
    ts.take("=", "let binding")
    bound = _expr(ts)
    ts.take("in", "let binding")
    body = _expr(ts)
    return G.Let(span, name, bound, body)


def _type_alias(ts: TokenStream) -> G.Term:
    span = ts.span(ts.take("type"))
    name = ts.text(ts.take("IDENT", "type alias"))
    ts.take("=", "type alias")
    aliased = _type(ts)
    ts.take("in", "type alias")
    body = _expr(ts)
    return G.TypeAlias(span, name, aliased, body)


def _lambda(ts: TokenStream) -> G.Term:
    span = ts.span(ts.take("\\"))
    params: List[Tuple[str, G.FGType]] = []
    while True:
        name = ts.text(ts.take("IDENT", "lambda parameter"))
        ts.take(":", "lambda parameter")
        params.append((name, _type(ts)))
        if not ts.match(","):
            break
    ts.take(".", "lambda")
    return G.Lam(span, tuple(params), _expr(ts))


def _tylambda(ts: TokenStream) -> G.Term:
    span = ts.span(ts.take("/\\"))
    vars_ = _tyvar_list(ts)
    reqs, sames = _where_clauses(ts)
    ts.take(".", "type abstraction")
    return G.TyLam(span, vars_, reqs, sames, _expr(ts))


def _if(ts: TokenStream) -> G.Term:
    span = ts.span(ts.take("if"))
    cond = _expr(ts)
    ts.take("then", "if expression")
    then = _expr(ts)
    ts.take("else", "if expression")
    else_ = _expr(ts)
    return G.If(span, cond, then, else_)


def _postfix(ts: TokenStream) -> G.Term:
    term = _atom(ts)
    while True:
        kind = ts.kind()
        if kind == "(":
            span = ts.span(ts.skip())
            args: List[G.Term] = []
            if not ts.at(")"):
                args.append(_expr(ts))
                while ts.match(","):
                    args.append(_expr(ts))
            ts.take(")", "application")
            term = G.App(span, term, tuple(args))
        elif kind == "[":
            span = ts.span(ts.skip())
            types = [_type(ts)]
            while ts.match(","):
                types.append(_type(ts))
            ts.take("]", "instantiation")
            term = G.TyApp(span, term, tuple(types))
        else:
            return term


def _atom(ts: TokenStream) -> G.Term:
    kind = ts.kind()
    if kind == "NUMBER":
        i = ts.skip()
        return G.IntLit(ts.span(i), int(ts.text(i)))
    if kind == "true":
        return G.BoolLit(ts.span(ts.skip()), True)
    if kind == "false":
        return G.BoolLit(ts.span(ts.skip()), False)
    if kind == "nth":
        span = ts.span(ts.skip())
        tuple_ = _postfix(ts)
        index = ts.text(ts.take("NUMBER", "nth"))
        return G.Nth(span, tuple_, int(index))
    if kind == "fix":
        # `fix` binds tighter than application: fix (\f. ...)(x) applies
        # the fixpoint to x.
        span = ts.span(ts.skip())
        return G.Fix(span, _atom(ts))
    if kind == "IDENT":
        i = ts.skip()
        if ts.at("<"):
            args = _type_args(ts)
            ts.take(".", "member access")
            member = ts.text(ts.take("IDENT", "member access"))
            return G.MemberAccess(ts.span(i), ts.text(i), args, member)
        return G.Var(ts.span(i), ts.text(i))
    if kind == "(":
        i = ts.skip()
        first = _expr(ts)
        if ts.at(","):
            items = [first]
            while ts.match(","):
                if ts.at(")"):  # allow a trailing comma for 1-tuples
                    break
                items.append(_expr(ts))
            ts.take(")", "tuple")
            return G.Tuple_(ts.span(i), tuple(items))
        ts.take(")", "parenthesized expression")
        return first
    # Allow a lambda/type-abstraction/if directly in argument position.
    if kind in ("\\", "/\\", "if", "let"):
        return _expr(ts)
    ts.error(f"expected an expression, found {kind!r}")
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Concept and model declarations
# ---------------------------------------------------------------------------


def _concept(ts: TokenStream) -> G.Term:
    span = ts.span(ts.take("concept"))
    name = ts.text(ts.take("IDENT", "concept declaration"))
    ts.take("<", "concept parameters")
    params = _tyvar_list(ts)
    ts.take(">", "concept parameters")
    ts.take("{", "concept body")
    assoc: List[str] = []
    refines: List[G.ConceptReq] = []
    members: List[Tuple[str, G.FGType]] = []
    sames: List[G.SameType] = []
    nested: List[G.ConceptReq] = []
    defaults: List[Tuple[str, G.Term]] = []
    while not ts.at("}"):
        if ts.match("types"):
            assoc.append(ts.text(ts.take("IDENT", "associated type")))
            while ts.match(","):
                assoc.append(ts.text(ts.take("IDENT", "associated type")))
            ts.take(";", "associated types")
        elif ts.match("refines"):
            rname = ts.text(ts.take("IDENT", "refinement"))
            args = _type_args(ts)
            refines.append(G.ConceptReq(rname, args))
            ts.take(";", "refinement")
        elif ts.match("require"):
            # `require C<taus>;` is a nested requirement (paper section 6);
            # `require tau == tau;` is a same-type requirement.
            if ts.at("IDENT") and ts.kind(1) == "<":
                rname = ts.text(ts.skip())
                rargs = _type_args(ts)
                if ts.at(";"):
                    nested.append(G.ConceptReq(rname, rargs))
                else:
                    ts.take(".", "requirement")
                    member = ts.text(ts.take("IDENT", "associated type"))
                    left = G.TAssoc(rname, rargs, member)
                    ts.take("==", "same-type requirement")
                    sames.append(G.SameType(left, _type(ts)))
            else:
                left = _type(ts)
                ts.take("==", "same-type requirement")
                sames.append(G.SameType(left, _type(ts)))
            ts.take(";", "requirement")
        else:
            mname = ts.text(ts.take("IDENT", "concept member"))
            ts.take(":", "concept member")
            members.append((mname, _type(ts)))
            if ts.match("="):  # member default (section 6 extension)
                defaults.append((mname, _expr(ts)))
            ts.take(";", "concept member")
    ts.take("}", "concept body")
    ts.take("in", "concept declaration")
    body = _expr(ts)
    cdef = G.ConceptDef(
        name,
        params,
        tuple(assoc),
        tuple(refines),
        tuple(members),
        tuple(sames),
        tuple(nested),
        tuple(defaults),
    )
    return G.ConceptExpr(span, cdef, body)


def _model(ts: TokenStream) -> G.Term:
    span = ts.span(ts.take("model"))
    # Extension forms (section 6):
    #   model NAME = C<taus> { ... } in e     -- named model
    #   model forall t... [where ...]. C<taus> { ... } in e
    if ts.at("forall"):
        return _param_model(ts, span)
    if ts.at("IDENT") and ts.kind(1) == "=":
        return _named_model(ts, span)
    mdef = _model_def(ts)
    ts.take("in", "model declaration")
    body = _expr(ts)
    return G.ModelExpr(span, mdef, body)


def _model_def(ts: TokenStream) -> G.ModelDef:
    """Parse ``C<taus> { types s = t; member = e; ... }``."""
    name = ts.text(ts.take("IDENT", "model declaration"))
    args = _type_args(ts)
    ts.take("{", "model body")
    type_assignments: List[Tuple[str, G.FGType]] = []
    member_defs: List[Tuple[str, G.Term]] = []
    while not ts.at("}"):
        if ts.match("types"):
            while True:
                tname = ts.text(ts.take("IDENT", "type assignment"))
                ts.take("=", "type assignment")
                type_assignments.append((tname, _type(ts)))
                if not ts.match(","):
                    break
            ts.take(";", "type assignment")
        else:
            mname = ts.text(ts.take("IDENT", "member definition"))
            ts.take("=", "member definition")
            member_defs.append((mname, _expr(ts)))
            ts.take(";", "member definition")
    ts.take("}", "model body")
    return G.ModelDef(name, args, tuple(type_assignments), tuple(member_defs))


def _named_model(ts: TokenStream, span) -> G.Term:
    from repro.extensions.ast import NamedModelExpr

    name = ts.text(ts.take("IDENT", "named model"))
    ts.take("=", "named model")
    mdef = _model_def(ts)
    ts.take("in", "named model")
    return NamedModelExpr(span=span, name=name, model=mdef, body=_expr(ts))


def _param_model(ts: TokenStream, span) -> G.Term:
    from repro.extensions.ast import ParamModelExpr

    ts.take("forall", "parameterized model")
    vars_ = _tyvar_list(ts)
    reqs, sames = _where_clauses(ts)
    ts.take(".", "parameterized model")
    mdef = _model_def(ts)
    ts.take("in", "parameterized model")
    return ParamModelExpr(
        span=span,
        vars=vars_,
        requirements=reqs,
        same_types=sames,
        model=mdef,
        body=_expr(ts),
    )


def _overload(ts: TokenStream) -> G.Term:
    from repro.extensions.ast import OverloadExpr

    span = ts.span(ts.take("overload"))
    name = ts.text(ts.take("IDENT", "overload"))
    ts.take("{", "overload")
    alternatives: List[G.Term] = []
    while not ts.at("}"):
        alternatives.append(_expr(ts))
        ts.take(";", "overload alternative")
    ts.take("}", "overload")
    ts.take("in", "overload")
    return OverloadExpr(
        span=span,
        name=name,
        alternatives=tuple(alternatives),
        body=_expr(ts),
    )


def _use_models(ts: TokenStream) -> G.Term:
    from repro.extensions.ast import UseModelsExpr

    span = ts.span(ts.take("use"))
    names = [ts.text(ts.take("IDENT", "use"))]
    while ts.match(","):
        names.append(ts.text(ts.take("IDENT", "use")))
    ts.take("in", "use")
    return UseModelsExpr(span=span, names=tuple(names), body=_expr(ts))
