"""Recursive-descent parser for the System F concrete syntax.

The System F surface language is the F_G one minus concepts, models, where
clauses, and associated types; type abstraction binds plain variables and
tuples/``nth`` appear explicitly (they are the dictionary representation).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.diagnostics.limits import resource_scope
from repro.syntax.lexer import TokenStream, stream
from repro.systemf import ast as F


def parse_program(text: str, filename: str = "<input>") -> F.Term:
    """Parse a complete System F program (one expression)."""
    with resource_scope():
        ts = stream(text, filename)
        term = _expr(ts)
        ts.take("EOF", "end of program")
    return term


def parse_type(text: str, filename: str = "<type>") -> F.Type:
    """Parse a single System F type."""
    with resource_scope():
        ts = stream(text, filename)
        t = _type(ts)
        ts.take("EOF", "end of type")
    return t


# -- types -------------------------------------------------------------------


def _fn_type(ts: TokenStream) -> F.TFn:
    ts.take("fn")
    ts.take("(", "fn type")
    params: List[F.Type] = []
    if not ts.at(")"):
        params.append(_type(ts))
        while ts.match(","):
            params.append(_type(ts))
    ts.take(")", "fn type")
    ts.take("->", "fn type")
    return F.TFn(tuple(params), _type(ts))


def _type(ts: TokenStream) -> F.Type:
    kind = ts.kind()
    if kind == "int":
        ts.skip()
        return F.INT
    if kind == "bool":
        ts.skip()
        return F.BOOL
    if kind == "unit":
        ts.skip()
        return F.TTuple(())
    if kind == "fn":
        return _fn_type(ts)
    if kind == "list":
        ts.skip()
        return F.TList(_type(ts))
    if kind == "forall":
        ts.skip()
        names = [ts.text(ts.take("IDENT", "type parameter"))]
        while ts.match(","):
            names.append(ts.text(ts.take("IDENT", "type parameter")))
        ts.take(".", "forall type")
        return F.TForall(tuple(names), _type(ts))
    if kind == "IDENT":
        return F.TVar(ts.text(ts.skip()))
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
            return F.TTuple(tuple(items))
        ts.take(")", "parenthesized type")
        return first
    ts.error(f"expected a type, found {kind!r}")
    raise AssertionError("unreachable")


# -- terms ---------------------------------------------------------------------


def _expr(ts: TokenStream) -> F.Term:
    kind = ts.kind()
    if kind == "let":
        span = ts.span(ts.skip())
        name = ts.text(ts.take("IDENT", "let binding"))
        ts.take("=", "let binding")
        bound = _expr(ts)
        ts.take("in", "let binding")
        return F.Let(span=span, name=name, bound=bound, body=_expr(ts))
    if kind == "\\":
        span = ts.span(ts.skip())
        params: List[Tuple[str, F.Type]] = []
        while True:
            name = ts.text(ts.take("IDENT", "lambda parameter"))
            ts.take(":", "lambda parameter")
            params.append((name, _type(ts)))
            if not ts.match(","):
                break
        ts.take(".", "lambda")
        return F.Lam(span=span, params=tuple(params), body=_expr(ts))
    if kind == "/\\":
        span = ts.span(ts.skip())
        names = [ts.text(ts.take("IDENT", "type parameter"))]
        while ts.match(","):
            names.append(ts.text(ts.take("IDENT", "type parameter")))
        ts.take(".", "type abstraction")
        return F.TyLam(span=span, vars=tuple(names), body=_expr(ts))
    if kind == "if":
        span = ts.span(ts.skip())
        cond = _expr(ts)
        ts.take("then", "if expression")
        then = _expr(ts)
        ts.take("else", "if expression")
        return F.If(span=span, cond=cond, then=then, else_=_expr(ts))
    return _postfix(ts)


def _postfix(ts: TokenStream) -> F.Term:
    term = _atom(ts)
    while True:
        kind = ts.kind()
        if kind == "(":
            span = ts.span(ts.skip())
            args: List[F.Term] = []
            if not ts.at(")"):
                args.append(_expr(ts))
                while ts.match(","):
                    args.append(_expr(ts))
            ts.take(")", "application")
            term = F.App(span=span, fn=term, args=tuple(args))
        elif kind == "[":
            span = ts.span(ts.skip())
            types = [_type(ts)]
            while ts.match(","):
                types.append(_type(ts))
            ts.take("]", "type application")
            term = F.TyApp(span=span, fn=term, args=tuple(types))
        else:
            return term


def _atom(ts: TokenStream) -> F.Term:
    kind = ts.kind()
    if kind == "NUMBER":
        i = ts.skip()
        return F.IntLit(span=ts.span(i), value=int(ts.text(i)))
    if kind == "true":
        return F.BoolLit(span=ts.span(ts.skip()), value=True)
    if kind == "false":
        return F.BoolLit(span=ts.span(ts.skip()), value=False)
    if kind == "nth":
        span = ts.span(ts.skip())
        tuple_ = _postfix(ts)
        index = ts.text(ts.take("NUMBER", "nth"))
        return F.Nth(span=span, tuple_=tuple_, index=int(index))
    if kind == "fix":
        # `fix` binds tighter than application.
        span = ts.span(ts.skip())
        return F.Fix(span=span, fn=_atom(ts))
    if kind == "IDENT":
        i = ts.skip()
        return F.Var(span=ts.span(i), name=ts.text(i))
    if kind == "(":
        i = ts.skip()
        first = _expr(ts)
        if ts.at(","):
            items = [first]
            while ts.match(","):
                if ts.at(")"):
                    break
                items.append(_expr(ts))
            ts.take(")", "tuple")
            return F.Tuple_(span=ts.span(i), items=tuple(items))
        ts.take(")", "parenthesized expression")
        return first
    if kind in ("\\", "/\\", "if", "let"):
        return _expr(ts)
    ts.error(f"expected an expression, found {kind!r}")
    raise AssertionError("unreachable")
