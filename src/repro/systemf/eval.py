"""Call-by-value big-step evaluator for System F.

Types are erased at runtime except that type abstractions are values
(``TyLam`` suspends evaluation of its body, matching System F's CBV
semantics).  Dictionaries are plain tuples, so running a translated F_G
program exercises the dictionary-passing representation of Figure 7 directly.

Each node class has one handler in ``_EVAL``.  A handler spends its own
node's fuel step and evaluates subterms by looking their handlers up
directly, so one level of object-language nesting costs one Python frame
(plus a comprehension frame for argument lists before Python 3.12); an
application binds a closure's parameters straight into the body's frame.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.diagnostics.errors import EvalError
from repro.diagnostics.limits import Budget, Limits, resource_scope
from repro.systemf import ast as F
from repro.systemf.builtins import PrimValue, make_prim_values


class Closure:
    """A lambda value: parameters, body, and captured environment."""

    __slots__ = ("params", "body", "env")

    def __init__(self, params, body, env):
        self.params = params
        self.body = body
        self.env = env

    def __repr__(self) -> str:
        names = ", ".join(name for name, _ in self.params)
        return f"<closure ({names})>"


class TyClosure:
    """A type-abstraction value; the body is evaluated on type application."""

    __slots__ = ("vars", "body", "env")

    def __init__(self, vars_, body, env):
        self.vars = vars_
        self.body = body
        self.env = env

    def __repr__(self) -> str:
        return f"<tyclosure [{', '.join(self.vars)}]>"


class FixThunk:
    """The value of ``fix g``: unrolls one step each time it is applied."""

    __slots__ = ("fn_value",)

    def __init__(self, fn_value):
        self.fn_value = fn_value

    def __repr__(self) -> str:
        return "<fix>"


Value = Union[int, bool, List, tuple, Closure, TyClosure, FixThunk, PrimValue]


def render_value(value) -> str:
    """An evaluated F_G or System F value in surface syntax (the REPL's and
    the ``fg`` driver's one value printer)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(render_value(v) for v in value) + ")"
    return str(value)


class Env:
    """A persistent runtime environment (linked frames).

    No evaluation writes into an existing frame, so environments, and the
    values captured in them, are shared freely across runs and threads.
    """

    __slots__ = ("_frame", "_parent")

    def __init__(self, frame: Dict[str, Value], parent: Optional["Env"] = None):
        self._frame = frame
        self._parent = parent

    @classmethod
    def initial(cls) -> "Env":
        return cls(dict(make_prim_values()))

    def lookup(self, name: str) -> Value:
        env: Optional[Env] = self
        while env is not None:
            if name in env._frame:
                return env._frame[name]
            env = env._parent
        raise EvalError(f"unbound variable at runtime: '{name}'")

    def bind(self, name: str, value: Value) -> "Env":
        return Env({name: value}, self)


#: The builtins' environment, built once per process: the primitives are
#: stateless, so every evaluation that starts from it shares it.
INITIAL_ENV = Env.initial()


def evaluate(
    term: F.Term,
    env: Optional[Env] = None,
    *,
    limits: Optional[Limits] = None,
    budget: Optional[Budget] = None,
) -> Value:
    """Evaluate ``term`` to a value in ``env`` (defaults to builtins).

    The evaluator is a recursive interpreter; each level of object-language
    recursion costs a Python frame or two, so the call runs under a
    *scoped* (restored on exit) raised recursion limit, and a stack
    overflow surfaces as a :class:`ResourceLimitError` diagnostic.  With
    ``limits.max_eval_steps`` set, every evaluation step spends fuel and a
    runaway program stops with the same diagnostic instead of looping.
    """
    if budget is None:
        budget = Budget(limits)
    if env is None:
        env = INITIAL_ENV
    # Dispatched here, not through evaluate_in: a frame fewer on the stack.
    with resource_scope(budget.limits, getattr(term, "span", None)):
        return _EVAL[term.__class__](term, env, budget)


def evaluate_in(term: F.Term, env: Env, budget: Budget, span) -> Value:
    """Evaluate ``term`` in ``env`` against ``budget``, reporting a stack
    overflow at ``span`` (a library context's whole spliced term)."""
    with resource_scope(budget.limits, span):
        return _EVAL[term.__class__](term, env, budget)


def _bind(closure: Closure, args: List[Value], span) -> Env:
    """The frame ``closure``'s body runs in, its parameters bound to
    ``args``."""
    params = closure.params
    if len(params) != len(args):
        raise EvalError(
            f"runtime arity mismatch: expected {len(params)} "
            f"argument(s), got {len(args)}",
            span,
        )
    frame = {}
    for (name, _), value in zip(params, args):
        frame[name] = value
    return Env(frame, closure.env)


def _apply_once(fn_value: Value, args: List[Value], span,
                budget: Budget) -> Value:
    """Apply a value that is not a ``fix`` thunk to evaluated arguments."""
    if fn_value.__class__ is Closure:
        body = fn_value.body
        return _EVAL[body.__class__](
            body, _bind(fn_value, args, span), budget
        )
    if fn_value.__class__ is PrimValue:
        if fn_value.arity != len(args):
            raise EvalError(
                f"primitive '{fn_value.name}' expects {fn_value.arity} "
                f"argument(s), got {len(args)}",
                span,
            )
        return fn_value.fn(*args)
    raise EvalError(f"cannot apply non-function value {fn_value!r}", span)


def _var(term, env, budget):
    budget.spend_fuel(term.span)
    name = term.name
    while env is not None:
        frame = env._frame
        if name in frame:
            return frame[name]
        env = env._parent
    raise EvalError(f"unbound variable at runtime: '{name}'")


def _literal(term, env, budget):
    budget.spend_fuel(term.span)
    return term.value


def _lam(term, env, budget):
    budget.spend_fuel(term.span)
    return Closure(term.params, term.body, env)


def _app(term, env, budget):
    span = term.span
    budget.spend_fuel(span)
    fn = term.fn
    fn_value = _EVAL[fn.__class__](fn, env, budget)
    args = [_EVAL[arg.__class__](arg, env, budget) for arg in term.args]
    while fn_value.__class__ is FixThunk:
        fn_value = _apply_once(fn_value.fn_value, [fn_value], span, budget)
    if fn_value.__class__ is Closure:
        # Inlined from _apply_once: no extra frame per call.
        body = fn_value.body
        return _EVAL[body.__class__](
            body, _bind(fn_value, args, span), budget
        )
    return _apply_once(fn_value, args, span, budget)


def _ty_lam(term, env, budget):
    budget.spend_fuel(term.span)
    return TyClosure(term.vars, term.body, env)


def _ty_app(term, env, budget):
    budget.spend_fuel(term.span)
    fn = term.fn
    fn_value = _EVAL[fn.__class__](fn, env, budget)
    if fn_value.__class__ is TyClosure:
        body = fn_value.body
        return _EVAL[body.__class__](body, fn_value.env, budget)
    if fn_value.__class__ is PrimValue:
        # A fully type-applied polymorphic constant such as nil[int] runs;
        # polymorphic primitives like cons[t] erase to themselves.
        return fn_value.fn() if fn_value.arity == 0 else fn_value
    raise EvalError(
        f"cannot type-apply non-polymorphic value {fn_value!r}", term.span
    )


def _let(term, env, budget):
    budget.spend_fuel(term.span)
    bound = term.bound
    value = _EVAL[bound.__class__](bound, env, budget)
    body = term.body
    return _EVAL[body.__class__](body, Env({term.name: value}, env), budget)


def _tuple(term, env, budget):
    budget.spend_fuel(term.span)
    return tuple([
        _EVAL[item.__class__](item, env, budget) for item in term.items
    ])


def _nth(term, env, budget):
    budget.spend_fuel(term.span)
    inner = term.tuple_
    tuple_value = _EVAL[inner.__class__](inner, env, budget)
    if not isinstance(tuple_value, tuple):
        raise EvalError(f"nth applied to non-tuple {tuple_value!r}", term.span)
    index = term.index
    if not 0 <= index < len(tuple_value):
        raise EvalError(f"tuple index {index} out of range", term.span)
    return tuple_value[index]


def _if(term, env, budget):
    budget.spend_fuel(term.span)
    cond = term.cond
    value = _EVAL[cond.__class__](cond, env, budget)
    if value is True:
        branch = term.then
    elif value is False:
        branch = term.else_
    else:
        raise EvalError(
            f"if condition is not a boolean: {value!r}", term.span
        )
    return _EVAL[branch.__class__](branch, env, budget)


def _fix(term, env, budget):
    budget.spend_fuel(term.span)
    fn = term.fn
    return FixThunk(_EVAL[fn.__class__](fn, env, budget))


_EVAL = {
    F.Var: _var,
    F.IntLit: _literal,
    F.BoolLit: _literal,
    F.Lam: _lam,
    F.App: _app,
    F.TyLam: _ty_lam,
    F.TyApp: _ty_app,
    F.Let: _let,
    F.Tuple_: _tuple,
    F.Nth: _nth,
    F.If: _if,
    F.Fix: _fix,
}
