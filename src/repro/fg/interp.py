"""A direct big-step interpreter for F_G — independent of the translation.

The paper gives F_G its semantics *by* the System F translation (section 4);
this module provides the semantics a language implementer would build
instead: an environment-based evaluator in which models are first-class
runtime tables, where clauses are satisfied by searching the lexical model
scope at instantiation time, and member access consults the resolved model.

Its purpose here is **cross-validation**: for every well-typed program,
direct evaluation and evaluate-the-translation must agree (see
``tests/properties/test_semantics_agreement.py``).  Having two independent
implementations of model resolution (this one over runtime type values, the
checker's over open types with congruence) is a strong check on both.

The interpreter assumes its input already typechecked; it raises
:class:`EvalError` on dynamic failures only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.diagnostics.errors import EvalError
from repro.diagnostics.limits import Budget, Limits, resource_scope
from repro.fg import ast as G
from repro.systemf.builtins import PrimValue, make_prim_values


class Closure:
    __slots__ = ("params", "body", "env")

    def __init__(self, params, body, env):
        self.params = params
        self.body = body
        self.env = env

    def __repr__(self):
        return f"<closure ({', '.join(n for n, _ in self.params)})>"


class TyClosure:
    """A generic-function value: suspends the body until instantiation.

    Captures the definition-site environment; at instantiation the *use
    site* provides type arguments, and required models are looked up in the
    use site's lexical model scope (exactly the paper's instantiation
    story), then spliced into the captured environment.
    """

    __slots__ = ("vars", "requirements", "body", "env")

    def __init__(self, vars_, requirements, body, env):
        self.vars = vars_
        self.requirements = requirements
        self.body = body
        self.env = env

    def __repr__(self):
        return f"<generic [{', '.join(self.vars)}]>"


class FixThunk:
    __slots__ = ("fn_value",)

    def __init__(self, fn_value):
        self.fn_value = fn_value


class ModelValue:
    """A runtime model: evaluated members plus associated-type assignments."""

    __slots__ = ("concept", "args", "members", "assoc")

    def __init__(self, concept, args, members, assoc):
        self.concept = concept
        self.args = args           # closed F_G types
        self.members = members     # name -> value
        self.assoc = assoc         # name -> closed F_G type

    def __repr__(self):
        return f"<model {self.concept}<{', '.join(map(str, self.args))}>>"


Value = Union[int, bool, list, tuple, Closure, TyClosure, FixThunk, PrimValue]


class Env:
    """Runtime environment: variables, models (innermost first), type
    bindings (type variable -> closed type), and concept declarations."""

    __slots__ = ("_vars", "_models", "_tyenv", "_concepts", "_parent")

    def __init__(self, vars_, models, tyenv, concepts, parent=None):
        self._vars = vars_
        self._models = models
        self._tyenv = tyenv
        self._concepts = concepts
        self._parent = parent

    @classmethod
    def initial(cls) -> "Env":
        return cls(dict(make_prim_values()), {}, {}, {})

    # -- variables -------------------------------------------------------

    def lookup(self, name: str) -> Value:
        env: Optional[Env] = self
        while env is not None:
            if name in env._vars:
                return env._vars[name]
            env = env._parent
        raise EvalError(f"unbound variable at runtime: '{name}'")

    def bind(self, name: str, value: Value) -> "Env":
        return Env({name: value}, {}, {}, {}, self)

    def bind_many(self, pairs) -> "Env":
        return Env(dict(pairs), {}, {}, {}, self)

    # -- types ------------------------------------------------------------

    def resolve_type(self, t: G.FGType) -> G.FGType:
        """Close a type: substitute bound type variables, resolve
        associated types through visible models."""
        if isinstance(t, G.TVar):
            env: Optional[Env] = self
            while env is not None:
                if t.name in env._tyenv:
                    return env._tyenv[t.name]
                env = env._parent
            return t  # free (checker guarantees this cannot be consumed)
        # A forall lists no parts: closed enough for runtime identity, it
        # is left as written.
        parts = tuple([self.resolve_type(p) for p in t.parts])
        if isinstance(t, G.TAssoc):
            model = self.find_model(t.concept, parts)
            if model is None:
                raise EvalError(
                    f"no model of {t.concept}<"
                    f"{', '.join(map(str, parts))}> at runtime"
                )
            assigned = model.assoc.get(t.member)
            if assigned is None:
                raise EvalError(
                    f"model of {t.concept} lacks associated type "
                    f"'{t.member}'"
                )
            return self.resolve_type(assigned)
        return t.remake(parts)

    def bind_types(self, pairs) -> "Env":
        return Env({}, {}, dict(pairs), {}, self)

    # -- concepts/models --------------------------------------------------------

    def concept(self, name: str) -> G.ConceptDef:
        env: Optional[Env] = self
        while env is not None:
            if name in env._concepts:
                return env._concepts[name]
            env = env._parent
        raise EvalError(f"unknown concept at runtime: '{name}'")

    def bind_concept(self, cdef: G.ConceptDef) -> "Env":
        return Env({}, {}, {}, {cdef.name: cdef}, self)

    def bind_model(self, model: ModelValue) -> "Env":
        return Env({}, {model.concept: [model]}, {}, {}, self)

    def find_model(
        self, concept: str, args: Tuple[G.FGType, ...]
    ) -> Optional[ModelValue]:
        env: Optional[Env] = self
        while env is not None:
            for model in env._models.get(concept, ()):
                if model.args == args:
                    return model
            env = env._parent
        return None

    def iter_models(self, concept: str):
        """All models of ``concept`` visible here, innermost-first."""
        env: Optional[Env] = self
        while env is not None:
            for model in env._models.get(concept, ()):
                yield model
            env = env._parent


class Interpreter:
    """Direct evaluator for (checked) F_G terms.

    ``limits.max_eval_steps`` (when set) meters every evaluation step, so a
    diverging program stops with a :class:`ResourceLimitError` instead of
    spinning; :meth:`run` executes under a scoped (restored) recursion
    limit, so deep programs don't crash and the process-wide limit is
    untouched afterwards.
    """

    def __init__(self, limits: Optional[Limits] = None,
                 budget: Optional[Budget] = None, instrumentation=None):
        self._budget = budget if budget is not None else Budget(limits)
        # Observability (repro.observability): the explain log records
        # runtime model resolutions (phase="runtime"); metrics count
        # lookups.  Both default to off and are guarded at every use.
        self._explain = (
            instrumentation.explain if instrumentation is not None else None
        )
        self._metrics = (
            instrumentation.metrics if instrumentation is not None else None
        )

    def run(self, term: G.Term, env: Optional[Env] = None) -> Value:
        with resource_scope(self._budget.limits, getattr(term, "span", None)):
            return self.eval(term, env if env is not None else Env.initial())

    # -- model resolution (observable) -------------------------------------

    def _find_model(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env
    ) -> Optional[ModelValue]:
        """``env.find_model`` plus optional metrics/explain recording."""
        if self._metrics is None and self._explain is None:
            return env.find_model(concept, args)
        if self._metrics is not None:
            self._metrics.inc("interp.model_lookups")
        if self._explain is None:
            return env.find_model(concept, args)
        candidates = list(env.iter_models(concept))
        self._explain.begin(
            concept,
            ", ".join(map(str, args)),
            scope_size=len(candidates),
            equalities_in_scope=0,
            phase="runtime",
        )
        from repro.observability.explain import ACCEPTED

        found: Optional[ModelValue] = None
        for index, model in enumerate(candidates):
            if model.args != args:
                status = "runtime type arguments are not identical"
            elif found is None:
                status = ACCEPTED
                found = model
            else:
                status = "shadowed by an inner matching model"
            self._explain.candidate(
                index, ", ".join(map(str, model.args)), status
            )
        self._explain.finish(found is not None)
        return found

    # -- application helpers ----------------------------------------------

    def apply(self, fn_value: Value, args: List[Value]) -> Value:
        while isinstance(fn_value, FixThunk):
            fn_value = self._apply_once(fn_value.fn_value, [fn_value])
        return self._apply_once(fn_value, args)

    def _apply_once(self, fn_value: Value, args: List[Value]) -> Value:
        if isinstance(fn_value, Closure):
            if len(fn_value.params) != len(args):
                raise EvalError("runtime arity mismatch")
            pairs = [
                (name, v) for (name, _), v in zip(fn_value.params, args)
            ]
            return self.eval(fn_value.body, fn_value.env.bind_many(pairs))
        if isinstance(fn_value, PrimValue):
            if fn_value.arity != len(args):
                raise EvalError(
                    f"primitive '{fn_value.name}' arity mismatch"
                )
            return fn_value.fn(*args)
        raise EvalError(f"cannot apply non-function value {fn_value!r}")

    # -- evaluation ----------------------------------------------------------

    def eval(self, term: G.Term, env: Env) -> Value:
        self._budget.spend_fuel(term.span)
        method = self._DISPATCH.get(type(term).__name__)
        if method is None:
            raise EvalError(
                f"term form '{type(term).__name__}' is not supported by "
                "the direct interpreter"
            )
        return getattr(self, method)(term, env)

    def _eval_var(self, term: G.Var, env: Env) -> Value:
        return env.lookup(term.name)

    def _eval_int(self, term: G.IntLit, env: Env) -> Value:
        return term.value

    def _eval_bool(self, term: G.BoolLit, env: Env) -> Value:
        return term.value

    def _eval_lam(self, term: G.Lam, env: Env) -> Value:
        return Closure(term.params, term.body, env)

    def _eval_app(self, term: G.App, env: Env) -> Value:
        fn_value = self.eval(term.fn, env)
        args = [self.eval(a, env) for a in term.args]
        return self.apply(fn_value, args)

    def _eval_tylam(self, term: G.TyLam, env: Env) -> Value:
        return TyClosure(term.vars, term.requirements, term.body, env)

    def _eval_tyapp(self, term: G.TyApp, env: Env) -> Value:
        fn_value = self.eval(term.fn, env)
        while isinstance(fn_value, FixThunk):
            fn_value = self._apply_once(fn_value.fn_value, [fn_value])
        if not isinstance(fn_value, TyClosure):
            if isinstance(fn_value, PrimValue):
                # Polymorphic primitives: nil[int] is the constant; others
                # erase to themselves.
                return fn_value.fn() if fn_value.arity == 0 else fn_value
            raise EvalError(
                f"cannot instantiate non-generic value {fn_value!r}"
            )
        actuals = tuple(env.resolve_type(a) for a in term.args)
        subst = dict(zip(fn_value.vars, actuals))
        # Resolve each requirement in the *use site's* model scope and
        # splice the found models into the captured environment — the
        # runtime counterpart of implicit model passing.
        inner = fn_value.env.bind_types(zip(fn_value.vars, actuals))
        for req in fn_value.requirements:
            req_args = tuple(
                env.resolve_type(G.substitute(a, subst)) for a in req.args
            )
            inner = self._splice_models(req.concept, req_args, env, inner)
        return self.eval(fn_value.body, inner)

    def _splice_models(
        self, concept: str, args: Tuple[G.FGType, ...], use_site: Env,
        inner: Env,
    ) -> Env:
        model = self._find_model(concept, args, use_site)
        if model is None:
            raise EvalError(
                f"no model of {concept}<{', '.join(map(str, args))}> "
                "at instantiation"
            )
        inner = inner.bind_model(model)
        # Refinements and nested requirements travel with the model: make
        # their models visible inside the generic function too.
        cdef = use_site.concept(concept)
        inner = inner.bind_concept(cdef)
        subst = dict(zip(cdef.params, args))
        subst.update(model.assoc)
        for req in cdef.refines + cdef.nested:
            refined_args = tuple(
                use_site.resolve_type(G.substitute(a, subst))
                for a in req.args
            )
            inner = self._splice_models(
                req.concept, refined_args, use_site, inner
            )
        return inner

    def _eval_let(self, term: G.Let, env: Env) -> Value:
        bound = self.eval(term.bound, env)
        return self.eval(term.body, env.bind(term.name, bound))

    def _eval_tuple(self, term: G.Tuple_, env: Env) -> Value:
        return tuple(self.eval(i, env) for i in term.items)

    def _eval_nth(self, term: G.Nth, env: Env) -> Value:
        value = self.eval(term.tuple_, env)
        if not isinstance(value, tuple) or not 0 <= term.index < len(value):
            raise EvalError("invalid tuple projection")
        return value[term.index]

    def _eval_if(self, term: G.If, env: Env) -> Value:
        cond = self.eval(term.cond, env)
        return self.eval(term.then if cond else term.else_, env)

    def _eval_fix(self, term: G.Fix, env: Env) -> Value:
        return FixThunk(self.eval(term.fn, env))

    def _eval_concept(self, term: G.ConceptExpr, env: Env) -> Value:
        return self.eval(term.body, env.bind_concept(term.concept))

    def _eval_model(self, term: G.ModelExpr, env: Env) -> Value:
        mdef = term.model
        cdef = env.concept(mdef.concept)
        args = tuple(env.resolve_type(a) for a in mdef.args)
        assoc = {
            s: env.resolve_type(t) for s, t in mdef.type_assignments
        }
        members = {
            name: self.eval(body, env) for name, body in mdef.member_defs
        }
        # Fill defaults for omitted members (section 6 extension).
        defined = set(members)
        subst: Dict[str, G.FGType] = dict(zip(cdef.params, args))
        subst.update(assoc)
        model = ModelValue(cdef.name, args, members, assoc)
        with_model = env.bind_model(model)
        for name, default in cdef.defaults:
            if name not in defined:
                body = G.substitute_term_types(default, subst)
                members[name] = self.eval(body, with_model)
        return self.eval(term.body, with_model)

    def _eval_member(self, term: G.MemberAccess, env: Env) -> Value:
        args = tuple(env.resolve_type(a) for a in term.args)
        model = self._find_model(term.concept, args, env)
        if model is None:
            raise EvalError(
                f"no model of {term.concept}<"
                f"{', '.join(map(str, args))}> at runtime"
            )
        if term.member in model.members:
            return model.members[term.member]
        # A refined concept's member accessed through the deriving concept.
        cdef = env.concept(term.concept)
        subst: Dict[str, G.FGType] = dict(zip(cdef.params, args))
        subst.update(model.assoc)
        for req in cdef.refines:
            refined_args = tuple(
                env.resolve_type(G.substitute(a, subst)) for a in req.args
            )
            refined = env.find_model(req.concept, refined_args)
            if refined is not None:
                try:
                    return self._eval_member(
                        G.MemberAccess(
                            concept=req.concept,
                            args=refined_args,
                            member=term.member,
                        ),
                        env,
                    )
                except EvalError:
                    continue
        raise EvalError(
            f"model of {term.concept} has no member '{term.member}'"
        )

    def _eval_alias(self, term: G.TypeAlias, env: Env) -> Value:
        resolved = env.resolve_type(term.aliased)
        return self.eval(term.body, env.bind_types(((term.name, resolved),)))

    # -- section 6 extension forms ------------------------------------------

    def _eval_named_model(self, term, env: Env) -> Value:
        # Build the model value but register it under its name only; `use`
        # adopts it into the implicit scope.
        mdef = term.model
        cdef = env.concept(mdef.concept)
        args = tuple(env.resolve_type(a) for a in mdef.args)
        assoc = {s: env.resolve_type(t) for s, t in mdef.type_assignments}
        members = {
            name: self.eval(body, env) for name, body in mdef.member_defs
        }
        model = ModelValue(cdef.name, args, members, assoc)
        subst: Dict[str, G.FGType] = dict(zip(cdef.params, args))
        subst.update(assoc)
        with_model = env.bind_model(model)
        for name, default in cdef.defaults:
            if name not in members:
                members[name] = self.eval(
                    G.substitute_term_types(default, subst), with_model
                )
        named = dict(self._named_models(env))
        named[term.name] = model
        return self.eval(term.body, env.bind("%named_models%", named))

    def _named_models(self, env: Env):
        try:
            return env.lookup("%named_models%")
        except EvalError:
            return {}

    def _eval_use_models(self, term, env: Env) -> Value:
        named = self._named_models(env)
        inner = env
        for name in term.names:
            model = named.get(name)
            if model is None:
                raise EvalError(f"unknown named model '{name}'")
            inner = inner.bind_model(model)
        return self.eval(term.body, inner)

    _DISPATCH = {
        "Var": "_eval_var",
        "IntLit": "_eval_int",
        "BoolLit": "_eval_bool",
        "Lam": "_eval_lam",
        "App": "_eval_app",
        "TyLam": "_eval_tylam",
        "TyApp": "_eval_tyapp",
        "Let": "_eval_let",
        "Tuple_": "_eval_tuple",
        "Nth": "_eval_nth",
        "If": "_eval_if",
        "Fix": "_eval_fix",
        "ConceptExpr": "_eval_concept",
        "ModelExpr": "_eval_model",
        "MemberAccess": "_eval_member",
        "TypeAlias": "_eval_alias",
        "NamedModelExpr": "_eval_named_model",
        "UseModelsExpr": "_eval_use_models",
    }


def interpret(
    term: G.Term, *, limits: Optional[Limits] = None, instrumentation=None
) -> Value:
    """Directly evaluate a (well-typed) F_G term."""
    return Interpreter(limits=limits, instrumentation=instrumentation).run(term)
