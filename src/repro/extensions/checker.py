"""``ExtChecker``: core F_G plus the section 6 extensions.

Implements, on top of :class:`repro.fg.typecheck.Checker`:

- **named models** — checked and dictionary-bound at declaration, adopted
  into implicit lookup only under ``use`` (Kahl & Scheffczyk's named
  instances, the paper's suggested mechanism for managing overlap);
- **parameterized models** — ``model forall t where C<t>. D<list t>``;
  the dictionary becomes a polymorphic dictionary function and uses are
  resolved by first-order matching plus recursive model resolution;
- **concept-member defaults** — members a model omits are filled from the
  concept's default bodies (checked per-model, after substituting the
  model's type arguments and associated-type assignments);
- an *improvement* step for associated types: ``rep``/``equal`` resolve
  ``c<taus>.s`` through parameterized-model instances, which have no
  pre-registered equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.diagnostics.errors import TypeError_
from repro.extensions import ast as X
from repro.fg import ast as G
from repro.fg.concepts import refinements
from repro.fg.env import Env, ModelInfo
from repro.fg.typecheck import Checker
from repro.systemf import ast as F

_NAMED_KEY = "extensions.named_models"
_PARAM_KEY = "extensions.param_models"
_OVERLOAD_KEY = "extensions.overloads"
_MAX_RESOLUTION_DEPTH = 32


@dataclass(frozen=True)
class NamedModel:
    """A checked named model: registration payload for ``use``."""

    info: ModelInfo
    equalities: Tuple[Tuple[G.FGType, G.FGType], ...]


@dataclass(frozen=True)
class ParamModel:
    """A parameterized model declaration awaiting instantiation."""

    vars: Tuple[str, ...]
    requirements: Tuple[G.ConceptReq, ...]
    same_types: Tuple[G.SameType, ...]
    concept: str
    args: Tuple[G.FGType, ...]
    assoc_templates: Tuple[Tuple[str, G.FGType], ...]
    dict_var: str


class ExtChecker(Checker):
    """The extended checker; a drop-in replacement for :class:`Checker`."""

    ALLOW_DEFAULTS = True

    _DISPATCH = dict(Checker._DISPATCH)
    _DISPATCH.update(
        {
            "NamedModelExpr": "_check_named_model",
            "UseModelsExpr": "_check_use_models",
            "ParamModelExpr": "_check_param_model",
            "OverloadExpr": "_check_overload",
        }
    )

    def __init__(self, reporter=None, limits=None, instrumentation=None):
        super().__init__(
            reporter=reporter, limits=limits, instrumentation=instrumentation
        )
        self._resolution_depth = 0
        self._improving = False

    # ------------------------------------------------------------------
    # Associated-type improvement through parameterized models
    # ------------------------------------------------------------------

    def rep(self, t: G.FGType, env: Env) -> G.FGType:
        return super().rep(self._improve(t, env), env)

    def equal(self, a: G.FGType, b: G.FGType, env: Env) -> bool:
        if super().equal(a, b, env):
            return True
        if self._improving:
            return False
        return super().equal(self._improve(a, env), self._improve(b, env), env)

    def _improve(self, t: G.FGType, env: Env) -> G.FGType:
        """Resolve associated types via model lookup, bottom-up.

        Plain models already contribute equalities, so this only gains
        information for parameterized-model instances — but it is harmless
        (and confluent) to run everywhere.
        """
        if self._improving:
            return t
        self._improving = True
        try:
            return self._improve_go(t, env, 0)
        finally:
            self._improving = False

    def _improve_go(self, t: G.FGType, env: Env, depth: int) -> G.FGType:
        # Only associated types improve; a forall lists no parts, so it
        # stays as written.
        if depth > _MAX_RESOLUTION_DEPTH or not t.contains_assoc:
            return t
        parts = tuple([self._improve_go(p, env, depth + 1) for p in t.parts])
        improved = t.remake(parts)
        if isinstance(t, G.TAssoc):
            info = self.find_model(t.concept, parts, env)
            if info is not None:
                assignment = info.assoc.get(t.member)
                if assignment is not None and assignment != improved:
                    return self._improve_go(assignment, env, depth + 1)
        return improved

    # ------------------------------------------------------------------
    # Model lookup through parameterized models
    # ------------------------------------------------------------------

    def find_model(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env, span=None
    ) -> Optional[ModelInfo]:
        info = super().find_model(concept, args, env, span)
        if info is not None:
            return info
        if self._resolution_depth > _MAX_RESOLUTION_DEPTH:
            return None
        param_models: Dict[str, Tuple[ParamModel, ...]] = env.extra(
            _PARAM_KEY, {}
        )
        self._resolution_depth += 1
        try:
            for pmodel in param_models.get(concept, ()):
                instance = self._instantiate_param_model(pmodel, args, env)
                if instance is not None:
                    if self._explain is not None:
                        self._explain.note(
                            f"model lookup: {concept}<"
                            f"{', '.join(map(str, args))}> resolved via "
                            f"parameterized model forall "
                            f"{', '.join(pmodel.vars)}. {pmodel.concept}<"
                            f"{', '.join(map(str, pmodel.args))}>"
                        )
                    return instance
        finally:
            self._resolution_depth -= 1
        return None

    def _instantiate_param_model(
        self, pmodel: ParamModel, target: Tuple[G.FGType, ...], env: Env
    ) -> Optional[ModelInfo]:
        if len(pmodel.args) != len(target):
            return None
        theta: Dict[str, G.FGType] = {}
        for template, actual in zip(pmodel.args, target):
            if not self._match(template, actual, set(pmodel.vars), theta, env):
                return None
        if len(theta) != len(pmodel.vars):
            return None  # underdetermined match
        # Satisfy the parameterized model's own where clause, recursively.
        dict_args: List[F.Term] = []
        for req in pmodel.requirements:
            actual_args = tuple(G.substitute(a, theta) for a in req.args)
            sub = self.find_model(req.concept, actual_args, env)
            if sub is None:
                return None
            dict_args.append(self.dict_expr(sub))
        for same in pmodel.same_types:
            if not self.equal(
                G.substitute(same.left, theta),
                G.substitute(same.right, theta),
                env,
            ):
                return None
        # Type arguments: the parameters, then one per associated-type slot
        # of the where clause, in the order the declaration's translation
        # minted fresh variables.
        tyargs = [
            self.translate_type(theta[v], env) for v in pmodel.vars
        ]
        seen: set = set()
        closure = [
            entry for req in pmodel.requirements
            for entry in refinements(env, req, seen, theta)
        ]
        for concept, cdef, _, actual, _ in closure:
            for s in cdef.assoc_types:
                sub = self.find_model(concept, actual, env)
                if sub is None:
                    return None
                assignment = sub.assoc.get(s)
                if assignment is None:
                    return None
                tyargs.append(self.translate_type(assignment, env))
        prebuilt: F.Term = F.TyApp(
            fn=F.Var(name=pmodel.dict_var), args=tuple(tyargs)
        )
        if pmodel.requirements:
            prebuilt = F.App(fn=prebuilt, args=tuple(dict_args))
        assoc_map = {
            s: G.substitute(template, theta)
            for s, template in pmodel.assoc_templates
        }
        return ModelInfo(
            pmodel.concept,
            target,
            pmodel.dict_var,
            (),
            assoc_map,
            prebuilt=prebuilt,
        )

    def _match(
        self,
        template: G.FGType,
        actual: G.FGType,
        vars_: set,
        theta: Dict[str, G.FGType],
        env: Env,
    ) -> bool:
        """First-order matching of a model-head template against a type."""
        actual = super().rep(actual, env)
        if isinstance(template, G.TVar) and template.name in vars_:
            prev = theta.get(template.name)
            if prev is None:
                theta[template.name] = actual
                return True
            return super().equal(prev, actual, env)
        if isinstance(template, G.TVar):
            return super().equal(template, actual, env)
        if isinstance(template, G.TBase):
            return template == actual
        # Constructors match part by part; an associated type is not one
        # (it is not injective), and a forall lists no parts.
        if (template.parts and not isinstance(template, G.TAssoc)
                and type(actual) is type(template)
                and actual.shape == template.shape):
            if len(template.parts) != len(actual.parts):
                return False
            return all(
                self._match(tp, ap, vars_, theta, env)
                for tp, ap in zip(template.parts, actual.parts)
            )
        return super().equal(template, actual, env)

    # ------------------------------------------------------------------
    # Named models
    # ------------------------------------------------------------------

    def _check_named_model(self, term: X.NamedModelExpr, env: Env):
        named: Dict[str, NamedModel] = env.extra(_NAMED_KEY, {})
        if term.name in named:
            raise TypeError_(
                f"named model '{term.name}' is already defined", term.span
            )

        def enter(scope: Env, info: ModelInfo, equalities) -> Env:
            # Dictionary-bound here; implicit lookup only under ``use``.
            return scope.with_extra(
                _NAMED_KEY,
                {**named, term.name: NamedModel(info, equalities)},
            )

        return self._model_scope(term, env, enter)

    def _check_use_models(self, term: X.UseModelsExpr, env: Env):
        named: Dict[str, NamedModel] = env.extra(_NAMED_KEY, {})
        inner = env
        for name in term.names:
            entry = named.get(name)
            if entry is None:
                raise TypeError_(f"unknown named model '{name}'", term.span)
            inner = inner.add_model(entry.info)
            inner = inner.add_equalities(entry.equalities)
        body_type, body_sf = self.check(term.body, inner)
        return self.leave_model(body_type, inner, env, term.span), body_sf

    # ------------------------------------------------------------------
    # Parameterized models
    # ------------------------------------------------------------------

    def _check_param_model(self, term: X.ParamModelExpr, env: Env):
        mdef = term.model
        where = self.process_where(
            term.vars, term.requirements, term.same_types, env, term.span
        )
        # The model head must mention every parameter, or instantiation
        # could never determine them.
        head_vars = set()
        for a in mdef.args:
            head_vars |= G.free_type_vars(a)
        unused = set(term.vars) - head_vars
        if unused:
            raise TypeError_(
                f"parameterized model: parameter(s) "
                f"{', '.join(sorted(unused))} do not appear in the model "
                f"head {mdef.concept}<{', '.join(map(str, mdef.args))}>",
                term.span,
            )
        info, _, bindings, dictionary = self._elaborate_model(
            mdef, where.env, term.span
        )
        dict_body: F.Term = dictionary
        for var, bound in reversed(bindings):
            dict_body = F.Let(span=term.span, name=var, bound=bound, body=dict_body)
        if term.requirements:
            dict_body = F.Lam(
                span=term.span, params=where.dict_params, body=dict_body
            )
        dict_fn = F.TyLam(
            span=term.span,
            vars=tuple(term.vars) + where.assoc_vars,
            body=dict_body,
        )
        pmodel = ParamModel(
            term.vars,
            term.requirements,
            term.same_types,
            mdef.concept,
            mdef.args,
            mdef.type_assignments,
            info.dict_var,
        )
        param_models: Dict[str, Tuple[ParamModel, ...]] = dict(
            env.extra(_PARAM_KEY, {})
        )
        param_models[mdef.concept] = (pmodel,) + param_models.get(
            mdef.concept, ()
        )
        inner = env.with_extra(_PARAM_KEY, param_models)
        body_type, body_sf = self.check(term.body, inner)
        result_type = self.leave_model(body_type, inner, env, term.span)
        return result_type, F.Let(
            span=term.span, name=info.dict_var, bound=dict_fn, body=body_sf
        )

    # ------------------------------------------------------------------
    # Algorithm specialization (overloaded generic functions)
    # ------------------------------------------------------------------

    def _check_overload(self, term: X.OverloadExpr, env: Env):
        if not term.alternatives:
            raise TypeError_("overload needs at least one alternative",
                             term.span)
        if env.lookup_var(term.name) is not None:
            raise TypeError_(
                f"overload '{term.name}' shadows a variable", term.span
            )
        bindings: List[Tuple[str, F.Term]] = []
        alt_infos: List[Tuple[str, G.TForall]] = []
        inner = env
        for i, alt in enumerate(term.alternatives):
            alt_type, alt_sf = self.check(alt, env)
            alt_type = self.rep(alt_type, env)
            if not isinstance(alt_type, G.TForall):
                raise TypeError_(
                    f"overload alternative {i + 1} of '{term.name}' is not "
                    f"a generic function (type {alt_type})",
                    term.span,
                )
            var = self._fresh(f"{term.name}_alt{i}")
            bindings.append((var, alt_sf))
            alt_infos.append((var, alt_type))
            inner = inner.bind_var(var, alt_type)
        overloads = dict(inner.extra(_OVERLOAD_KEY, {}))
        overloads[term.name] = tuple(alt_infos)
        inner = inner.with_extra(_OVERLOAD_KEY, overloads)
        body_type, body_sf = self.check(term.body, inner)
        result_type = self.leave_model(body_type, inner, env, term.span)
        out = body_sf
        for var, bound in reversed(bindings):
            out = F.Let(span=term.span, name=var, bound=bound, body=out)
        return result_type, out

    def _check_tyapp(self, term: G.TyApp, env: Env):
        # Specialization dispatch: an instantiation of an overload name
        # selects the most specific applicable alternative, then defers to
        # the ordinary TAPP rule on that alternative.
        if isinstance(term.fn, G.Var) and env.lookup_var(term.fn.name) is None:
            overloads = env.extra(_OVERLOAD_KEY, {}).get(term.fn.name)
            if overloads:
                var = self._select_alternative(
                    term.fn.name, overloads, term.args, env, term.span
                )
                retargeted = G.TyApp(
                    span=term.span,
                    fn=G.Var(span=term.fn.span, name=var),
                    args=term.args,
                )
                return super()._check_tyapp(retargeted, env)
        return super()._check_tyapp(term, env)

    def _select_alternative(
        self, name: str, overloads, args, env: Env, span
    ) -> str:
        for a in args:
            self.check_type_wf(a, env, span)
        applicable = []
        for var, ftype in overloads:
            if len(ftype.vars) != len(args):
                continue
            if self._alternative_applicable(ftype, args, env):
                applicable.append((var, ftype))
        if not applicable:
            raise TypeError_(
                f"no alternative of overload '{name}' is applicable at "
                f"[{', '.join(map(str, args))}] (no models satisfy any "
                "where clause)",
                span,
            )
        closures = [
            (var, self._requirement_closure(ftype, args, env))
            for var, ftype in applicable
        ]
        # Keep alternatives not strictly less specific than another.
        maximal = [
            (var, closure)
            for var, closure in closures
            if not any(
                other > closure for _, other in closures
            )
        ]
        if len(maximal) > 1:
            raise TypeError_(
                f"ambiguous overload '{name}' at "
                f"[{', '.join(map(str, args))}]: "
                f"{len(maximal)} alternatives are maximally specific",
                span,
            )
        return maximal[0][0]

    def _alternative_applicable(
        self, ftype: G.TForall, args, env: Env
    ) -> bool:
        subst = dict(zip(ftype.vars, args))
        for req in ftype.requirements:
            actual = tuple(G.substitute(a, subst) for a in req.args)
            if self.find_model(req.concept, actual, env) is None:
                return False
        for same in ftype.same_types:
            if not self.equal(
                G.substitute(same.left, subst),
                G.substitute(same.right, subst),
                env,
            ):
                return False
        return True

    def _requirement_closure(self, ftype: G.TForall, args, env: Env):
        """The set of (concept, arg-reps) reachable from the where clause —
        the specificity order is set inclusion on these closures."""
        subst = dict(zip(ftype.vars, args))
        seen: set = set()
        return {
            (entry.concept, tuple(str(self.rep(a, env)) for a in entry.actual))
            for req in ftype.requirements
            for entry in refinements(env, req, seen, subst)
        }

    # ------------------------------------------------------------------
    # Concept-member defaults
    # ------------------------------------------------------------------

    def _elaborate_members(
        self, cdef: G.ConceptDef, mdef: G.ModelDef, subst, assigned,
        env: Env, span, dict_var: str,
    ):
        defaults = dict(cdef.defaults)
        if not defaults:
            return super()._elaborate_members(
                cdef, mdef, subst, assigned, env, span, dict_var
            )
        defs = dict(mdef.member_defs)
        if len(defs) != len(mdef.member_defs):
            raise TypeError_("duplicate member definition", span)
        declared = set(cdef.member_names())
        extra = set(defs) - declared
        if extra:
            raise TypeError_(
                f"model of {cdef.name} defines unknown member(s): "
                f"{', '.join(sorted(extra))}",
                span,
            )
        missing = declared - set(defs) - set(defaults)
        if missing:
            raise TypeError_(
                f"model of {cdef.name} lacks member(s) without defaults: "
                f"{', '.join(sorted(missing))}",
                span,
            )
        equalities = tuple(
            (G.TAssoc(cdef.name, mdef.args, s), t) for s, t in assigned.items()
        )
        bindings: List[Tuple[str, F.Term]] = []
        member_vars: Dict[str, str] = {}
        member_exprs: List[F.Term] = []
        for name, declared_type in cdef.members:
            expected = G.substitute(declared_type, subst)
            if name in defs:
                actual, sf = self.check(defs[name], env)
                source = defs[name]
            else:
                # Instantiate the default at the model's substitution and
                # check it with the in-progress model in scope (member
                # accesses hit the already-bound variables).
                body = G.substitute_term_types(defaults[name], subst)
                progress = env.add_model(
                    ModelInfo(
                        cdef.name,
                        mdef.args,
                        dict_var,
                        (),
                        assigned,
                        member_vars=dict(member_vars),
                    )
                ).add_equalities(equalities)
                actual, sf = self.check(body, progress)
                source = defaults[name]
            if not self.equal(actual, expected, env.add_equalities(equalities)):
                raise TypeError_(
                    f"member '{name}' of model {cdef.name}<"
                    f"{', '.join(map(str, mdef.args))}> has type "
                    f"{self.rep(actual, env)}, expected "
                    f"{self.rep(expected, env)}",
                    source.span or span,
                )
            var = self._fresh(f"{name}_member")
            member_vars[name] = var
            bindings.append((var, sf))
            member_exprs.append(F.Var(name=var))
        return bindings, member_exprs
