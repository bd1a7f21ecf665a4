"""Typechecking and translation of F_G to System F (paper Figures 8/9/12/13).

The checker is *type-directed translation*: ``check(e, env)`` returns the
F_G type of ``e`` together with its System F image, exactly as the paper's
judgement ``Gamma |- e : t ~> f``.  Dictionaries are nested tuples (Fig. 7);
where clauses become extra type parameters (one per associated-type slot)
plus dictionary parameters; member accesses become ``nth`` chains; type
equality is the congruence closure of the equalities in scope.

Theorems 1 and 2 (translation preserves well-typing) are made executable by
:func:`verify_emitted`, which types an emitted System F term with the
independent checker in :mod:`repro.systemf.typecheck` and compares the
result against the translated F_G type (:func:`verify_translation` checks a
term first, then does the same).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.diagnostics.errors import TypeError_
from repro.diagnostics.limits import (
    Budget,
    Limits,
    ResourceLimitError,
    resource_scope,
)
from repro.diagnostics.reporter import DiagnosticReport, DiagnosticReporter
from repro.fg import ast as G
from repro.fg.concepts import (
    check_concept_arity,
    concept_def,
    find_member,
    qualifying_subst,
    refinements,
)
from repro.fg.env import Env, ModelInfo, SolverCache
from repro.observability import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    format_span,
)
from repro.observability.explain import ACCEPTED
from repro.systemf import ast as F
from repro.systemf import typecheck as sf_typecheck


class _ErrorLimit(Exception):
    """Internal control flow: the reporter's error cap was reached."""


def _poison_term(span=None) -> F.Term:
    """The System F placeholder standing in for an unchecked definition."""
    return F.Tuple_(span, ())


def _register_model(env: Env, info: ModelInfo, equalities) -> Env:
    """MDL's scope: the model joins implicit lookup, with its equalities."""
    return env.add_model(info).add_equalities(equalities)


@dataclass
class WhereResult:
    """Outcome of elaborating a where clause (the paper's ``bw``)."""

    env: Env
    assoc_vars: Tuple[str, ...]
    dict_params: Tuple[Tuple[str, F.Type], ...]
    fresh_to_assoc: Dict[str, G.FGType]


class Checker:
    """A single typechecking/translation session.

    Holds the congruence-solver cache and the fresh-name supply; stateless
    with respect to user programs, so one instance can check many terms.
    """

    #: Concept-member defaults are a section 6 extension; the core checker
    #: rejects them so that core programs stay within the paper's Figure 13.
    ALLOW_DEFAULTS = False

    def __init__(
        self,
        reporter: Optional[DiagnosticReporter] = None,
        limits: Optional[Limits] = None,
        instrumentation: Optional[Instrumentation] = None,
    ):
        # ``reporter`` decides what a recovery point does with a type error
        # (see ``_report``): without one the error propagates (fail-fast);
        # with one it is recorded, the definition is replaced by the
        # ErrorType poison and checking continues, up to the reporter's
        # ``max_errors``.  ``limits`` configures the resource budgets; the
        # defaults guard against pathologically deep programs.
        #
        # ``instrumentation`` switches on observability (spans, metrics,
        # the model-resolution explain log); the default is the shared
        # null bundle and every hot site guards on ``_observing``, so the
        # disabled checker does no extra work beyond a flag test.
        self.limits = limits if limits is not None else Limits()
        self._budget = Budget(self.limits)
        self._reporter = reporter
        obs = (
            instrumentation if instrumentation is not None
            else NULL_INSTRUMENTATION
        )
        self._tracer = obs.tracer
        self._metrics = obs.metrics
        self._explain = obs.explain
        self._observing = (
            obs.tracer.enabled
            or obs.metrics is not None
            or obs.explain is not None
        )
        self._solvers = SolverCache(
            self.limits.max_congruence_nodes,
            metrics=self._metrics,
            tracer=self._tracer if self._tracer.enabled else None,
        )
        #: The next fresh name's number.
        self._names = 0
        #: Checked type applications: ``(forall type, type arguments, env)``
        #: to what ``_instantiate`` returned (see ``_check_tyapp``).
        self._instances: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # Type equality and representatives
    # ------------------------------------------------------------------

    def solver(self, env: Env):
        return self._solvers.solver(env)

    def rep(self, t: G.FGType, env: Env) -> G.FGType:
        """The canonical representative of ``t`` under ``env``'s equalities.

        With no equalities every class is a singleton, so a type without a
        ``forall`` in it represents itself: extraction would rebuild the
        same hash-consed object.  A ``forall`` type still asks the solver,
        which answers an alpha-variant with the variant it met first.  A
        closed type (no variable, ``forall``, associated type or poison)
        represents itself too wherever the scope's solver certifies that
        closed types do (see ``CongruenceSolver``).
        """
        if t is G.ERROR or not (env.equalities or t.contains_forall):
            return t
        solver = self.solver(env)
        closed = not (t.free_vars or t.contains_forall or t.contains_assoc
                      or t.contains_error)
        if closed and solver.closed_types_represent_themselves:
            return t
        return solver.representative(t)

    def equal(self, a: G.FGType, b: G.FGType, env: Env) -> bool:
        """Decide ``env |- a = b`` (congruence of the equalities in scope).

        The recovery poison absorbs comparison: a type containing
        :class:`~repro.fg.ast.ErrorType` equals everything, so follow-on
        checks of an already-reported failure stay silent.  Congruence is
        reflexive, so syntactically equal types need no solver at all; types
        are hash-consed, so that test is identity.
        """
        if a is b or a.contains_error or b.contains_error:
            return True
        solver = self.solver(env)
        if solver.equal(a, b):
            return True
        # A poisoned equivalence class (e.g. a recovered type alias merged
        # with ERROR) absorbs comparison like a syntactic poison.
        return solver.class_contains_error(a) or solver.class_contains_error(b)

    def _fresh(self, base: str) -> str:
        number = self._names
        self._names = number + 1
        return f"{base}%{number}"

    def _fresh_dict(self, concept: str) -> str:
        return self._fresh(f"{concept}_dict")

    # ------------------------------------------------------------------
    # Well-formedness of types (Figures 8 and 12, left-hand premises)
    # ------------------------------------------------------------------

    def check_type_wf(
        self, t: G.FGType, env: Env, span=None, in_decl: bool = False
    ) -> None:
        """Check that ``t`` is well-formed in ``env``.

        ``in_decl`` relaxes the associated-type rule for use inside concept
        declarations, where member types may reference associated types of
        refined concepts before any model exists.
        """
        if isinstance(t, G.TVar):
            if not env.has_tyvar(t.name):
                raise TypeError_(f"unbound type variable '{t.name}'", span)
            return
        if isinstance(t, G.TBase):
            if t.name not in ("int", "bool"):
                raise TypeError_(f"unknown base type '{t.name}'", span)
            return
        if isinstance(t, G.TForall):
            if len(set(t.vars)) != len(t.vars):
                raise TypeError_("duplicate type parameter", span)
            inner = env.bind_tyvars(t.vars)
            for req in t.requirements:
                cdef = concept_def(inner, req.concept, span)
                check_concept_arity(cdef, req.args, span)
                for a in req.args:
                    self.check_type_wf(a, inner, span, in_decl=True)
            for same in t.same_types:
                self.check_type_wf(same.left, inner, span, in_decl=True)
                self.check_type_wf(same.right, inner, span, in_decl=True)
            self.check_type_wf(t.body, inner, span, in_decl=True)
            return
        if isinstance(t, G.ConceptReq):
            raise TypeError_(
                f"concept requirement {t} used where a type is expected", span
            )
        assoc = isinstance(t, G.TAssoc)
        if assoc:
            cdef = concept_def(env, t.concept, span)
            check_concept_arity(cdef, t.args, span)
            if t.member not in cdef.assoc_types:
                raise TypeError_(
                    f"concept {t.concept} has no associated type "
                    f"'{t.member}'",
                    span,
                )
        # The poison has no parts: its failure was already reported.
        for part in t.parts:
            self.check_type_wf(part, env, span, in_decl)
        if assoc and not in_decl and self.find_model(
            t.concept, t.args, env, span
        ) is None:
            raise TypeError_(
                f"no model of {t.concept}<"
                f"{', '.join(map(str, t.args))}> in scope for associated "
                f"type '{t.member}'",
                span,
            )

    # ------------------------------------------------------------------
    # Model lookup
    # ------------------------------------------------------------------

    def find_model(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env, span=None
    ) -> Optional[ModelInfo]:
        """The innermost model of ``concept<args>`` modulo type equality.

        With instrumentation on, the lookup also records a span, the
        ``model_lookup.*`` metrics and the explain log's decision, each only
        when it is on.  ``span`` (optional) only feeds the explain log's
        source locations; it never affects the result.
        """
        candidates = env.models_of(concept)
        explain = metrics = handle = None
        if self._observing:
            tracer, metrics, explain = (
                self._tracer, self._metrics, self._explain)
            if tracer.enabled:
                handle = tracer.span(
                    "typecheck.model_lookup",
                    concept=concept, candidates=len(candidates),
                )
            if metrics is not None:
                metrics.inc("model_lookup.attempts")
            if explain is not None:
                explain.begin(
                    concept,
                    ", ".join(map(str, args)),
                    scope_size=len(candidates),
                    equalities_in_scope=len(env.equalities),
                    location=format_span(span),
                )
        found = None
        scanned = 0
        try:
            for index, info in enumerate(candidates):
                scanned += 1
                if len(info.args) != len(args):
                    if explain is not None:
                        explain.candidate(
                            index, ", ".join(map(str, info.args)),
                            f"arity mismatch: candidate takes "
                            f"{len(info.args)} type argument(s), lookup "
                            f"supplies {len(args)}",
                        )
                    continue
                for position, (have, want) in enumerate(
                    zip(info.args, args)
                ):
                    if not self.equal(have, want, env):
                        if explain is not None:
                            explain.candidate(
                                index, ", ".join(map(str, info.args)),
                                f"argument {position + 1}: "
                                f"{self.rep(want, env)} is not equal to "
                                f"{self.rep(have, env)} under the "
                                "equalities in scope",
                            )
                        break
                else:
                    found = info
                    if explain is not None:
                        explain.candidate(
                            index, ", ".join(map(str, info.args)), ACCEPTED
                        )
                    break
        finally:
            if metrics is not None:
                metrics.inc("model_lookup.candidates", scanned)
                metrics.inc(
                    "model_lookup.hits" if found is not None
                    else "model_lookup.misses"
                )
                if scanned:
                    metrics.observe("model_lookup.scope_depth", scanned)
            if explain is not None:
                explain.finish(found is not None)
            if handle is not None:
                handle.__exit__(None, None, None)
        return found

    def require_model(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env, span=None
    ) -> ModelInfo:
        info = self.find_model(concept, args, env, span)
        if info is None:
            raise TypeError_(
                f"no model of {concept}<{', '.join(map(str, args))}> in scope",
                span,
            )
        return info

    def dict_expr(self, info: ModelInfo) -> F.Term:
        """The System F expression for a model's dictionary: ``nth ... d``."""
        if info.prebuilt is not None:
            return info.prebuilt  # type: ignore[return-value]
        expr: F.Term = F.Var(None, info.dict_var)
        for index in info.path:
            expr = F.Nth(None, expr, index)
        return expr

    # ------------------------------------------------------------------
    # Dictionary types (the delta of the paper's bm)
    # ------------------------------------------------------------------

    def dict_type_sf(
        self, concept: str, args: Tuple[G.FGType, ...], env: Env, span=None
    ) -> F.TTuple:
        """The System F tuple type of a dictionary for ``concept<args>``.

        Components: the refined concepts' dictionary types (in declaration
        order), then the member types, qualified at ``args`` and translated —
        so associated types appear as their current representatives (fresh
        type variables inside a generic function; concrete assignments at a
        concrete model).
        """
        cdef = concept_def(env, concept, span)
        check_concept_arity(cdef, args, span)
        subst = qualifying_subst(cdef, args)
        items: List[F.Type] = []
        for req in cdef.refines + cdef.nested:
            refined_args = tuple(G.substitute(a, subst) for a in req.args)
            items.append(self.dict_type_sf(req.concept, refined_args, env, span))
        for _, member_type in cdef.members:
            items.append(
                self.translate_type(G.substitute(member_type, subst), env, span)
            )
        return F.TTuple(tuple(items))

    # ------------------------------------------------------------------
    # Where-clause elaboration (the paper's bw/bm)
    # ------------------------------------------------------------------

    def process_where(
        self,
        vars_: Tuple[str, ...],
        requirements: Tuple[G.ConceptReq, ...],
        same_types: Tuple[G.SameType, ...],
        env: Env,
        span=None,
    ) -> WhereResult:
        """Bring a where clause into scope (paper's ``bw``).

        Binds the type parameters; for each requirement, registers proxy
        models for the concept and its refinement closure (de-duplicated
        across the whole clause), mints one fresh type variable per
        associated-type slot with the equality ``fresh = c<taus>.s``, and
        collects each concept's same-type requirements.  Explicit same-type
        constraints are merged before dictionary types are computed, so
        representatives already reflect them (the paper's ``merge`` example:
        both iterator dictionaries mention ``elt1``).
        """
        if self._observing:
            if self._metrics is not None:
                self._metrics.inc("typecheck.where_clauses")
            with self._tracer.span(
                "typecheck.where_clause",
                vars=", ".join(vars_), requirements=len(requirements),
                same_types=len(same_types),
            ):
                return self._process_where(
                    vars_, requirements, same_types, env, span
                )
        return self._process_where(vars_, requirements, same_types, env, span)

    def _process_where(
        self,
        vars_: Tuple[str, ...],
        requirements: Tuple[G.ConceptReq, ...],
        same_types: Tuple[G.SameType, ...],
        env: Env,
        span=None,
    ) -> WhereResult:
        if len(set(vars_)) != len(vars_):
            raise TypeError_("duplicate type parameter in where clause", span)
        clash = set(vars_) & env.tyvars
        if clash:
            raise TypeError_(
                f"type parameter(s) shadow enclosing scope: "
                f"{', '.join(sorted(clash))}",
                span,
            )
        free_clash = set(vars_) & env.free_type_vars()
        if free_clash:
            raise TypeError_(
                f"type parameter(s) not fresh for the environment: "
                f"{', '.join(sorted(free_clash))}",
                span,
            )
        env = env.bind_tyvars(vars_)
        seen: set = set()
        assoc_vars: List[str] = []
        fresh_to_assoc: Dict[str, G.FGType] = {}
        req_dict_vars: List[str] = []
        for req in requirements:
            cdef = concept_def(env, req.concept, span)
            check_concept_arity(cdef, req.args, span)
            for a in req.args:
                self.check_type_wf(a, env, span)
            dict_var = self._fresh_dict(req.concept)
            req_dict_vars.append(dict_var)
            # A proxy model per concept of the requirement's closure, with
            # a fresh variable for each associated type: ``fresh = c<taus>.s``.
            for concept, cdef, args, _, path in refinements(
                env, req, seen, span=span
            ):
                if self._explain is not None:
                    what = (
                        "requirement" if not path
                        else f"refinement (dictionary path {path})"
                    )
                    self._explain.refinement(
                        f"where-clause {what}: proxy model "
                        f"{concept}<{', '.join(map(str, args))}> registered"
                    )
                assoc_map: Dict[str, G.FGType] = {}
                equalities = []
                fresh_names = []
                for s in cdef.assoc_types:
                    fresh = self._fresh(s)
                    assoc = assoc_map[s] = G.TAssoc(concept, args, s)
                    fresh_names.append(fresh)
                    fresh_to_assoc[fresh] = assoc
                    equalities.append((G.TVar(fresh), assoc))
                assoc_vars.extend(fresh_names)
                if cdef.same_types:
                    subst = qualifying_subst(cdef, args)
                    for same in cdef.same_types:
                        equalities.append(
                            (G.substitute(same.left, subst),
                             G.substitute(same.right, subst))
                        )
                env = env.bind_tyvars(fresh_names)
                env = env.add_model(
                    ModelInfo(concept, args, dict_var, path, assoc_map)
                )
                env = env.add_equalities(equalities)

        for same in same_types:
            self.check_type_wf(same.left, env, span)
            self.check_type_wf(same.right, env, span)
            env = env.add_equality(same.left, same.right)

        dict_params = tuple(
            (dict_var, self.dict_type_sf(req.concept, req.args, env, span))
            for dict_var, req in zip(req_dict_vars, requirements)
        )
        return WhereResult(env, tuple(assoc_vars), dict_params, fresh_to_assoc)

    # ------------------------------------------------------------------
    # Type translation (Figures 8 and 12)
    # ------------------------------------------------------------------

    def translate_type(self, t: G.FGType, env: Env, span=None) -> F.Type:
        """Translate an F_G type to System F, via class representatives."""
        t = self.rep(t, env)
        return self._translate_rep(t, env, span)

    def _translate_rep(self, t: G.FGType, env: Env, span=None) -> F.Type:
        if isinstance(t, G.ErrorType):
            # Recovery only: the program already failed; translate the
            # poison to unit so downstream structure stays well-formed.
            return F.TTuple(())
        if isinstance(t, G.TVar):
            if not env.has_tyvar(t.name):
                raise TypeError_(f"unbound type variable '{t.name}'", span)
            return F.TVar(t.name)
        if isinstance(t, G.TBase):
            return F.TBase(t.name)
        if isinstance(t, G.TList):
            return F.TList(self.translate_type(t.elem, env, span))
        if isinstance(t, G.TFn):
            return F.TFn(
                tuple(self.translate_type(p, env, span) for p in t.params),
                self.translate_type(t.result, env, span),
            )
        if isinstance(t, G.TTuple):
            return F.TTuple(
                tuple(self.translate_type(i, env, span) for i in t.items)
            )
        if isinstance(t, G.TAssoc):
            raise TypeError_(
                f"associated type {t} cannot be resolved here "
                "(no model or constraint determines it)",
                span,
            )
        if isinstance(t, G.TForall):
            where = self.process_where(
                t.vars, t.requirements, t.same_types, env, span
            )
            body = self.translate_type(t.body, where.env, span)
            if t.requirements:
                body = F.TFn(tuple(dt for _, dt in where.dict_params), body)
            return F.TForall(tuple(t.vars) + where.assoc_vars, body)
        raise TypeError_(f"{t} is not a translatable type", span)

    # ------------------------------------------------------------------
    # Terms (Figures 9 and 13)
    # ------------------------------------------------------------------

    def check(self, term: G.Term, env: Env) -> Tuple[G.FGType, F.Term]:
        """``Gamma |- e : t ~> f`` — type and System F translation of ``term``."""
        method_name = self._DISPATCH.get(type(term).__name__)
        if method_name is None:
            raise TypeError_(
                f"term form '{type(term).__name__}' is not part of core "
                "F_G (enable repro.extensions to use it)",
                term.span,
            )
        self._budget.enter_depth(term.span)
        try:
            return getattr(self, method_name)(term, env)
        finally:
            self._budget.leave_depth()

    def _report(self, err: TypeError_) -> None:
        """The one fork between fail-fast and collecting: every recovery
        point calls this from ``except TypeError_``, then falls back.
        Without a reporter ``err`` propagates; with one it is recorded, and
        the run ends once the reporter's cap is reached."""
        if self._reporter is None:
            raise err
        self._reporter.error(err)
        if self._reporter.at_limit:
            raise _ErrorLimit() from None

    def _check_recover(self, term: G.Term, env: Env) -> Tuple[G.FGType, F.Term]:
        """Check a definition; in recovery mode, poison it on type error.

        This is the checker's resynchronization point: with a reporter
        installed, a :class:`TypeError_` inside a binding or declaration is
        recorded and the definition's type becomes the absorbing
        :class:`~repro.fg.ast.ErrorType`, so checking continues into the
        rest of the program.  Resource exhaustion is *not* recovered — once
        a budget trips, the run stops.
        """
        try:
            return self.check(term, env)
        except TypeError_ as err:
            self._report(err)
            return G.ERROR, _poison_term(term.span)

    # -- VAR / literals ---------------------------------------------------

    def _check_var(self, term: G.Var, env: Env):
        t = env.lookup_var(term.name)
        if t is None:
            raise TypeError_(f"unbound variable '{term.name}'", term.span)
        return t, F.Var(term.span, term.name)

    def _check_int(self, term: G.IntLit, env: Env):
        return G.INT, F.IntLit(term.span, term.value)

    def _check_bool(self, term: G.BoolLit, env: Env):
        return G.BOOL, F.BoolLit(term.span, term.value)

    # -- ABS / APP ----------------------------------------------------------

    def _check_lam(self, term: G.Lam, env: Env):
        inner = env
        sf_params = []
        for name, ptype in term.params:
            self.check_type_wf(ptype, env, term.span)
            sf_params.append((name, self.translate_type(ptype, env, term.span)))
            inner = inner.bind_var(name, ptype)
        body_type, body_sf = self.check(term.body, inner)
        return (
            G.TFn(tuple(pt for _, pt in term.params), body_type),
            F.Lam(term.span, tuple(sf_params), body_sf),
        )

    def _check_app(self, term: G.App, env: Env):
        fn_type, fn_sf = self.check(term.fn, env)
        fn_type = self.rep(fn_type, env)
        if isinstance(fn_type, G.ErrorType):
            # Poisoned function: still check the arguments (they may hold
            # independent errors) but absorb the application itself.
            for arg in term.args:
                self.check(arg, env)
            return G.ERROR, _poison_term(term.span)
        if not isinstance(fn_type, G.TFn):
            raise TypeError_(
                f"cannot apply non-function of type {fn_type}", term.span
            )
        if len(fn_type.params) != len(term.args):
            raise TypeError_(
                f"arity mismatch: function expects {len(fn_type.params)} "
                f"argument(s), got {len(term.args)}",
                term.span,
            )
        sf_args = []
        for i, (arg, expected) in enumerate(zip(term.args, fn_type.params)):
            actual, arg_sf = self.check(arg, env)
            if not self.equal(actual, expected, env):
                raise TypeError_(
                    f"argument {i + 1} has type {self.rep(actual, env)}, "
                    f"expected {self.rep(expected, env)}",
                    arg.span or term.span,
                )
            sf_args.append(arg_sf)
        return fn_type.result, F.App(term.span, fn_sf, tuple(sf_args))

    # -- TABS / TAPP ----------------------------------------------------------

    def _check_tylam(self, term: G.TyLam, env: Env):
        if not term.vars:
            raise TypeError_("type abstraction needs parameters", term.span)
        where = self.process_where(
            term.vars, term.requirements, term.same_types, env, term.span
        )
        body_type, body_sf = self.check(term.body, where.env)
        # Re-qualify: fresh associated-type variables must not escape into
        # the forall type, whose only binders are the declared parameters.
        requalify = {
            fresh: assoc for fresh, assoc in where.fresh_to_assoc.items()
        }
        result_type = G.TForall(
            term.vars,
            term.requirements,
            term.same_types,
            G.substitute(body_type, requalify),
        )
        if term.requirements:
            body_sf = F.Lam(term.span, where.dict_params, body_sf)
        sf = F.TyLam(term.span, tuple(term.vars) + where.assoc_vars, body_sf)
        return result_type, sf

    def _check_tyapp(self, term: G.TyApp, env: Env):
        fn_type, fn_sf = self.check(term.fn, env)
        # TAPP is judged from the forall type, the type arguments and Gamma
        # alone, so an instance met again in the same scope is reused.  An
        # instance is stored only if computing it took no name from the
        # checker's counter, so a reused one is what recomputing it would
        # build and every later name is unchanged.  The explain log
        # records every resolution, so it bypasses the memo.
        key = (fn_type, term.args, env)
        instance = (
            self._instances.get(key) if self._explain is None else None
        )
        if instance is None:
            names = self._names
            instance = self._instantiate(fn_type, term.args, env, term.span)
            if instance is None:
                return G.ERROR, _poison_term(term.span)
            if self._explain is None and self._names == names:
                self._instances[key] = instance
        elif self._metrics is not None:
            self._metrics.inc("typecheck.instantiations")
            self._metrics.inc("typecheck.substitutions", len(term.args))
        result_type, sf_tyargs, dict_args = instance
        sf: F.Term = F.TyApp(term.span, fn_sf, sf_tyargs)
        if dict_args is not None:
            sf = F.App(term.span, sf, dict_args)
        return result_type, sf

    def _instantiate(self, fn_type: G.FGType, args: Tuple[G.FGType, ...],
                     env: Env, span):
        """TAPP's premises for ``fn_type`` at ``args``: the result type, the
        System F type arguments, and the dictionary arguments (``None``
        without requirements); ``None`` if ``fn_type`` is poisoned."""
        fn_type = self.rep(fn_type, env)
        if isinstance(fn_type, G.ErrorType):
            for a in args:
                self.check_type_wf(a, env, span)
            return None
        if not isinstance(fn_type, G.TForall):
            raise TypeError_(
                f"cannot instantiate non-generic term of type {fn_type}",
                span,
            )
        if len(fn_type.vars) != len(args):
            raise TypeError_(
                f"expected {len(fn_type.vars)} type argument(s), "
                f"got {len(args)}",
                span,
            )
        for a in args:
            self.check_type_wf(a, env, span)
        if self._metrics is not None:
            self._metrics.inc("typecheck.instantiations")
            self._metrics.inc("typecheck.substitutions", len(fn_type.vars))
        subst = dict(zip(fn_type.vars, args))
        sf_tyargs = [self.translate_type(a, env, span) for a in args]
        # One extra type argument per associated-type slot, in the exact
        # order the abstraction's translation minted fresh variables.
        seen: set = set()
        closure = [
            entry for req in fn_type.requirements
            for entry in refinements(env, req, seen, subst)
        ]
        for concept, cdef, _, actual, _ in closure:
            for s in cdef.assoc_types:
                info = self.require_model(concept, actual, env, span)
                assigned = info.assoc.get(s)
                if assigned is None:
                    raise TypeError_(
                        f"model of {concept} lacks associated type '{s}'",
                        span,
                    )
                sf_tyargs.append(self.translate_type(assigned, env, span))
        # Requirement dictionaries.
        dict_args = []
        for req in fn_type.requirements:
            actual = tuple(G.substitute(a, subst) for a in req.args)
            info = self.require_model(req.concept, actual, env, span)
            dict_args.append(self.dict_expr(info))
        # Same-type constraints must hold at the instantiation (TAPP premise).
        for same in fn_type.same_types:
            left = G.substitute(same.left, subst)
            right = G.substitute(same.right, subst)
            holds = self.equal(left, right, env)
            if self._explain is not None:
                self._explain.note(
                    f"same-type constraint consulted at instantiation: "
                    f"{left} == {right} — "
                    f"{'holds' if holds else 'VIOLATED'}"
                )
            if not holds:
                raise TypeError_(
                    f"same-type constraint violated at instantiation: "
                    f"{left} == {right} does not hold "
                    f"(left is {self.rep(left, env)}, "
                    f"right is {self.rep(right, env)})",
                    span,
                )
        result_type = self.rep(G.substitute(fn_type.body, subst), env)
        return (
            result_type,
            tuple(sf_tyargs),
            tuple(dict_args) if fn_type.requirements else None,
        )

    # -- LET / tuples / control ---------------------------------------------

    def _check_let(self, term: G.Let, env: Env):
        # A ``let`` bound is a recovery boundary: in reporter mode a type
        # error in the bound poisons the binding and checking continues
        # with the body, so independent errors in later bindings surface.
        if self._observing:
            if self._metrics is not None:
                self._metrics.inc("typecheck.bindings")
            if self._tracer.enabled:
                with self._tracer.span("check.binding", name=term.name):
                    bound_type, bound_sf = self._check_recover(
                        term.bound, env
                    )
            else:
                bound_type, bound_sf = self._check_recover(term.bound, env)
        else:
            bound_type, bound_sf = self._check_recover(term.bound, env)
        body_type, body_sf = self.check(
            term.body, env.bind_var(term.name, bound_type)
        )
        return body_type, F.Let(term.span, term.name, bound_sf, body_sf)

    def _check_tuple(self, term: G.Tuple_, env: Env):
        types = []
        terms = []
        for item in term.items:
            t, sf = self.check(item, env)
            types.append(t)
            terms.append(sf)
        return G.TTuple(tuple(types)), F.Tuple_(term.span, tuple(terms))

    def _check_nth(self, term: G.Nth, env: Env):
        tuple_type, tuple_sf = self.check(term.tuple_, env)
        tuple_type = self.rep(tuple_type, env)
        if isinstance(tuple_type, G.ErrorType):
            return G.ERROR, _poison_term(term.span)
        if not isinstance(tuple_type, G.TTuple):
            raise TypeError_(
                f"nth applied to non-tuple of type {tuple_type}", term.span
            )
        if not 0 <= term.index < len(tuple_type.items):
            raise TypeError_(
                f"tuple index {term.index} out of range", term.span
            )
        return tuple_type.items[term.index], F.Nth(
            term.span, tuple_sf, term.index
        )

    def _check_if(self, term: G.If, env: Env):
        cond_type, cond_sf = self.check(term.cond, env)
        if not self.equal(cond_type, G.BOOL, env):
            raise TypeError_(
                f"if condition has type {self.rep(cond_type, env)}, "
                "expected bool",
                term.span,
            )
        then_type, then_sf = self.check(term.then, env)
        else_type, else_sf = self.check(term.else_, env)
        if not self.equal(then_type, else_type, env):
            raise TypeError_(
                f"if branches disagree: {self.rep(then_type, env)} vs "
                f"{self.rep(else_type, env)}",
                term.span,
            )
        return then_type, F.If(term.span, cond_sf, then_sf, else_sf)

    def _check_fix(self, term: G.Fix, env: Env):
        fn_type, fn_sf = self.check(term.fn, env)
        fn_type = self.rep(fn_type, env)
        if isinstance(fn_type, G.ErrorType):
            return G.ERROR, _poison_term(term.span)
        if (
            not isinstance(fn_type, G.TFn)
            or len(fn_type.params) != 1
            or not self.equal(fn_type.params[0], fn_type.result, env)
        ):
            raise TypeError_(f"fix expects fn(A) -> A, got {fn_type}", term.span)
        result = self.rep(fn_type.result, env)
        if not isinstance(result, G.TFn):
            raise TypeError_(
                f"fix is restricted to function-typed fixpoints (got {result})",
                term.span,
            )
        return result, F.Fix(term.span, fn_sf)

    # -- CPT: concept declaration (Figures 9 and 13) ---------------------------

    def _check_concept(self, term: G.ConceptExpr, env: Env):
        cdef = term.concept
        if self._tracer.enabled:
            with self._tracer.span("check.concept", name=cdef.name):
                return self._check_concept_inner(term, env)
        return self._check_concept_inner(term, env)

    def _check_concept_inner(self, term: G.ConceptExpr, env: Env):
        cdef = term.concept
        try:
            self._validate_concept(cdef, env, term.span)
        except TypeError_ as err:
            # Recovered: proceed with the (possibly ill-formed) declaration
            # in scope so uses of the concept don't cascade into
            # unknown-concept errors.
            self._report(err)
        inner = env.add_concept(cdef)
        body_type, body_sf = self.check(term.body, inner)
        return self.leave_concept(cdef, body_type, inner, term.span), body_sf

    def leave_concept(self, cdef: G.ConceptDef, body_type: G.FGType,
                      inner: Env, span) -> G.FGType:
        """CPT's exit premise: the concept must not escape its scope in
        the body's type (canonicalized in the concept's scope ``inner``)."""
        body_type = self.rep(body_type, inner)
        if cdef.name in G.concept_names(body_type):
            raise TypeError_(
                f"concept '{cdef.name}' escapes its scope in the result "
                f"type {body_type}",
                span,
            )
        return body_type

    def _validate_concept(self, cdef: G.ConceptDef, env: Env, span) -> None:
        if env.lookup_concept(cdef.name) is not None:
            # Lexical shadowing of concepts would make model lookups for the
            # outer concept ambiguous; reject for clarity.
            raise TypeError_(
                f"concept '{cdef.name}' is already defined in this scope",
                span,
            )
        if len(set(cdef.params)) != len(cdef.params):
            raise TypeError_("duplicate concept parameter", span)
        if len(set(cdef.assoc_types)) != len(cdef.assoc_types):
            raise TypeError_("duplicate associated-type name", span)
        if set(cdef.params) & set(cdef.assoc_types):
            raise TypeError_(
                "associated-type name clashes with concept parameter",
                span,
            )
        names = cdef.member_names()
        if len(set(names)) != len(names):
            raise TypeError_("duplicate concept member name", span)
        if cdef.defaults:
            if not self.ALLOW_DEFAULTS:
                raise TypeError_(
                    "concept-member defaults require repro.extensions",
                    span,
                )
            default_names = [n for n, _ in cdef.defaults]
            if len(set(default_names)) != len(default_names):
                raise TypeError_("duplicate member default", span)
            unknown = set(default_names) - set(names)
            if unknown:
                raise TypeError_(
                    f"default(s) for unknown member(s): "
                    f"{', '.join(sorted(unknown))}",
                    span,
                )
        decl_env = env.bind_tyvars(cdef.params + cdef.assoc_types)
        for req in cdef.refines + cdef.nested:
            refined = concept_def(env, req.concept, span)
            check_concept_arity(refined, req.args, span)
            for a in req.args:
                self.check_type_wf(a, decl_env, span, in_decl=True)
        for _, member_type in cdef.members:
            self.check_type_wf(member_type, decl_env, span, in_decl=True)
        for same in cdef.same_types:
            self.check_type_wf(same.left, decl_env, span, in_decl=True)
            self.check_type_wf(same.right, decl_env, span, in_decl=True)

    # -- MDL: model declaration (Figures 9 and 13) ------------------------------

    def _check_model(self, term: G.ModelExpr, env: Env):
        if self._tracer.enabled:
            with self._tracer.span(
                "check.model", concept=term.model.concept
            ):
                return self._model_scope(term, env, _register_model)
        return self._model_scope(term, env, _register_model)

    def _model_scope(self, term, env: Env, enter):
        """MDL, and the extension's named model with its own ``enter``:
        elaborate (or poison) ``term.model``, check ``term.body`` in
        ``enter(env, info, equalities)``, leave through :meth:`leave_model`
        and bind the dictionary and its auxiliary ``let``s."""
        try:
            elaborated = self._elaborate_model(term.model, env, term.span)
        except TypeError_ as err:
            self._report(err)
            elaborated = self._poison_model(term.model, env, term.span)
            if elaborated is None:
                # The concept itself is unknown; without its shape we
                # cannot fake a model, so check the body as-is.
                return self.check(term.body, env)
        info, equalities, bindings, dictionary = elaborated
        inner = enter(env, info, equalities)
        body_type, body_sf = self.check(term.body, inner)
        result_type = self.leave_model(body_type, inner, env, term.span)
        out: F.Term = F.Let(term.span, info.dict_var, dictionary, body_sf)
        for var, bound in reversed(bindings):
            out = F.Let(term.span, var, bound, out)
        return result_type, out

    def leave_model(self, body_type: G.FGType, inner: Env, env: Env,
                    span) -> G.FGType:
        """MDL's exit premise: the body's type, canonicalized in the
        model's scope ``inner``, must make sense outside it (in ``env``).
        The extension's model and overload scopes leave through it too."""
        result_type = self.rep(body_type, inner)
        self.check_type_wf(result_type, env, span)
        return result_type

    def _poison_model(self, mdef: G.ModelDef, env: Env, span):
        """A placeholder elaboration for a model that failed to check.

        Registers the model under its declared concept and arguments with an
        empty dictionary so member accesses in the body resolve (to garbage
        the translation never runs) instead of cascading "no model in scope"
        errors.  Contributes *no* equalities: a bogus associated-type merge
        would corrupt the congruence closure for the whole scope.  Returns
        ``None`` when the concept itself is unknown.
        """
        if env.lookup_concept(mdef.concept) is None:
            return None
        info = ModelInfo(
            concept=mdef.concept,
            args=tuple(mdef.args),
            dict_var=self._fresh_dict(mdef.concept),
            path=(),
            assoc=dict(mdef.type_assignments),
        )
        return info, (), (), _poison_term(span)

    def _elaborate_model(self, mdef: G.ModelDef, env: Env, span):
        """Check a model declaration; build its dictionary.

        Returns ``(info, equalities, bindings, dictionary)``: the
        :class:`ModelInfo` to register, the associated-type equalities it
        contributes, auxiliary ``let`` bindings the dictionary needs (empty
        in core F_G; used by the defaults extension), and the dictionary
        tuple expression.
        """
        cdef = concept_def(env, mdef.concept, span)
        check_concept_arity(cdef, mdef.args, span)
        for a in mdef.args:
            self.check_type_wf(a, env, span)
        # Associated-type assignments: exactly the required set.
        assigned = dict(mdef.type_assignments)
        if len(assigned) != len(mdef.type_assignments):
            raise TypeError_("duplicate associated-type assignment", span)
        required = set(cdef.assoc_types)
        if set(assigned) != required:
            missing = required - set(assigned)
            extra = set(assigned) - required
            details = []
            if missing:
                details.append(f"missing: {', '.join(sorted(missing))}")
            if extra:
                details.append(f"unexpected: {', '.join(sorted(extra))}")
            raise TypeError_(
                f"model of {cdef.name} has wrong associated types "
                f"({'; '.join(details)})",
                span,
            )
        for _, t in mdef.type_assignments:
            self.check_type_wf(t, env, span)
        # Associated-type equalities are collected over the whole lexical
        # environment, so a shadowing model may not *reassign* an associated
        # type already fixed by a visible model — that would merge two
        # distinct types (e.g. int = bool) in the congruence.  (Overlapping
        # models that keep assignments consistent — Figure 6 — are fine.)
        if self._explain is not None:
            self._explain.note(
                f"declaration probe: does model {cdef.name}<"
                f"{', '.join(map(str, mdef.args))}> shadow a visible model? "
                "(a failed lookup here is expected)"
            )
        existing = self.find_model(cdef.name, mdef.args, env)
        if existing is not None:
            for s, new_assignment in assigned.items():
                old = existing.assoc.get(s)
                if old is None or isinstance(old, G.TAssoc):
                    continue  # proxy models carry no concrete assignment
                if not self.equal(old, new_assignment, env):
                    raise TypeError_(
                        f"model of {cdef.name}<"
                        f"{', '.join(map(str, mdef.args))}> shadows a model "
                        f"with a different assignment for associated type "
                        f"'{s}' ({old} vs {new_assignment})",
                        span,
                    )
        # The model substitution S: params to args, associated names to
        # their assignments (paper's S = taus, sigmas).
        subst: Dict[str, G.FGType] = dict(zip(cdef.params, mdef.args))
        subst.update(assigned)
        # Refinements — and nested requirements on the associated types —
        # must already be modeled in scope.
        refined_infos = []
        for req in cdef.refines + cdef.nested:
            refined_args = tuple(G.substitute(a, subst) for a in req.args)
            refined_infos.append(
                self.require_model(req.concept, refined_args, env, span)
            )
        # Same-type requirements of the concept must hold.
        for same in cdef.same_types:
            left = G.substitute(same.left, subst)
            right = G.substitute(same.right, subst)
            if not self.equal(left, right, env):
                raise TypeError_(
                    f"model of {cdef.name} violates same-type requirement "
                    f"{same.left} == {same.right} "
                    f"(instantiated: {left} vs {right})",
                    span,
                )
        dict_var = self._fresh_dict(cdef.name)
        bindings, member_exprs = self._elaborate_members(
            cdef, mdef, subst, assigned, env, span, dict_var
        )
        equalities = tuple(
            (G.TAssoc(cdef.name, mdef.args, s), t)
            for s, t in mdef.type_assignments
        )
        info = ModelInfo(cdef.name, mdef.args, dict_var, (), assigned)
        dictionary = F.Tuple_(
            span,
            tuple(self.dict_expr(i) for i in refined_infos)
            + tuple(member_exprs),
        )
        return info, equalities, bindings, dictionary

    def _elaborate_members(
        self, cdef: G.ConceptDef, mdef: G.ModelDef, subst, assigned,
        env: Env, span, dict_var: str,
    ):
        """Check member definitions; returns (bindings, tuple components).

        Core F_G requires exactly the declared member set and emits the
        checked terms directly into the dictionary tuple.  The defaults
        extension overrides this to fill in missing members.
        """
        defs = dict(mdef.member_defs)
        if len(defs) != len(mdef.member_defs):
            raise TypeError_("duplicate member definition", span)
        declared = set(cdef.member_names())
        if set(defs) != declared:
            missing = declared - set(defs)
            extra = set(defs) - declared
            details = []
            if missing:
                details.append(f"missing: {', '.join(sorted(missing))}")
            if extra:
                details.append(f"unexpected: {', '.join(sorted(extra))}")
            raise TypeError_(
                f"model of {cdef.name} has wrong members "
                f"({'; '.join(details)})",
                span,
            )
        member_sf = []
        for name, declared_type in cdef.members:
            expected = G.substitute(declared_type, subst)
            actual, sf = self.check(defs[name], env)
            if not self.equal(actual, expected, env):
                raise TypeError_(
                    f"member '{name}' of model {cdef.name}<"
                    f"{', '.join(map(str, mdef.args))}> has type "
                    f"{self.rep(actual, env)}, expected "
                    f"{self.rep(expected, env)}",
                    defs[name].span or span,
                )
            member_sf.append(sf)
        return [], member_sf

    # -- MEM: model member access ----------------------------------------------

    def _check_member(self, term: G.MemberAccess, env: Env):
        cdef = concept_def(env, term.concept, term.span)
        check_concept_arity(cdef, term.args, term.span)
        for a in term.args:
            self.check_type_wf(a, env, term.span)
        info = self.require_model(term.concept, term.args, env, term.span)
        entry = find_member(env, term.concept, term.args, term.member, term.span)
        if info.member_vars is not None:
            # Dictionary under construction (concept-member defaults): the
            # member is a directly bound variable, not a tuple component.
            if len(entry.path) > 1:
                raise TypeError_(
                    f"inside a default, access '{term.member}' through the "
                    f"concept that declares it ({entry.concept}), not "
                    f"through {term.concept}",
                    term.span,
                )
            bound = info.member_vars.get(term.member)
            if bound is None:
                raise TypeError_(
                    f"member '{term.member}' is not yet defined at this "
                    "point of the model (defaults may only use earlier "
                    "members)",
                    term.span,
                )
            return self.rep(entry.type, env), F.Var(term.span, bound)
        expr: F.Term = self.dict_expr(info)
        for index in entry.path:
            expr = F.Nth(term.span, expr, index)
        return self.rep(entry.type, env), expr

    # -- ALS: type alias (Figure 13) ----------------------------------------------

    def _check_alias(self, term: G.TypeAlias, env: Env):
        aliased = term.aliased
        try:
            if env.has_tyvar(term.name):
                raise TypeError_(
                    f"type alias '{term.name}' shadows a type variable",
                    term.span,
                )
            self.check_type_wf(aliased, env, term.span)
        except TypeError_ as err:
            self._report(err)
            # Alias the poison type instead so uses of the alias absorb
            # rather than repeat the failure.
            aliased = G.ERROR
        # Merge with the aliased type first so the alias variable never
        # becomes the class representative (it must not escape).
        inner = env.bind_tyvars((term.name,)).add_equality(
            aliased, G.TVar(term.name)
        )
        body_type, body_sf = self.check(term.body, inner)
        result_type = self.rep(body_type, inner)
        if term.name in G.free_type_vars(result_type):
            raise TypeError_(
                f"type alias '{term.name}' escapes its scope in the result "
                f"type {result_type}",
                term.span,
            )
        return result_type, body_sf

    _DISPATCH = {
        "Var": "_check_var",
        "IntLit": "_check_int",
        "BoolLit": "_check_bool",
        "Lam": "_check_lam",
        "App": "_check_app",
        "TyLam": "_check_tylam",
        "TyApp": "_check_tyapp",
        "Let": "_check_let",
        "Tuple_": "_check_tuple",
        "Nth": "_check_nth",
        "If": "_check_if",
        "Fix": "_check_fix",
        "ConceptExpr": "_check_concept",
        "ModelExpr": "_check_model",
        "MemberAccess": "_check_member",
        "TypeAlias": "_check_alias",
    }


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


class EntryPoints:
    """The public checking functions for one checker class.

    Each checks its term at the empty library over ``env``
    (:func:`repro.prelude.context.empty_context`): a program is always
    checked at a library context, and "no prelude" is the empty library.
    :mod:`repro.fg` exports the set for :class:`Checker`,
    :mod:`repro.extensions` the set for its ``ExtChecker``.
    """

    def __init__(self, checker_cls):
        self.checker_cls = checker_cls

    def _context(self, env: Optional[Env]):
        from repro.prelude.context import empty_context

        return empty_context(self.checker_cls, env)

    def typecheck(
        self,
        term: G.Term,
        env: Optional[Env] = None,
        *,
        limits: Optional[Limits] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> Tuple[G.FGType, F.Term]:
        """Typecheck an F_G term; returns its type and System F translation.

        Fail-fast: raises the *first* :class:`TypeError_` encountered.  Use
        :func:`typecheck_all` to keep going and collect every diagnostic.
        ``instrumentation`` (off by default) records spans/metrics/explain —
        see :mod:`repro.observability`.
        """
        checker = self.checker_cls(
            limits=limits, instrumentation=instrumentation
        )
        return self._context(env).check(checker, term)

    def typecheck_all(
        self,
        term: G.Term,
        env: Optional[Env] = None,
        *,
        max_errors: int = 20,
        limits: Optional[Limits] = None,
        reporter: Optional[DiagnosticReporter] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> Tuple[Optional[G.FGType], Optional[F.Term], DiagnosticReport]:
        """Typecheck ``term``, recovering at binding boundaries.

        Unlike :func:`typecheck`, this does not stop at the first error: the
        checker poisons failed ``let`` bounds, model/concept/alias
        declarations with :data:`~repro.fg.ast.ERROR` and keeps going, so
        independent errors all surface in one run.  Returns ``(type,
        translation, report)``; the type and translation are ``None`` when
        the error unwound past every recovery point, and are only
        trustworthy when ``report.ok``.
        """
        if reporter is None:
            reporter = DiagnosticReporter(max_errors=max_errors)
        result_type, sf_term = _run_collecting(
            self.checker_cls, term, self._context(env), reporter=reporter,
            limits=limits, instrumentation=instrumentation,
        )
        return result_type, sf_term, reporter.finish()

    def type_of(self, term: G.Term, env: Optional[Env] = None) -> G.FGType:
        """The F_G type of ``term``."""
        return self.typecheck(term, env)[0]

    def translate(self, term: G.Term, env: Optional[Env] = None) -> F.Term:
        """The System F translation of ``term``."""
        return self.typecheck(term, env)[1]

    def evaluate(self, term: G.Term, env: Optional[Env] = None, *,
                 limits=None):
        """Run an F_G program: translate to System F and evaluate the image.

        This *is* the paper's semantics for F_G — meaning is assigned by the
        translation (section 4).
        """
        context = self._context(env)
        _, sf_term = context.check(self.checker_cls(limits=limits), term)
        return context.evaluate(sf_term, Budget(limits))

    def verify_translation(
        self, term: G.Term, env: Optional[Env] = None
    ) -> Tuple[G.FGType, F.Type]:
        """Executable Theorems 1 and 2: translate, then independently
        re-check.

        Typechecks ``term`` in F_G, translates it, and hands both results to
        :func:`verify_emitted`.  Returns the pair of types.
        """
        checker = self.checker_cls()
        context = self._context(env)
        fg_type, sf_term = context.check(checker, term)
        return fg_type, verify_emitted(
            fg_type, sf_term, checker=checker, env=env, context=context
        )


def _run_collecting(
    checker_cls,
    term: G.Term,
    context,
    *,
    reporter: DiagnosticReporter,
    limits: Optional[Limits],
    instrumentation: Optional[Instrumentation] = None,
) -> Tuple[Optional[G.FGType], Optional[F.Term]]:
    """Shared engine behind :func:`typecheck_all` and the pipeline: check
    ``term`` at ``context`` (a :class:`repro.prelude.context.PreludeContext`)
    and collect its diagnostics in ``reporter``."""
    checker = checker_cls(
        reporter=reporter, limits=limits, instrumentation=instrumentation
    )
    result_type: Optional[G.FGType] = None
    sf_term: Optional[F.Term] = None
    try:
        result_type, sf_term = context.check(checker, term)
    except _ErrorLimit:
        pass
    except (TypeError_, ResourceLimitError) as err:
        reporter.error(err)
    if instrumentation is not None and instrumentation.metrics is not None:
        instrumentation.metrics.set_max(
            "check.peak_depth", checker._budget.peak_depth
        )
    return result_type, sf_term


_THEOREM_VIOLATION = (
    "translation type mismatch (Theorem 1/2 violation — library bug)"
)


def verify_emitted(
    fg_type: G.FGType,
    sf_term: F.Term,
    *,
    context,
    checker: Optional[Checker] = None,
    env: Optional[Env] = None,
) -> F.Type:
    """Executable Theorems 1 and 2 on an already-emitted translation.

    Runs the independent *System F* checker over ``sf_term`` and confirms
    its type matches the translation of ``fg_type`` (by ``checker``, in
    ``env``).  Returns the System F type.  Raises :class:`TypeError_` on a
    mismatch — which the theorems say cannot happen for well-typed input.

    ``sf_term`` was checked at ``context`` (a
    :class:`repro.prelude.context.PreludeContext`), so it must begin with
    exactly the context's own prefix ``let`` bindings; by the LET rule only
    the term inside them is typed, in the context's pre-typed ``sf_env``.
    The empty library has no prefix, so there the whole term is typed.
    """
    checker = checker if checker is not None else Checker()
    base_env = env if env is not None else Env.initial()
    span = getattr(sf_term, "span", None)
    program = context.program_part(sf_term)
    if program is None:
        raise TypeError_(
            f"{_THEOREM_VIOLATION}: the translation does not begin "
            "with the prelude's System F prefix"
        )
    with resource_scope(checker.limits, span):
        sf_type = sf_typecheck.type_of(program, context.sf_env)
        expected = checker.translate_type(fg_type, base_env)
    if not F.types_equal(sf_type, expected):
        raise TypeError_(
            f"{_THEOREM_VIOLATION}: System F says {sf_type}, expected "
            f"{expected}"
        )
    return sf_type


_CORE = EntryPoints(Checker)
typecheck = _CORE.typecheck
typecheck_all = _CORE.typecheck_all
type_of = _CORE.type_of
translate = _CORE.translate
evaluate = _CORE.evaluate
verify_translation = _CORE.verify_translation
