"""Typing environments for F_G.

The paper's Gamma has four parts (section 4): term-variable types, type
variables in scope, concept declarations (with dictionary info), and model
declarations (dictionary variable + path + associated-type assignment), and
— with section 5 — a fifth: the set of type equalities.  :class:`Env` is
immutable; every extension returns a new environment, which is exactly what
gives concepts and models their lexical scoping (the paper's headline
difference from Haskell's global instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.fg import ast as G
from repro.fg.congruence import CongruenceSolver, solver_for_equalities
from repro.systemf import ast as F
from repro.systemf.builtins import BUILTIN_TYPES


@dataclass(frozen=True)
class ModelInfo:
    """A model in scope: where its dictionary lives in the translation.

    ``dict_var`` names the System F variable bound to a dictionary that
    *contains* this model's dictionary at tuple ``path`` (empty for a model's
    own ``let``-bound dictionary; non-empty for models reachable through
    concept refinement, mirroring the paper's ``(d, n)`` pairs).
    ``assoc`` maps the concept's associated-type names to their assignments
    (qualified ``c<taus>.s`` references for where-clause proxy models,
    concrete types for real model declarations).

    Two optional fields serve the section 6 extensions:

    - ``member_vars`` maps member names directly to bound System F
      variables; when present, member access translates to that variable
      instead of a tuple path (used while checking concept-member defaults,
      whose dictionary is still under construction);
    - ``prebuilt`` is a complete System F expression for the dictionary
      (used for instantiations of parameterized models, whose dictionaries
      are built by applying a polymorphic dictionary function).
    """

    concept: str
    args: Tuple[G.FGType, ...]
    dict_var: str
    path: Tuple[int, ...]
    assoc: Mapping[str, G.FGType]
    member_vars: Optional[Mapping[str, str]] = None
    prebuilt: Optional[object] = None


def _sf_type_to_fg(t: F.Type) -> G.FGType:
    """Convert a (builtin) System F type to the corresponding F_G type."""
    if isinstance(t, F.TVar):
        return G.TVar(t.name)
    if isinstance(t, F.TBase):
        return G.TBase(t.name)
    if isinstance(t, F.TList):
        return G.TList(_sf_type_to_fg(t.elem))
    if isinstance(t, F.TFn):
        return G.TFn(
            tuple(_sf_type_to_fg(p) for p in t.params), _sf_type_to_fg(t.result)
        )
    if isinstance(t, F.TTuple):
        return G.TTuple(tuple(_sf_type_to_fg(i) for i in t.items))
    if isinstance(t, F.TForall):
        return G.TForall(t.vars, (), (), _sf_type_to_fg(t.body))
    raise AssertionError(f"cannot import System F type {t!r} into F_G")


#: F_G types of the builtin constants (same names as System F's).
FG_BUILTIN_TYPES: Dict[str, G.FGType] = {
    name: _sf_type_to_fg(t) for name, t in BUILTIN_TYPES.items()
}


class Env:
    """An immutable F_G typing environment (the paper's Gamma)."""

    __slots__ = (
        "_vars", "_tyvars", "_concepts", "_models", "_equalities", "_extras",
        "_extends",
    )

    def __init__(
        self,
        vars_: Dict[str, G.FGType],
        tyvars: FrozenSet[str],
        concepts: Dict[str, G.ConceptDef],
        models: Dict[str, Tuple[ModelInfo, ...]],
        equalities: Tuple[Tuple[G.FGType, G.FGType], ...],
        extras: Optional[Dict[str, object]] = None,
        extends: Optional[tuple] = None,
    ):
        self._vars = vars_
        self._tyvars = tyvars
        self._concepts = concepts
        self._models = models
        self._equalities = equalities
        self._extras = extras if extras is not None else {}
        # ``(prefix, prefix's own extends)``: the equality tuples that
        # ``equalities`` extended, innermost first, or ``None``.
        self._extends = extends

    @classmethod
    def initial(cls) -> "Env":
        """Builtins bound; no type variables, concepts, models, or equalities."""
        return cls(dict(FG_BUILTIN_TYPES), frozenset(), {}, {}, ())

    def _clone(self, **replacements) -> "Env":
        fields = {
            "vars_": self._vars,
            "tyvars": self._tyvars,
            "concepts": self._concepts,
            "models": self._models,
            "equalities": self._equalities,
            "extras": self._extras,
            "extends": self._extends,
        }
        fields.update(replacements)
        return Env(**fields)

    # -- term variables -------------------------------------------------

    def lookup_var(self, name: str) -> Optional[G.FGType]:
        return self._vars.get(name)

    def bind_var(self, name: str, t: G.FGType) -> "Env":
        new_vars = dict(self._vars)
        new_vars[name] = t
        return self._clone(vars_=new_vars)

    # -- type variables ---------------------------------------------------

    @property
    def tyvars(self) -> FrozenSet[str]:
        return self._tyvars

    def has_tyvar(self, name: str) -> bool:
        return name in self._tyvars

    def bind_tyvars(self, names) -> "Env":
        return self._clone(tyvars=self._tyvars | frozenset(names))

    # -- concepts ---------------------------------------------------------

    def lookup_concept(self, name: str) -> Optional[G.ConceptDef]:
        return self._concepts.get(name)

    def add_concept(self, concept: G.ConceptDef) -> "Env":
        new_concepts = dict(self._concepts)
        new_concepts[concept.name] = concept
        return self._clone(concepts=new_concepts)

    # -- models -------------------------------------------------------------

    def models_of(self, concept: str) -> Tuple[ModelInfo, ...]:
        """Models of ``concept`` in scope, innermost-first."""
        return self._models.get(concept, ())

    def add_model(self, info: ModelInfo) -> "Env":
        new_models = dict(self._models)
        new_models[info.concept] = (info,) + new_models.get(info.concept, ())
        return self._clone(models=new_models)

    # -- type equalities ------------------------------------------------------

    @property
    def equalities(self) -> Tuple[Tuple[G.FGType, G.FGType], ...]:
        return self._equalities

    @property
    def extends(self) -> Optional[tuple]:
        """The equality tuples :attr:`equalities` extended, as nested
        ``(prefix, prefix's extends)`` pairs, innermost first."""
        return self._extends

    def add_equality(self, left: G.FGType, right: G.FGType) -> "Env":
        return self.add_equalities(((left, right),))

    def add_equalities(self, pairs) -> "Env":
        pairs = tuple(pairs)
        if not pairs:
            return self
        return self._clone(
            equalities=self._equalities + pairs,
            extends=(self._equalities, self._extends),
        )

    # -- extension storage ------------------------------------------------------

    def extra(self, key: str, default=None):
        """Extension-scoped lexical data (e.g. named models)."""
        return self._extras.get(key, default)

    def with_extra(self, key: str, value) -> "Env":
        new_extras = dict(self._extras)
        new_extras[key] = value
        return self._clone(extras=new_extras)

    # -- free type variables (for the TABS freshness premise) -----------------

    def free_type_vars(self) -> FrozenSet[str]:
        """Free type variables of every binding (paper's FTV(Gamma))."""
        out = frozenset()
        for t in self._vars.values():
            out |= G.free_type_vars(t)
        for infos in self._models.values():
            for info in infos:
                for a in info.args:
                    out |= G.free_type_vars(a)
        for left, right in self._equalities:
            out |= G.free_type_vars(left) | G.free_type_vars(right)
        return out


class SolverCache:
    """Memoizes congruence solvers keyed by an environment's equality tuple.

    Environments are persistent and equalities grow monotonically within a
    scope, so many checker steps share one equality set; building the solver
    once per distinct set keeps checking near-linear in practice.  Most
    lookups come back with the very tuple object seen before, so the cache
    first tries the tuple's ``id``; the entry keeps the tuple alive, so the
    ``id`` cannot be reused by another object while the entry exists.

    On a miss the solver extends the cached solver of the nearest tuple the
    environment's equalities extended (:attr:`Env.extends`), merging only
    the equalities added since; with none cached it starts empty.
    """

    def __init__(self, max_nodes: Optional[int] = None, *,
                 metrics=None, tracer=None):
        self._cache: Dict[tuple, CongruenceSolver] = {}
        self._by_id: Dict[int, Tuple[tuple, CongruenceSolver]] = {}
        self._max_nodes = max_nodes
        self._metrics = metrics
        self._tracer = tracer

    def solver(self, env: Env) -> CongruenceSolver:
        key = env.equalities
        entry = self._by_id.get(id(key))
        if entry is not None and entry[0] is key:
            if self._metrics is not None:
                self._metrics.inc("congruence.cache_hits")
            return entry[1]
        solver = self._cache.get(key)
        if solver is None:
            solver = self._extend_nearest(key, env.extends)
            self._cache[key] = solver
        elif self._metrics is not None:
            self._metrics.inc("congruence.cache_hits")
        self._by_id[id(key)] = (key, solver)
        return solver

    def _extend_nearest(self, key: tuple, link) -> CongruenceSolver:
        while link is not None:
            base, link = link
            entry = self._by_id.get(id(base))
            if entry is not None and entry[0] is base:
                return entry[1].extend(key[len(base):])
        return solver_for_equalities(
            key, self._max_nodes, metrics=self._metrics, tracer=self._tracer,
        )
