"""Concept-structure helpers: the paper's ``b``, ``ba`` and ``bm``.

:func:`refinements` is the one walk over a where clause's refinement
closure.  The abstraction (TABS) reads it to mint associated-type variables
and register proxy models, and every instantiation reads it to supply the
same slots in the same order: TAPP, a parameterized model's instantiation
and overload specificity.  :func:`members_with_paths` is not a where-clause
walk: it collects the members a concept exports, without de-duplication.

A concept's members and associated types are declared against its formal
parameters; using them at particular type arguments requires the *qualifying
substitution* (the paper's ``ba(c, taus), t:taus``): parameters map to the
arguments and each associated-type name maps to its concept-qualified
reference ``c<taus>.s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from repro.diagnostics.errors import TypeError_
from repro.fg import ast as G
from repro.fg.env import Env


def concept_def(env: Env, name: str, span=None) -> G.ConceptDef:
    """Look up a concept or fail with a positioned error."""
    cdef = env.lookup_concept(name)
    if cdef is None:
        raise TypeError_(f"unknown concept '{name}'", span)
    return cdef


def check_concept_arity(cdef: G.ConceptDef, args, span=None) -> None:
    if len(cdef.params) != len(args):
        raise TypeError_(
            f"concept {cdef.name} expects {len(cdef.params)} type "
            f"argument(s), got {len(args)}",
            span,
        )


def qualifying_subst(
    cdef: G.ConceptDef, args: Tuple[G.FGType, ...]
) -> Dict[str, G.FGType]:
    """Map params to ``args`` and associated names to ``c<args>.s`` (paper's ba)."""
    subst: Dict[str, G.FGType] = dict(zip(cdef.params, args))
    for s in cdef.assoc_types:
        subst[s] = G.TAssoc(cdef.name, args, s)
    return subst


@dataclass(frozen=True)
class MemberEntry:
    """One concept member with its qualified type and dictionary path."""

    name: str
    type: G.FGType
    path: Tuple[int, ...]
    concept: str  # the concept that declares the member


def members_with_paths(
    env: Env, concept: str, args: Tuple[G.FGType, ...], path: Tuple[int, ...] = ()
) -> List[MemberEntry]:
    """The paper's ``b(c, taus, n, Gamma)``.

    Collects the members of ``concept`` and everything it refines, with
    member types qualified at ``args`` and paths into the (nested) dictionary:
    refined concepts' dictionaries occupy the first components, followed by
    the concept's own members, exactly as in Figure 7.
    """
    cdef = concept_def(env, concept)
    check_concept_arity(cdef, args)
    subst = qualifying_subst(cdef, args)
    out: List[MemberEntry] = []
    for i, req in enumerate(cdef.refines):
        refined_args = tuple(G.substitute(a, subst) for a in req.args)
        out.extend(members_with_paths(env, req.concept, refined_args, path + (i,)))
    # Nested requirements occupy dictionary slots after the refinements but
    # do not export their members through this concept — they are reached
    # via the associated type (e.g. Iterator<Container<X>.iterator>.next).
    base = len(cdef.refines) + len(cdef.nested)
    for j, (name, t) in enumerate(cdef.members):
        out.append(
            MemberEntry(name, G.substitute(t, subst), path + (base + j,), concept)
        )
    return out


def find_member(
    env: Env, concept: str, args: Tuple[G.FGType, ...], member: str, span=None
) -> MemberEntry:
    """The entry for ``concept<args>.member``; nearest declaration wins."""
    entries = members_with_paths(env, concept, args)
    # The concept's own members shadow refined ones of the same name, so
    # search the concept's own block (which comes last) first.
    for entry in reversed(entries):
        if entry.name == member:
            return entry
    raise TypeError_(
        f"concept {concept} has no member '{member}'", span
    )


class Refinement(NamedTuple):
    """One concept of a where-clause requirement's refinement closure.

    ``formal`` are its arguments as the where clause spells them, ``actual``
    the same under an instantiation's substitution (equal to ``formal``
    without one), and ``path`` leads from the requirement's dictionary to
    this concept's.
    """

    concept: str
    cdef: G.ConceptDef
    formal: Tuple[G.FGType, ...]
    actual: Tuple[G.FGType, ...]
    path: Tuple[int, ...]


def refinements(
    env: Env,
    req: G.ConceptReq,
    seen: Set[Tuple[str, Tuple[G.FGType, ...]]],
    subst: Optional[Dict[str, G.FGType]] = None,
    span=None,
) -> Iterator[Refinement]:
    """The refinement closure of one where-clause requirement (paper's ``bm``).

    Depth-first, each concept before the ones it refines, following
    ``refines`` and then nested requirements in declaration order.  A
    ``(concept, formal arguments)`` pair already in ``seen`` is skipped and
    each visited one is added, so a caller that passes one set for a whole
    where clause reaches a concept shared by a refinement diamond once
    (paper 5.2).  The key is the *formal* arguments even at an instantiation
    (``subst``), so the abstraction (TABS) and every instantiation of it
    (TAPP) read the same entries in the same order: one associated-type slot
    per ``cdef.assoc_types`` entry.
    """
    actual = tuple(G.substitute(a, subst) for a in req.args) if subst else req.args
    stack = [(req.concept, req.args, actual, ())]
    while stack:
        concept, formal, actual, path = stack.pop()
        key = (concept, formal)
        if key in seen:
            continue
        seen.add(key)
        cdef = concept_def(env, concept, span)
        check_concept_arity(cdef, formal, span)
        yield Refinement(concept, cdef, formal, actual, path)
        refined = cdef.refines + cdef.nested
        if not refined:
            continue
        formal_subst = qualifying_subst(cdef, formal)
        actual_subst = (
            formal_subst if actual is formal else qualifying_subst(cdef, actual)
        )
        # Pushed last to first, so the first refinement is visited next.
        for i in range(len(refined) - 1, -1, -1):
            args = refined[i].args
            child = tuple(G.substitute(a, formal_subst) for a in args)
            stack.append((
                refined[i].concept,
                child,
                child if actual_subst is formal_subst
                else tuple(G.substitute(a, actual_subst) for a in args),
                path + (i,),
            ))
