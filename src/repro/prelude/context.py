"""Library contexts: every program is checked at the position a library
leaves for it, and "no prelude" is the empty library.

Concepts and models in F_G are lexically scoped expressions, so what a
library leaves in scope for the program after it is a plain value.  A
:class:`PreludeContext` records that user-program position:

- the environment there, the fresh-name counter, and the checker's nesting
  depth (plus the deepest nesting the library itself reached);
- the System F prefix: the chain of ``let`` bindings the library translates
  to, with a hole where the program's translation goes;
- ``sf_env``, the System F typing environment at that hole: each prefix
  binding's ``bound`` typed once by the independent System F checker, in the
  environment the earlier bindings built (the LET rule), so verifying a
  program types only its own translation;
- the concept and model declarations enclosing the program, whose exit
  premises (a concept must not escape; a model's result type must make
  sense outside it) are replayed on the program's type, innermost first;
- ``rt_env``, the runtime environment at the hole: the prefix evaluated
  once, binding by binding, from the builtins' environment;
- ``eval_spans``, the span of each evaluation step the prefix took, in
  order.  :meth:`PreludeContext.evaluate` charges one fuel step per span
  and then evaluates only the program's part inside ``rt_env``, so fuel
  trips, ``eval.steps`` and deadline polls are those of evaluating the
  whole spliced term.

:func:`context_for` returns one of two contexts per checker class:

- the prelude, checked once per process: checking a program against it
  yields the same type, translation and diagnostics as checking the text
  ``wrap(program)``, while only the program is parsed and checked;
- the empty library (:func:`empty_context`): the initial environment, no
  frames and no System F prefix, so the program is checked as the whole
  text, and resource trips are reported at the program's own root span;
  its ``rt_env`` is the builtins' environment, shared by every run.

A context reads no source text: every check of text at a context,
fail-fast ones included, is :func:`repro.pipeline.check_source`'s.

The prelude is built lazily, on first use, under a lock; contexts are
immutable, so threads share them freely.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.diagnostics.limits import Budget, Limits, resource_scope
from repro.diagnostics.source import Span
from repro.fg import ast as G
from repro.fg.env import Env
from repro.fg.typecheck import Checker
from repro.prelude.source import PRELUDE
from repro.syntax import parse_fg
from repro.systemf import ast as F
from repro.systemf import eval as sf_eval
from repro.systemf import typecheck as sf_typecheck
from repro.systemf.typecheck import TypeEnv

#: The name of the System F placeholder standing for the user's program
#: while a library is checked; no F_G identifier can spell it.
_HOLE = "<program>"


@dataclass(frozen=True)
class _Frame:
    """A concept or model declaration enclosing the user's program."""

    decl: G.Term  # a ConceptExpr or ModelExpr
    inner: Env  # the scope the declaration opens
    outer: Env  # the scope around the declaration


@dataclass(frozen=True)
class PreludeContext:
    """A library, checked by ``checker_cls``, at its user-program
    position."""

    checker_cls: type
    env: Env
    counter: int
    depth: int
    peak_depth: int
    #: ``depth_spans[d]``: the prelude term that first reached depth d + 1.
    depth_spans: Tuple[Optional[Span], ...]
    #: Innermost first.
    frames: Tuple[_Frame, ...]
    #: The prelude's translation, outermost ``let`` first; each binding's
    #: ``body`` is ignored when splicing.
    prefix: Tuple[F.Let, ...]
    #: The System F typing environment inside ``prefix``.
    sf_env: TypeEnv
    #: The runtime environment inside ``prefix``.
    rt_env: sf_eval.Env
    #: The span of each step evaluating ``prefix`` took, in order.
    eval_spans: Tuple[Optional[Span], ...]
    #: Where resource trips are reported: the library's root span, or
    #: ``None`` for the program's own (the empty library).
    span: Optional[Span]

    def check(self, checker: Checker, term: G.Term) -> Tuple[G.FGType, F.Term]:
        """``checker.check`` of ``term`` at the user-program position: the
        exit premises replayed and the translation spliced into the
        library's."""
        span = term.span if self.span is None else self.span
        with resource_scope(checker.limits, span):
            fg_type, sf_term = checker.check(term, self._enter(checker))
            for frame in self.frames:
                decl = frame.decl
                if isinstance(decl, G.ConceptExpr):
                    fg_type = checker.leave_concept(
                        decl.concept, fg_type, frame.inner, decl.span
                    )
                else:
                    fg_type = checker.leave_model(
                        fg_type, frame.inner, frame.outer, decl.span
                    )
        for let in reversed(self.prefix):
            sf_term = F.Let(let.span, let.name, let.bound, sf_term)
        return fg_type, sf_term

    def program_part(self, sf_term: F.Term) -> Optional[F.Term]:
        """The program's part of ``sf_term``, a translation spliced by
        :meth:`check`; ``None`` unless ``sf_term`` begins with exactly this
        context's own prefix ``let`` bindings."""
        for let in self.prefix:
            if not (
                isinstance(sf_term, F.Let)
                and sf_term.name == let.name
                and sf_term.bound is let.bound
            ):
                return None
            sf_term = sf_term.body
        return sf_term

    def evaluate(self, sf_term: F.Term, budget: Budget):
        """Evaluate ``sf_term``, a translation spliced by :meth:`check`:
        charge ``budget`` the prefix's recorded steps, then evaluate only
        the program's part inside ``rt_env``.  A stack overflow is
        reported at the whole term's span."""
        program = self.program_part(sf_term)
        if program is None:
            raise ValueError(
                "the translation does not begin with the library's System F "
                "prefix"
            )
        for span in self.eval_spans:
            budget.spend_fuel(span)
        return sf_eval.evaluate_in(program, self.rt_env, budget, sf_term.span)

    def _enter(self, checker: Checker) -> Env:
        budget = checker._budget
        cap = budget.limits.max_check_depth
        if cap is not None and cap < self.peak_depth:
            # The library alone is deeper than this run allows: trip where
            # checking the library's text would have.
            budget.resume(cap, cap)
            budget.enter_depth(self.depth_spans[cap])
        budget.resume(self.depth, self.peak_depth)
        checker._names = self.counter
        return self.env


class _StepRecorder(Budget):
    """An unmetered budget that records the span of every step."""

    __slots__ = ("spans",)

    def __init__(self):
        super().__init__()
        self.spans: List[Optional[Span]] = []

    def spend_fuel(self, span=None) -> None:
        self.spans.append(span)


class _DepthRecorder(Budget):
    """A budget that remembers the span first reaching each depth."""

    __slots__ = ("spans",)

    def __init__(self, limits: Optional[Limits] = None):
        super().__init__(limits)
        self.spans: List[Optional[Span]] = []

    def enter_depth(self, span=None) -> None:
        super().enter_depth(span)
        if self.peak_depth > len(self.spans):
            self.spans.append(span)


def _build(checker_cls, text: str) -> PreludeContext:
    """Check the library ``text`` once, recording its user-program
    position; ``text`` is a chain of ``concept``/``model``/``let`` ending
    where the program goes."""
    root = parse_fg(text + "\n0", "<prelude>")
    chain: List[G.Term] = []
    node = root
    while isinstance(node, (G.Let, G.ConceptExpr, G.ModelExpr)):
        chain.append(node)
        node = node.body
    assert isinstance(node, G.IntLit), f"library ends in {node!r}"
    hole = node
    watched = {id(n) for n in chain}
    entry_envs: Dict[int, Env] = {}
    at_hole: Dict[str, object] = {}

    class Recorder(checker_cls):
        def check(self, term, env):
            if term is hole:
                entry_envs[id(term)] = env
                at_hole.update(
                    counter=self._names,
                    depth=self._budget.depth,
                    peak_depth=self._budget.peak_depth,
                    depth_spans=tuple(self._budget.spans),
                )
                return G.TTuple(()), F.Var(name=_HOLE)
            if id(term) in watched:
                entry_envs[id(term)] = env
            return super().check(term, env)

    recorder = Recorder()
    recorder._budget = _DepthRecorder(recorder.limits)
    prefix = []
    sf_env = TypeEnv.initial()
    rt_env = sf_eval.INITIAL_ENV
    steps = _StepRecorder()
    with resource_scope(recorder.limits, root.span):
        _, translation = recorder.check(root, Env.initial())
        # The LET rule, binding by binding: type each bound, then evaluate
        # it as evaluating the whole chain would (the let's own step first).
        while isinstance(translation, F.Let):
            prefix.append(translation)
            sf_env = sf_env.bind(
                translation.name,
                sf_typecheck.type_of(translation.bound, sf_env),
            )
            steps.spend_fuel(translation.span)
            rt_env = rt_env.bind(
                translation.name,
                sf_eval.evaluate(translation.bound, rt_env, budget=steps),
            )
            translation = translation.body
    assert translation == F.Var(name=_HOLE), "library is not a let chain"
    frames = tuple(
        _Frame(decl, entry_envs[id(decl.body)], entry_envs[id(decl)])
        for decl in reversed(chain)
        if isinstance(decl, (G.ConceptExpr, G.ModelExpr))
    )
    return PreludeContext(
        checker_cls=checker_cls,
        env=entry_envs[id(hole)],
        frames=frames,
        prefix=tuple(prefix),
        sf_env=sf_env,
        rt_env=rt_env,
        eval_spans=tuple(steps.spans),
        span=root.span,
        **at_hole,
    )


_CONTEXTS: Dict[type, PreludeContext] = {}
_LOCK = threading.Lock()


def empty_context(checker_cls, env: Optional[Env] = None) -> PreludeContext:
    """The empty library over ``env`` (by default the initial
    environment): the program is checked there as the whole text."""
    return PreludeContext(
        checker_cls=checker_cls,
        env=env if env is not None else Env.initial(),
        counter=0,
        depth=0,
        peak_depth=0,
        depth_spans=(),
        frames=(),
        prefix=(),
        sf_env=TypeEnv.initial(),
        rt_env=sf_eval.INITIAL_ENV,
        eval_spans=(),
        span=None,
    )


#: The empty library, per checker class: a context is immutable, so one
#: serves every program.
_EMPTY_CONTEXTS: Dict[type, PreludeContext] = {}


def context_for(checker_cls=Checker, prelude: bool = True) -> PreludeContext:
    """The prelude checked by ``checker_cls``, built once per process; or,
    without ``prelude``, the empty library, also built once."""
    if not prelude:
        context = _EMPTY_CONTEXTS.get(checker_cls)
        if context is None:
            context = _EMPTY_CONTEXTS.setdefault(
                checker_cls, empty_context(checker_cls))
        return context
    context = _CONTEXTS.get(checker_cls)
    if context is None:
        with _LOCK:
            context = _CONTEXTS.get(checker_cls)
            if context is None:
                context = _CONTEXTS[checker_cls] = _build(
                    checker_cls, PRELUDE
                )
    return context
