"""Seeded F_G inputs that carry their own known answers.

Every input is built here together with the verdict it must get, computed
in Python and never by the checker under test:

- ``Case.expect == ("accept", value)`` — the program checks, verifies and
  evaluates to ``value``;
- ``Case.expect == ("reject", stage)`` — the program is rejected, and every
  diagnostic comes from ``stage`` (``"parse"`` for lex/parse errors,
  ``"check"`` for type errors).

The same ``(workload, seed)`` always yields byte-identical inputs; the
random stream is seeded from the string ``"<workload>:<seed>"``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "corpus")

#: Snapshots of the repository's example programs that check under the
#: prelude, with their values.  ``monoid.fg`` is left out on purpose:
#: whether it should fail under the prelude is an open question, and the
#: checker under test must not supply its own answer.
CORPUS = {
    "compose.fg": 42,
    "container.fg": 7,
    "equality.fg": True,
    "pairs.fg": 41,
    "scoped_models.fg": 3,
}

#: Diagnostic ``kind`` strings, by the stage that emits them.
STAGE_OF_KIND = {
    "lex error": "parse",
    "parse error": "parse",
    "type error": "check",
}


@dataclass(frozen=True)
class Case:
    """One input: its name, text, checking policy and known answer."""

    name: str
    text: str
    prelude: bool
    expect: Tuple[str, object]
    #: Present only for inputs routed through ``fg serve`` (``verify`` is
    #: the per-request policy override sent with the batch).
    verify: bool = True

    def to_json(self) -> Dict[str, object]:
        return {"name": self.name, "text": self.text,
                "prelude": self.prelude, "verify": self.verify,
                "expect": list(self.expect)}


def digest(cases: List[Case]) -> str:
    """SHA-256 over the canonical JSON of the inputs and their answers."""
    blob = json.dumps([c.to_json() for c in cases], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- list literals ----------------------------------------------------------


def int_list(values: List[int]) -> str:
    out = "nil[int]"
    for v in reversed(values):
        out = f"cons[int]({v}, {out})"
    return out


def bool_list(values: List[bool]) -> str:
    out = "nil[bool]"
    for v in reversed(values):
        out = f"cons[bool]({'true' if v else 'false'}, {out})"
    return out


def _values(rng: random.Random, n: int) -> List[int]:
    return [rng.randrange(100) for _ in range(n)]


# -- prelude-lib: short user programs over the prelude's algorithms ---------
#
# Each is ``let xs = <list> in <call>`` so the parse edit of broken-edits
# (dropping the ``in``) applies to every one of them.  Sizes come from the
# shape's repetition index ``size``, so every seed has the same mix of
# sizes; the seed picks the values.


def _pl_accumulate(rng, size):
    xs = _values(rng, 8 + 2 * size)
    return ("accumulate", f"let xs = {int_list(xs)} in accumulate[int](xs)",
            sum(xs))


def _pl_accumulate_iter(rng, size):
    xs = _values(rng, 8 + 2 * size)
    return ("accumulate_iter",
            f"let xs = {int_list(xs)} in accumulate_iter[list int](xs)",
            sum(xs))


def _pl_count(rng, size):
    xs = _values(rng, 8 + 2 * size)
    return ("count", f"let xs = {int_list(xs)} in count[list int](xs)",
            len(xs))


def _pl_copy(rng, size):
    xs = _values(rng, 8 + 2 * size)
    return ("copy",
            f"let xs = {int_list(xs)} in copy[list int, list int](xs, nil[int])",
            list(reversed(xs)))


def _pl_contains(rng, size):
    xs = _values(rng, 8 + 2 * size)
    probe = rng.choice(xs) if rng.random() < 0.5 else 100 + rng.randrange(50)
    return ("contains",
            f"let xs = {int_list(xs)} in contains[list int](xs, {probe})",
            probe in xs)


def _pl_min_element(rng, size):
    xs = _values(rng, 8 + 2 * size)
    return ("min_element",
            f"let xs = {int_list(xs)} in min_element[list int](xs)", min(xs))


def _pl_merge(rng, size):
    a = sorted(_values(rng, 3 + size))
    b = sorted(_values(rng, 8 - size))
    # The prelude's output iterator conses, so the merge comes out reversed.
    return ("merge",
            f"let xs = {int_list(a)} in "
            f"merge[list int, list int, list int](xs, {int_list(b)}, nil[int])",
            sorted(a + b, reverse=True))


PRELUDE_SHAPES: List[Callable] = [
    _pl_accumulate, _pl_accumulate_iter, _pl_count, _pl_copy,
    _pl_contains, _pl_min_element, _pl_merge,
]


def _corpus() -> List[Tuple[str, str, object]]:
    out = []
    for name in sorted(CORPUS):
        with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as fh:
            out.append((name, fh.read(), CORPUS[name]))
    return out


def prelude_lib(seed: int, per_shape: int = 5) -> List[Case]:
    rng = random.Random(f"prelude-lib:{seed}")
    cases = []
    for i in range(per_shape):
        for shape in PRELUDE_SHAPES:
            label, text, value = shape(rng, i)
            cases.append(Case(f"pl{i}-{label}", text, True, ("accept", value)))
    for name, text, value in _corpus():
        cases.append(Case(f"corpus-{name}", text, True, ("accept", value)))
    return cases


# -- generic-stress: the paper-figure shapes, no prelude --------------------

_MONOID = r"""concept Semigroup<t> { binary_op : fn(t, t) -> t; } in
concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
let accumulate = /\t where Monoid<t>.
  fix (\accum : fn(list t) -> t.
    \ls : list t.
      if null[t](ls) then Monoid<t>.identity_elt
      else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))) in
"""

_ITER = r"""concept Iterator<Iter> {
  types elt;
  next : fn(Iter) -> Iter;
  curr : fn(Iter) -> elt;
  at_end : fn(Iter) -> bool;
} in
"""

_ITER_LIST_INT = r"""model Iterator<list int> {
  types elt = int;
  next = \ls : list int. cdr[int](ls);
  curr = \ls : list int. car[int](ls);
  at_end = \ls : list int. null[int](ls);
} in
"""

#: A second iterator model whose element type differs from ``int``: with
#: it in scope, ``merge[list int, list bool, ...]`` reaches the same-type
#: constraint and fails there instead of at model lookup.
ITER_LIST_BOOL = r"""model Iterator<list bool> {
  types elt = bool;
  next = \ls : list bool. cdr[bool](ls);
  curr = \ls : list bool. car[bool](ls);
  at_end = \ls : list bool. null[bool](ls);
} in
"""

_MERGE = _ITER + r"""concept OutputIterator<Out, t> { put : fn(Out, t) -> Out; } in
concept LessThanComparable<t> { less : fn(t, t) -> bool; } in
let copy = /\Iter, Out where Iterator<Iter>, OutputIterator<Out, Iterator<Iter>.elt>.
  fix (\cp : fn(Iter, Out) -> Out.
    \it : Iter, out : Out.
      if Iterator<Iter>.at_end(it) then out
      else cp(Iterator<Iter>.next(it),
              OutputIterator<Out, Iterator<Iter>.elt>.put(out, Iterator<Iter>.curr(it)))) in
let merge = /\Iter1, Iter2, Out
    where Iterator<Iter1>, Iterator<Iter2>,
          OutputIterator<Out, Iterator<Iter1>.elt>,
          LessThanComparable<Iterator<Iter1>.elt>;
          Iterator<Iter1>.elt == Iterator<Iter2>.elt.
  fix (\m : fn(Iter1, Iter2, Out) -> Out.
    \i1 : Iter1, i2 : Iter2, out : Out.
      if Iterator<Iter1>.at_end(i1) then copy[Iter2, Out](i2, out)
      else if Iterator<Iter2>.at_end(i2) then copy[Iter1, Out](i1, out)
      else if LessThanComparable<Iterator<Iter1>.elt>.less(
                Iterator<Iter1>.curr(i1), Iterator<Iter2>.curr(i2))
      then m(Iterator<Iter1>.next(i1), i2,
             OutputIterator<Out, Iterator<Iter1>.elt>.put(out, Iterator<Iter1>.curr(i1)))
      else m(i1, Iterator<Iter2>.next(i2),
             OutputIterator<Out, Iterator<Iter1>.elt>.put(out, Iterator<Iter2>.curr(i2)))) in
""" + _ITER_LIST_INT + r"""model OutputIterator<list int, int> {
  put = \out : list int, x : int. cons[int](x, out);
} in
model LessThanComparable<int> { less = ilt; } in
"""

_OPS = {
    "iadd": lambda a, b: a + b,
    "imult": lambda a, b: a * b,
    "imax": max,
    "imin": min,
}


def _fold(op, xs: List[int], identity: int) -> int:
    acc = identity
    for x in reversed(xs):
        acc = _OPS[op](x, acc)
    return acc


def _gs_figure5(rng, size):
    """Figure 5: generic ``accumulate`` over a Monoid."""
    xs = _values(rng, 10 + 2 * size)
    text = (_MONOID + "model Semigroup<int> { binary_op = iadd; } in\n"
            "model Monoid<int> { identity_elt = 0; } in\n"
            f"accumulate[int]({int_list(xs)})")
    return "figure5", text, sum(xs)


def _gs_overlapping(rng, size):
    """Figure 6: n lexically scoped, overlapping Monoid<int> models."""
    n = 3 + size % 4
    xs = [rng.randint(1, 9) for _ in range(3)]
    parts = [_MONOID + f"let ls = {int_list(xs)} in"]
    names, values = [], []
    ops = list(_OPS)
    for i in range(n):
        op = ops[(i + rng.randrange(4)) % 4]
        ident = rng.randint(0, 9)
        parts.append(
            f"let f{i} =\n"
            f"  model Semigroup<int> {{ binary_op = {op}; }} in\n"
            f"  model Monoid<int> {{ identity_elt = {ident}; }} in\n"
            f"  accumulate[int] in"
        )
        names.append(f"f{i}(ls)")
        values.append(_fold(op, xs, ident))
    parts.append("(" + ", ".join(names) + ")")
    return "overlapping", "\n".join(parts), tuple(values)


def _gs_refinement(rng, size):
    """Figure 7: member access through a refinement chain of depth d."""
    depth = 4 + size % 7
    calls = 6 + size * 3 % 9
    step = rng.randint(1, 9)
    parts = ["concept C0<t> { op0 : fn(t, t) -> t; } in"]
    for i in range(1, depth + 1):
        parts.append(f"concept C{i}<t> {{ refines C{i - 1}<t>; op{i} : t; }} in")
    parts.append("model C0<int> { op0 = iadd; } in")
    for i in range(1, depth + 1):
        parts.append(f"model C{i}<int> {{ op{i} = {i}; }} in")
    expr = "0"
    for _ in range(calls):
        expr = f"C{depth}<int>.op0({expr}, {step})"
    parts.append(expr)
    return "refinement", "\n".join(parts), calls * step


def _gs_merge(rng, size):
    """Section 5: ``merge`` under a same-type constraint."""
    a = sorted(_values(rng, 3 + size % 8))
    b = sorted(_values(rng, 10 - size % 8))
    text = (_MERGE + f"merge[list int, list int, list int]"
            f"({int_list(a)}, {int_list(b)}, nil[int])")
    return "merge", text, sorted(a + b, reverse=True)


def _gs_kiter(rng, size):
    """Section 5: k iterators tied by k - 1 same-type constraints."""
    k = 6 + size % 7
    heads = [rng.randrange(100) for _ in range(k)]
    vars_ = ", ".join(f"I{i}" for i in range(k))
    reqs = ", ".join(f"Iterator<I{i}>" for i in range(k))
    sames = ", ".join(
        f"Iterator<I0>.elt == Iterator<I{i}>.elt" for i in range(1, k)
    )
    params = ", ".join(f"x{i} : I{i}" for i in range(k))
    tyargs = ", ".join("list int" for _ in range(k))
    args = ", ".join(int_list([h]) for h in heads)
    text = (_ITER + _ITER_LIST_INT
            + f"let f = /\\{vars_} where {reqs}; {sames}.\n"
            + f"  \\{params}. Iterator<I0>.curr(x0) in\n"
            + f"f[{tyargs}]({args})")
    return "kiter", text, heads[0]


STRESS_SHAPES: List[Callable] = [
    _gs_figure5, _gs_overlapping, _gs_refinement, _gs_merge, _gs_kiter,
]


def generic_stress(seed: int, per_shape: int = 8) -> List[Case]:
    rng = random.Random(f"generic-stress:{seed}")
    cases = []
    for i in range(per_shape):
        for shape in STRESS_SHAPES:
            label, text, value = shape(rng, i)
            cases.append(Case(f"gs{i}-{label}", text, False, ("accept", value)))
    return cases


# -- broken-edits: one seeded edit of known outcome per program -------------


def _drop_nth(text: str, token: str, rng: random.Random) -> str:
    """Remove one seeded occurrence of ``token`` (the keyword or a brace)."""
    pattern = r"\bin\b" if token == "in" else re.escape(token)
    spots = [m.start() for m in re.finditer(pattern, text)]
    at = rng.choice(spots)
    return text[:at] + text[at + len(token):]


_MODEL_DECLS = {
    # The model each shape cannot check without; deleting it is a check
    # rejection because no enclosing scope supplies another.
    "figure5": "model Monoid<int> { identity_elt = 0; } in\n",
    "refinement": "model C0<int> { op0 = iadd; } in",
    "merge": "model LessThanComparable<int> { less = ilt; } in\n",
    "kiter": _ITER_LIST_INT,
}

#: Argument text each prelude shape's call can be given instead of ``xs``
#: to make it ill-typed (an int or bool where a list is required).
_MISTYPED = ["true", "7"]


def _break_prelude(rng, turn: int, text: str) -> Tuple[str, str, str]:
    edit = ["drop-in", "mistyped", "same-type"][turn % 3]
    if edit == "drop-in":
        return "drop-in", _drop_nth(text, "in", rng), "parse"
    if edit == "mistyped":
        call = text.split(" in ", 1)[1]
        bad = call.replace("(xs", "(" + rng.choice(_MISTYPED), 1)
        return "mistyped", text.split(" in ", 1)[0] + " in " + bad, "check"
    a = sorted(_values(rng, 4))
    b = [rng.random() < 0.5 for _ in range(4)]
    return "same-type", (
        ITER_LIST_BOOL + f"let xs = {int_list(a)} in "
        f"merge[list int, list bool, list int](xs, {bool_list(b)}, nil[int])"
    ), "check"


def _break_stress(rng, turn: int, label: str,
                  text: str) -> Tuple[str, str, str]:
    edits = ["drop-brace", "mistyped"]
    if label in _MODEL_DECLS:
        edits.append("drop-model")
    if label == "merge":
        edits.append("same-type")
    edit = edits[turn % len(edits)]
    if edit == "drop-brace":
        return edit, _drop_nth(text, "}", rng), "parse"
    if edit == "drop-model":
        return edit, text.replace(_MODEL_DECLS[label], "", 1), "check"
    if edit == "same-type":
        head = text.rsplit("\n", 1)[0]
        b = [rng.random() < 0.5 for _ in range(4)]
        return edit, (head + "\n" + ITER_LIST_BOOL
                      + "merge[list int, list bool, list int]"
                      f"({int_list([rng.randrange(100)])}, "
                      f"{bool_list(b)}, nil[int])"), "check"
    return edit, _mistype_last_line(text, label), "check"


def _mistype_last_line(text: str, label: str) -> str:
    """Rewrite the program's final call so a generic function gets a bool
    where it wants a list or an int."""
    head, last = text.rsplit("\n", 1)
    if label == "figure5":
        last = "accumulate[int](true)"
    elif label == "overlapping":
        last = "f0(true)"
    elif label == "refinement":
        last = last.replace("(0, ", "(true, ", 1)
    elif label == "merge":
        last = "merge[list int, list int, list int](true, nil[int], nil[int])"
    else:
        last = re.sub(r"cons\[int\]\(\d+, nil\[int\]\)", "false", last,
                      count=1)
    return head + "\n" + last


def broken_edits(seed: int, per_shape: int = 3) -> List[Case]:
    """Each edit kind comes up a fixed number of times per round, whatever
    the seed; the seed picks the programs and where an edit lands."""
    rng = random.Random(f"broken-edits:{seed}")
    cases = []
    base = [c for c in prelude_lib(seed, per_shape)
            if not c.name.startswith("corpus-")]
    for turn, case in enumerate(base):
        edit, text, stage = _break_prelude(rng, turn, case.text)
        cases.append(Case(f"{case.name}+{edit}", text, True,
                          ("reject", stage)))
    for turn, case in enumerate(generic_stress(seed, per_shape)):
        label = case.name.split("-", 1)[1]
        edit, text, stage = _break_stress(rng, turn, label, case.text)
        cases.append(Case(f"{case.name}+{edit}", text, False,
                          ("reject", stage)))
    return cases


# -- serve-edits: a seeded draw from the three in-process workloads ---------


def serve_edits(seed: int) -> List[Case]:
    """A fixed mix per round -- 19 prelude-lib, 10 generic-stress and 12
    broken-edits programs, every other one sent with ``verify`` on -- in an
    order the seed picks."""
    rng = random.Random(f"serve-edits:{seed}")
    mix = prelude_lib(seed, 2) + generic_stress(seed, 2) + broken_edits(seed, 1)
    picked = [Case(c.name, c.text, c.prelude, c.expect, verify=i % 2 == 0)
              for i, c in enumerate(mix)]
    rng.shuffle(picked)
    return [Case(f"r{i}-{c.name}", c.text, c.prelude, c.expect, c.verify)
            for i, c in enumerate(picked)]


WORKLOADS: Dict[str, Callable[[int], List[Case]]] = {
    "prelude-lib": prelude_lib,
    "generic-stress": generic_stress,
    "broken-edits": broken_edits,
    "serve-edits": serve_edits,
}


def make(workload: str, seed: int) -> List[Case]:
    return WORKLOADS[workload](seed)


def stage_of(kinds: List[str]) -> Optional[str]:
    """The single stage all diagnostic kinds belong to, or ``None``."""
    stages = {STAGE_OF_KIND.get(k, k) for k in kinds}
    return stages.pop() if len(stages) == 1 else None


def judge(case: Case, ok: bool, value: object, kinds: List[str],
          evaluated: bool = True) -> Optional[str]:
    """Compare one verdict with the case's known answer.

    Returns ``None`` on a match, else a one-line reason.  ``evaluated`` is
    ``False`` for verdicts that never evaluate (``fg serve`` only checks),
    in which case an accepted program's value is not compared.
    """
    verdict, answer = case.expect
    if verdict == "accept":
        if not ok:
            return f"rejected ({', '.join(kinds)}), expected accept"
        if evaluated and value != answer:
            return f"value {value!r}, expected {answer!r}"
        return None
    if ok:
        return f"accepted, expected a {answer} rejection"
    stage = stage_of(kinds)
    if stage != answer:
        return f"rejected by {kinds}, expected only {answer} errors"
    return None
