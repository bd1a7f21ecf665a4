"""An accepting verdict leaves no cyclic garbage.

A reference cycle outlives the verdict that made it until the collector
finds it, and the collector then runs inside whatever comes next.  Each
program below is checked twice to warm up, then once more with the
collector disabled; ``gc.collect()`` must then find nothing unreachable.
The checks run in a child interpreter, so no other thread of the test
process can allocate inside the measured window.

Rejecting verdicts are out of scope: a recorded diagnostic keeps its
``__traceback__``, and with it the frames that raised it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: A refinement diamond (``Top`` through ``Left`` and ``Right``), a nested
#: requirement on an associated type (``Box<X>.cursor``) and associated
#: types at both ends.
CORE = r"""
concept Top<t> { types s; base : fn(t) -> s; } in
concept Left<t> { refines Top<t>; } in
concept Right<t> { refines Top<t>; } in
concept Cursor<I> { refines Left<I>; refines Right<I>; next : fn(I) -> I; } in
concept Box<X> { types cursor; require Cursor<cursor>; open : fn(X) -> cursor; } in
let peek = /\X where Box<X>. \x : X.
  Top<Box<X>.cursor>.base(Cursor<Box<X>.cursor>.next(Box<X>.open(x))) in
model Top<int> { types s = bool; base = \i : int. igt(i, 1); } in
model Left<int> { } in
model Right<int> { } in
model Cursor<int> { next = \i : int. iadd(i, 1); } in
model Box<list int> { types cursor = int; open = \l : list int. car[int](l); } in
peek[list int](cons[int](1, nil[int]))
"""

PRELUDE = "accumulate[int](range(1, 5))"

NAMED_MODEL = r"""
concept Monoid<t> { op : fn(t, t) -> t; id : t; } in
let fold3 = /\t where Monoid<t>. \a : t, b : t, c : t.
  Monoid<t>.op(a, Monoid<t>.op(b, c)) in
model add = Monoid<int> { op = iadd; id = 0; } in
model mul = Monoid<int> { op = imult; id = 1; } in
(use add in fold3[int](1, 2, 3), use mul in fold3[int](2, 3, 4))
"""

PARAM_MODEL = r"""
concept It<I> { types elt; cur : fn(I) -> elt; } in
concept Sg<t> { refines It<t>; op : fn(t, t) -> t; } in
let twice = /\t where Sg<t>. \x : t. (Sg<t>.op(x, x), It<t>.cur(x)) in
model It<int> { types elt = bool; cur = \i : int. igt(i, 0); } in
model Sg<int> { op = iadd; } in
model forall t where Sg<t>. It<list t> {
  types elt = It<t>.elt;
  cur = \l : list t. It<t>.cur(car[t](l));
} in
model forall t where Sg<t>. Sg<list t> {
  op = \a : list t, b : list t.
    cons[t](Sg<t>.op(car[t](a), car[t](b)), nil[t]);
} in
(twice[list int](cons[int](1, nil[int])), twice[int](2))
"""

OVERLOAD = r"""
concept Stepper<I> { next : fn(I) -> I; } in
concept RandomStepper<I> {
  refines Stepper<I>;
  advance_by : fn(I, int) -> I;
} in
overload advance {
  /\I where Stepper<I>. \it : I, n : int.
    (fix (\go : fn(I, int) -> I. \j : I, k : int.
      if ile(k, 0) then j else go(Stepper<I>.next(j), isub(k, 1))))(it, n);
  /\I where RandomStepper<I>. \it : I, n : int.
    RandomStepper<I>.advance_by(it, n);
} in
model Stepper<list int> { next = \l : list int. cdr[int](l); } in
model Stepper<int> { next = \p : int. iadd(p, 1); } in
model RandomStepper<int> { advance_by = \p : int, n : int. iadd(p, n); } in
(advance[int](0, 5),
 car[int](advance[list int](cons[int](9, cons[int](8, nil[int])), 1)))
"""

DEFAULT = r"""
concept Eq<t> {
  eq : fn(t, t) -> bool;
  neq : fn(t, t) -> bool = \x : t, y : t. bnot(Eq<t>.eq(x, y));
} in
let differ = /\t where Eq<t>. \x : t, y : t. Eq<t>.neq(x, y) in
model Eq<int> { eq = ieq; } in
(differ[int](1, 2), differ[int](3, 3))
"""

#: name -> (source, prelude, ext)
CASES = {
    "core-diamond-nested": (CORE, False, False),
    "prelude": (PRELUDE, True, False),
    "ext-named-model": (NAMED_MODEL, False, True),
    "ext-param-model": (PARAM_MODEL, False, True),
    "ext-overload": (OVERLOAD, False, True),
    "ext-default": (DEFAULT, False, True),
}

CHILD = r"""
import gc, json, sys
from repro.pipeline import check_source

cases = json.load(sys.stdin)
out = {}
for name, (text, prelude, ext) in cases.items():
    def verdict():
        return check_source(text, name, prelude=prelude, ext=ext,
                            verify=True, evaluate=True)
    verdict()
    verdict()
    gc.collect()
    gc.disable()
    try:
        outcome = verdict()
    finally:
        garbage = gc.collect()
        gc.enable()
    out[name] = [outcome.report.ok, outcome.verified, garbage]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def verdicts():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(CASES),
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_accepting_verdict_leaves_no_cycle(verdicts, case):
    ok, verified, garbage = verdicts[case]
    assert ok and verified
    assert garbage == 0
