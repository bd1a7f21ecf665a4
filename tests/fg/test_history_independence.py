"""A check's output depends only on its input, not on what the process
checked before.

Capture-avoiding substitution renames a ``forall`` binder by a fixed rule
(``repro.systemf.ast.rename_binders``), so the same program gets the same
type, translation and rendered report however often, on whichever thread
and at whichever library context it is checked.  Both programs instantiate
``k`` at ``b`` under ``k``'s own binder ``b``, so each check renames it:

- ``K_APPLIED`` is rejected, and the report prints the renamed binder;
- ``DUP`` is accepted, and its type prints the renamed binder twice.

``tests/service/test_pool_history.py`` checks the same in a pool worker.
"""

from __future__ import annotations

import threading

import pytest

from repro.extensions import ExtChecker
from repro.fg.typecheck import Checker
from repro.pipeline import check_source
from repro.prelude.context import context_for
from repro.systemf import pretty_term

K_APPLIED = r"let k = /\a. /\b. \x : a, y : b. x in /\b. k[b](1)"
DUP = (r"let k = /\a. /\b. \x : a, y : b. x in "
       r"let dup = /\b. \x : b. (k[b], k[b]) in dup")
PROGRAMS = {"k-applied": K_APPLIED, "dup": DUP}


def observe(text, *, prelude=False, ext=False):
    """The type, the program's translation, the rendered report, the
    verdict and the value of one check."""
    out = check_source(text, "<input>", prelude=prelude, ext=ext,
                       verify=True, evaluate=True)
    context = context_for(ExtChecker if ext else Checker, prelude)
    translation = (
        None if out.translation is None
        else pretty_term(context.program_part(out.translation))
    )
    return (str(out.type_), translation, out.report.render(), out.verified,
            repr(out.value))


def test_the_renamed_binder_is_spelled_by_the_rule():
    assert observe(K_APPLIED)[2] == (
        "<input>:1:48: type error: cannot apply non-function of type "
        "forall b#1. fn(b, b#1) -> b"
    )
    assert observe(DUP)[0] == (
        "forall b. fn(b) -> "
        "(forall b#1. fn(b, b#1) -> b * forall b#1. fn(b, b#1) -> b)"
    )


@pytest.mark.parametrize("ext", [False, True], ids=["core", "ext"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestSameAnswer:
    def test_three_checks_in_one_process(self, name, ext):
        first, *again = [observe(PROGRAMS[name], ext=ext) for _ in range(3)]
        assert again == [first, first]

    def test_two_threads_at_once(self, name, ext):
        want = observe(PROGRAMS[name], ext=ext)
        start = threading.Barrier(2)
        seen = [[], []]

        def work(out):
            start.wait(timeout=30.0)
            for _ in range(3):
                out.append(observe(PROGRAMS[name], ext=ext))

        threads = [threading.Thread(target=work, args=(out,)) for out in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [[want] * 3, [want] * 3]

    def test_prelude_context_and_empty_library(self, name, ext):
        text = PROGRAMS[name]
        assert observe(text, prelude=True, ext=ext) == observe(text, ext=ext)
