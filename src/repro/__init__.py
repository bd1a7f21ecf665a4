"""Reproduction of *Essential Language Support for Generic Programming*
(Siek & Lumsdaine, PLDI 2005).

This library implements System F_G — System F extended with concepts,
models, where clauses, associated types, and same-type constraints — with a
type-preserving dictionary-passing translation to System F, plus the four
comparison mini-languages of the paper's Figure 1.

Quick start::

    from repro import fg_run, fg_check

    program = '''
    concept Magma<t> { op : fn(t, t) -> t; } in
    let twice = /\\\\t where Magma<t>. \\\\x : t. Magma<t>.op(x, x) in
    model Magma<int> { op = iadd; } in
    twice[int](21)
    '''
    fg_run(program)      # => 42
    fg_check(program)    # => the F_G type, 'int'

Subpackages:

- :mod:`repro.fg` — the F_G language (the paper's contribution),
- :mod:`repro.systemf` — the System F substrate and translation target,
- :mod:`repro.syntax` — concrete syntax for both languages,
- :mod:`repro.prelude` — a standard concept library,
- :mod:`repro.approaches` — Figure 1's four pre-existing approaches,
- :mod:`repro.extensions` — the section 6 extensions (named and
  parameterized models, member defaults, nested requirements).

Each function here that takes F_G source text runs
:func:`repro.pipeline.check_source`; the fail-fast ones stop it at its
first diagnostic and raise it (DESIGN.md, "One driver").

Importing a package loads only what every user of it runs; the rest of
its public names load on first access (see DESIGN.md, "Cold start").
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Re-exports, loaded on first access: importing ``repro`` (which every
#: submodule import does first) loads no checker, parser or printer.
__getattr__, __dir__ = lazy_exports(globals(), {
    "f_evaluate": ("repro.systemf", "evaluate"),
    "f_pretty_term": ("repro.systemf", "pretty_term"),
    "f_pretty_type": ("repro.systemf", "pretty_type"),
    "f_type_of": ("repro.systemf", "type_of"),
    "fg_pretty_term": ("repro.fg.pretty", "pretty_term"),
    "fg_pretty_type": ("repro.fg.pretty", "pretty_type"),
    "parse_f": ("repro.syntax", "parse_f"),
    "parse_fg": ("repro.syntax", "parse_fg"),
})


def _first(program: str, use_prelude: bool, **stages):
    """The pipeline stopped at its first diagnostic: raises it, or returns
    the accepted outcome.  Every fail-fast text entry point calls this."""
    from repro.pipeline import check_source

    return check_source(
        program, prelude=use_prelude, max_errors=1, **stages
    ).raise_first()


def fg_check(program: str, use_prelude: bool = False):
    """Typecheck an F_G source program; returns its F_G type."""
    return _first(program, use_prelude).type_


def fg_translate(program: str, use_prelude: bool = False):
    """Translate an F_G source program to a System F term."""
    return _first(program, use_prelude).translation


def fg_run(program: str, use_prelude: bool = False):
    """Typecheck, translate, and evaluate an F_G source program."""
    return _first(program, use_prelude, evaluate=True).value


def fg_verify(program: str, use_prelude: bool = False):
    """Run the executable Theorem 1/2 check on an F_G source program;
    returns its F_G type and the System F type of its translation."""
    outcome = _first(program, use_prelude, verify=True)
    return outcome.type_, outcome.sf_type


def fg_check_all(program: str, use_prelude: bool = False, **options):
    """Fault-tolerant check of F_G source; returns a :class:`CheckOutcome`.

    Unlike :func:`fg_check` this never raises a diagnostic: syntax and type
    errors are collected in ``outcome.report`` (parser resynchronization,
    typechecker recovery).  Keyword options are those of
    :func:`repro.pipeline.check_source`.
    """
    from repro.pipeline import check_source

    return check_source(program, prelude=use_prelude, **options)


__all__ = [
    "__version__",
    "f_evaluate",
    "f_pretty_term",
    "f_pretty_type",
    "f_type_of",
    "fg_check",
    "fg_check_all",
    "fg_pretty_term",
    "fg_pretty_type",
    "fg_run",
    "fg_translate",
    "fg_verify",
    "parse_f",
    "parse_fg",
]
