"""The qualitative comparison behind the paper, as *runnable probes*.

The paper's motivation (sections 1-2, building on Garcia et al., OOPSLA
2003) is a feature comparison of the four pre-existing approaches against
concepts.  This module reproduces that comparison as an executable table:
each row is a language capability, each cell a verdict, and — wherever the
mini-languages can demonstrate it — a probe that *runs* and confirms the
verdict (a program that typechecks and computes, or one that is rejected
with the characteristic error).

``build_table()`` returns the rows; ``verify_table()`` runs every probe and
raises if any verdict is not actually exhibited by the implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.diagnostics.errors import TypeError_

LANGUAGES = ("subtyping", "typeclasses", "structural", "byname", "fg")


@dataclass
class FeatureRow:
    """One comparison row: a capability, per-language verdicts, and probes."""

    feature: str
    description: str
    support: Dict[str, bool]
    probes: Dict[str, Callable[[], bool]] = field(default_factory=dict)

    def verify(self) -> Dict[str, bool]:
        """Run every probe; returns per-language results (must all be True)."""
        return {lang: probe() for lang, probe in self.probes.items()}


def _expect_type_error(thunk: Callable[[], object]) -> bool:
    try:
        thunk()
    except TypeError_:
        return True
    return False


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def _probe_fg_scoped_models() -> bool:
    """Figure 6: overlapping monoids coexist in separate lexical scopes."""
    from repro.prelude import run

    result = run(
        """
        let product =
          model Semigroup<int> { binary_op = imult; } in
          model Monoid<int> { identity_elt = 1; } in
          accumulate[int] in
        (accumulate[int](range(1, 5)), product(range(1, 5)))
        """
    )
    return result == (10, 24)


def _probe_typeclasses_overlap_rejected() -> bool:
    """Haskell rejects a second ``Number Int`` instance (section 3.2)."""
    from repro.approaches import typeclasses as B
    from repro.approaches.figure1 import typeclasses_program

    base = typeclasses_program()
    second = B.InstanceDecl("Number", B.INT, (("mult", B.Var("primMulInt")),))
    overlapping = B.Program(
        classes=base.classes,
        instances=base.instances + (second,),
        functions=base.functions,
        main=base.main,
    )
    return _expect_type_error(lambda: B.check(overlapping))


def _probe_subtyping_not_retroactive() -> bool:
    """A class lacking an implements-clause never satisfies the bound,
    even with a structurally perfect ``mult``."""
    from repro.approaches import subtyping as A
    from repro.approaches.figure1 import subtyping_program

    base = subtyping_program()
    outsider = A.ClassDecl(
        "Outsider",
        implements=(),  # structurally fine, nominally unrelated
        fields=(("value", A.INT),),
        methods=(
            A.Method(
                "mult",
                (("x", A.TName("Outsider")),),
                A.TName("Outsider"),
                A.New(
                    "Outsider",
                    (
                        A.PrimOp(
                            "mul",
                            (
                                A.FieldAccess(A.Var("this"), "value"),
                                A.FieldAccess(A.Var("x"), "value"),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
    program = A.Program(
        interfaces=base.interfaces,
        classes=base.classes + (outsider,),
        functions=base.functions,
        main=A.Call("square", (A.New("Outsider", (A.IntLit(4),)),)),
    )
    return _expect_type_error(lambda: A.check(program))


def _probe_typeclasses_retroactive() -> bool:
    """Any type gains class membership by a later instance declaration."""
    from repro.approaches import typeclasses as B
    from repro.approaches.figure1 import typeclasses_program

    return B.run(typeclasses_program()) == 16


def _probe_structural_admits_accidental_match() -> bool:
    """Structural matching admits any cluster with a same-shaped ``mul`` —
    membership is not semantic."""
    from repro.approaches import structural as C
    from repro.approaches.figure1 import structural_program

    base = structural_program()
    # A 'matrix dimension' cluster whose `mul` happens to have the right
    # shape; CLU admits it into `number` with no declaration of intent.
    accidental = C.Cluster(
        "dim",
        (
            C.ClusterOp(
                "mul",
                (("a", C.TCluster("dim")), ("b", C.TCluster("dim"))),
                C.TCluster("dim"),
                body=C.Var("a"),
            ),
        ),
    )
    program = C.Program(
        type_sets=base.type_sets,
        clusters=(accidental,),
        procs=base.procs,
        main=base.main,
    )
    checker = C.Checker(program)
    checker.check_membership(C.TCluster("dim"), "number")
    return True


def _probe_structural_explicit_instantiation() -> bool:
    """CLU procs demand explicit type arguments (``square[int]``)."""
    from repro.approaches import structural as C
    from repro.approaches.figure1 import structural_program

    base = structural_program()
    missing = C.Program(
        type_sets=base.type_sets,
        procs=base.procs,
        main=C.ProcCall("square", (), (C.IntLit(4),)),
    )
    return _expect_type_error(lambda: C.check(missing))


def _probe_byname_retroactive() -> bool:
    """Declaring ``int mult(int, int)`` anywhere makes int usable."""
    from repro.approaches import byname as D
    from repro.approaches.figure1 import byname_program

    return D.run(byname_program()) == 16


def _probe_byname_requires_function() -> bool:
    """Without a visible ``mult`` at the right signature the call fails."""
    from repro.approaches import byname as D
    from repro.approaches.figure1 import byname_program

    base = byname_program()
    without_mult = D.Program(
        specs=base.specs,
        functions=(),  # no `mult` for int anywhere
        foralls=base.foralls,
        main=base.main,
    )
    return _expect_type_error(lambda: D.check(without_mult))


def _probe_fg_multi_type_constraint() -> bool:
    """F_G concepts constrain *groups* of types (OutputIterator<Out, t>)."""
    from repro.prelude import run

    return run("reverse_int(copy[list int, list int](range(0, 3), nil[int]), nil[int])") == [0, 1, 2]


def _probe_fg_associated_types() -> bool:
    """F_G: associated types + same-type constraints (the merge example)."""
    from repro.prelude import run

    result = run(
        "reverse_int(merge[list int, list int, list int]"
        "(range(0, 3), range(1, 4), nil[int]), nil[int])"
    )
    return result == [0, 1, 1, 2, 2, 3]


def _probe_fg_refinement() -> bool:
    """Concept composition by refinement (Monoid refines Semigroup)."""
    from repro.prelude import run

    return run("Monoid<int>.binary_op(20, 22)") == 42


def _probe_subtyping_square() -> bool:
    from repro.approaches import subtyping as A
    from repro.approaches.figure1 import subtyping_program

    return A.run(subtyping_program()) == 16


def _probe_structural_square() -> bool:
    from repro.approaches import structural as C
    from repro.approaches.figure1 import structural_program

    return C.run(structural_program()) == 16


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


def build_table() -> Tuple[FeatureRow, ...]:
    """The comparison table, with probes attached where demonstrable."""
    return (
        FeatureRow(
            "generic-algorithms",
            "Figure 1's square can be written and reused",
            {lang: True for lang in LANGUAGES},
            {
                "subtyping": _probe_subtyping_square,
                "typeclasses": _probe_typeclasses_retroactive,
                "structural": _probe_structural_square,
                "byname": _probe_byname_retroactive,
                "fg": lambda: __import__("repro").fg_run(
                    __import__(
                        "repro.approaches.figure1", fromlist=["FG_SQUARE_SOURCE"]
                    ).FG_SQUARE_SOURCE
                )
                == 16,
            },
        ),
        FeatureRow(
            "retroactive-modeling",
            "an existing type can be made to conform after the fact",
            {
                "subtyping": False,
                "typeclasses": True,
                "structural": True,
                "byname": True,
                "fg": True,
            },
            {
                "subtyping": _probe_subtyping_not_retroactive,
                "typeclasses": _probe_typeclasses_retroactive,
                "structural": _probe_structural_admits_accidental_match,
                "byname": _probe_byname_retroactive,
                "fg": _probe_fg_refinement,
            },
        ),
        FeatureRow(
            "semantic-conformance",
            "conformance is a declared intent, not a structural accident",
            {
                "subtyping": True,
                "typeclasses": True,
                "structural": False,
                "byname": False,
                "fg": True,
            },
            {
                "structural": _probe_structural_admits_accidental_match,
                "byname": _probe_byname_requires_function,
            },
        ),
        FeatureRow(
            "scoped-conformance",
            "overlapping conformance declarations in separate scopes "
            "(paper Figure 6)",
            {
                "subtyping": False,
                "typeclasses": False,
                "structural": False,
                "byname": False,
                "fg": True,
            },
            {
                "typeclasses": _probe_typeclasses_overlap_rejected,
                "fg": _probe_fg_scoped_models,
            },
        ),
        FeatureRow(
            "multi-type-constraints",
            "one constraint over a group of types (section 2)",
            {
                "subtyping": False,
                "typeclasses": False,
                "structural": False,
                "byname": False,
                "fg": True,
            },
            {"fg": _probe_fg_multi_type_constraint},
        ),
        FeatureRow(
            "associated-types",
            "types that vary per model without extra type parameters "
            "(section 5)",
            {
                "subtyping": False,
                "typeclasses": False,
                "structural": False,
                "byname": False,
                "fg": True,
            },
            {"fg": _probe_fg_associated_types},
        ),
        FeatureRow(
            "same-type-constraints",
            "equate associated types across constraints (section 5)",
            {
                "subtyping": False,
                "typeclasses": False,
                "structural": False,
                "byname": False,
                "fg": True,
            },
            {"fg": _probe_fg_associated_types},
        ),
        FeatureRow(
            "constraint-composition",
            "build new constraints from old (refinement; CLU cannot "
            "compose type sets, section 2)",
            {
                "subtyping": False,
                "typeclasses": False,
                "structural": False,
                "byname": False,
                "fg": True,
            },
            {"fg": _probe_fg_refinement},
        ),
        FeatureRow(
            "implicit-instantiation",
            "type arguments inferred at call sites (future work for F_G, "
            "section 6)",
            {
                "subtyping": True,
                "typeclasses": True,
                "structural": False,
                "byname": True,
                "fg": False,
            },
            {"structural": _probe_structural_explicit_instantiation},
        ),
    )


def verify_table() -> Tuple[FeatureRow, ...]:
    """Run every probe in the table; raise if any verdict is undemonstrated."""
    rows = build_table()
    for row in rows:
        results = row.verify()
        failed = [lang for lang, ok in results.items() if not ok]
        if failed:
            raise AssertionError(
                f"comparison row '{row.feature}': probes failed for "
                f"{', '.join(failed)}"
            )
    return rows


def format_table(rows=None) -> str:
    """Render the comparison as the paper-style feature matrix."""
    rows = rows if rows is not None else build_table()
    header = ["feature"] + list(LANGUAGES)
    widths = [max(len(header[0]), max(len(r.feature) for r in rows))] + [
        max(len(lang), 3) for lang in LANGUAGES
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        cells = [row.feature.ljust(widths[0])]
        for lang, width in zip(LANGUAGES, widths[1:]):
            cells.append(("yes" if row.support[lang] else "-").ljust(width))
        lines.append("  ".join(cells))
    return "\n".join(lines)
