"""Integration tests: the standard concept library (prelude)."""

import pytest

from repro import prelude
from repro.diagnostics.errors import TypeError_
from repro.fg import pretty_type


class TestAlgorithms:
    def test_square(self):
        assert prelude.run("square[int](7)") == 49

    def test_accumulate_sum(self):
        assert prelude.run("accumulate[int](range(1, 11))") == 55

    def test_accumulate_iter(self):
        assert prelude.run("accumulate_iter[list int](range(1, 5))") == 10

    def test_count(self):
        assert prelude.run("count[list int](range(0, 9))") == 9

    def test_count_empty(self):
        assert prelude.run("count[list int](nil[int])") == 0

    def test_copy_reverses_into_output(self):
        assert prelude.run(
            "copy[list int, list int](range(0, 3), nil[int])"
        ) == [2, 1, 0]

    def test_contains(self):
        assert prelude.run("contains[list int](range(0, 5), 3)") is True
        assert prelude.run("contains[list int](range(0, 5), 9)") is False

    def test_min_element(self):
        assert prelude.run(
            "min_element[list int](cons[int](4, cons[int](1, cons[int](3, nil[int]))))"
        ) == 1

    def test_min_element_singleton(self):
        assert prelude.run("min_element[list int](cons[int](9, nil[int]))") == 9

    def test_merge_sorted(self):
        assert prelude.run(
            "reverse_int(merge[list int, list int, list int]"
            "(range(0, 3), range(1, 4), nil[int]), nil[int])"
        ) == [0, 1, 1, 2, 2, 3]

    def test_merge_one_empty(self):
        assert prelude.run(
            "reverse_int(merge[list int, list int, list int]"
            "(nil[int], range(0, 3), nil[int]), nil[int])"
        ) == [0, 1, 2]

    def test_helpers(self):
        assert prelude.run("range(2, 6)") == [2, 3, 4, 5]
        assert prelude.run("length_int(range(0, 7))") == 7
        assert prelude.run("reverse_int(range(0, 3), nil[int])") == [2, 1, 0]


class TestDefaultModels:
    def test_int_monoid_is_additive(self):
        assert prelude.run("Monoid<int>.identity_elt") == 0
        assert prelude.run("Monoid<int>.binary_op(20, 22)") == 42

    def test_group_inverse(self):
        assert prelude.run("Group<int>.inverse(5)") == -5

    def test_comparisons(self):
        assert prelude.run("EqualityComparable<int>.equal(3, 3)") is True
        assert prelude.run("LessThanComparable<int>.less(2, 3)") is True
        assert prelude.run("EqualityComparable<bool>.equal(true, false)") is False

    def test_number_model(self):
        assert prelude.run("Number<int>.mult(6, 7)") == 42

    def test_iterator_model(self):
        assert prelude.run(
            "Iterator<list int>.curr(range(5, 9))"
        ) == 5
        assert prelude.run(
            "Iterator<list int>.at_end(nil[int])"
        ) is True

    def test_iterator_elt_resolves(self):
        fg_type = prelude.type_of(
            r"(\x : Iterator<list int>.elt. x)"
        )
        assert pretty_type(fg_type) == "fn(int) -> int"


class TestLocalOverrides:
    def test_product_via_scoped_models(self):
        result = prelude.run(
            """
            let product =
              model Semigroup<int> { binary_op = imult; } in
              model Monoid<int> { identity_elt = 1; } in
              accumulate[int] in
            (accumulate[int](range(1, 5)), product(range(1, 5)))
            """
        )
        assert result == (10, 24)

    def test_max_monoid(self):
        result = prelude.run(
            """
            model Semigroup<int> { binary_op = imax; } in
            model Monoid<int> { identity_elt = -1000000; } in
            accumulate[int](cons[int](3, cons[int](9, cons[int](4, nil[int]))))
            """
        )
        assert result == 9

    def test_user_type_errors_surface(self):
        with pytest.raises(TypeError_):
            prelude.typecheck("accumulate[bool](nil[bool])")

    def test_whole_prelude_verifies(self):
        """Theorem 1/2 over the complete prelude + a driver program."""
        from repro.fg import verify_translation

        verify_translation(prelude.parse("accumulate[int](range(1, 4))"))


class TestUserPositions:
    """``--prelude`` diagnostics point into the user's file, not into the
    wrapped text the checker actually saw."""

    def test_redefining_a_prelude_concept_is_rejected_at_user_lines(self):
        # A user file may not redefine a prelude concept: monoid.fg
        # declares its own Semigroup/Monoid, so under --prelude it fails
        # with two "already defined" errors on its own lines 1 and 2.
        from pathlib import Path

        from repro.pipeline import check_source

        path = Path(__file__).resolve().parents[2] / "examples/fg/monoid.fg"
        outcome = check_source(path.read_text(), "monoid.fg", prelude=True)
        diags = outcome.report.to_json()
        assert [(d["line"], d["col"]) for d in diags] == [(1, 1), (2, 1)]
        assert all("already defined" in d["message"] for d in diags)
        assert outcome.report.render().splitlines()[0].startswith(
            "monoid.fg:1:1: type error: concept 'Semigroup'"
        )

    def test_parse_error_excerpt_quotes_the_user_line(self):
        from repro.pipeline import check_source

        text = "let a = 1 in\nlet b = (a in\nb"
        plain = check_source(text, "u.fg").report
        wrapped = check_source(text, "u.fg", prelude=True).report
        assert wrapped.to_json() == plain.to_json()
        assert wrapped.render() == plain.render()
        assert "    2 | let b = (a in" in wrapped.render()
