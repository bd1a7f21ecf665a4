"""Tests for the F_G REPL state machine."""

import pytest

from repro.tools.repl import Repl


@pytest.fixture
def repl():
    return Repl()


class TestExpressions:
    def test_evaluate(self, repl):
        assert repl.feed("iadd(40, 2)") == "42 : int"

    def test_render_values(self, repl):
        assert repl.feed("(1, true)") == "(1, true) : (int * bool)"
        assert repl.feed("cons[int](1, nil[int])") == "[1] : list int"

    def test_empty_line(self, repl):
        assert repl.feed("") is None

    def test_type_error_reported_not_raised(self, repl):
        out = repl.feed("iadd(1, true)")
        assert "type error" in out

    def test_parse_error_reported(self, repl):
        out = repl.feed("iadd(1,,)")
        assert "parse error" in out


class TestDeclarations:
    def test_declare_and_use(self, repl):
        assert "declared" in repl.feed("concept Magma<t> { op : fn(t, t) -> t; }")
        assert "declared" in repl.feed("model Magma<int> { op = iadd; }")
        assert "declared" in repl.feed(
            r"let twice = /\t where Magma<t>. \x : t. Magma<t>.op(x, x)"
        )
        assert repl.feed("twice[int](21)") == "42 : int"

    def test_let_declaration(self, repl):
        repl.feed("let x = 10")
        assert repl.feed("iadd(x, 1)") == "11 : int"

    def test_bad_declaration_not_accumulated(self, repl):
        out = repl.feed("let x = iadd(1, true)")
        assert "type error" in out
        assert repl.decls == []

    def test_type_alias_declaration(self, repl):
        repl.feed("type pair = (int * int)")
        assert repl.feed(r"(\p : pair. (nth p 0))((7, 8))") == "7 : int"

    def test_decls_command(self, repl):
        repl.feed("let x = 1")
        out = repl.feed(":decls")
        assert "let x = 1" in out

    def test_clear(self, repl):
        repl.feed("let x = 1")
        repl.feed(":clear")
        assert "type error" in repl.feed("x")


class TestCommands:
    def test_type_command(self, repl):
        assert repl.feed(r":type \x : int. x") == "fn(int) -> int"

    def test_translate_command(self, repl):
        repl.feed("concept C<t> { op : fn(t, t) -> t; }")
        repl.feed("model C<int> { op = iadd; }")
        out = repl.feed(":translate C<int>.op(1, 2)")
        assert "nth" in out

    def test_prelude(self, repl):
        repl.feed(":prelude")
        assert repl.feed("accumulate[int](range(1, 4))") == "6 : int"

    def test_type_error_after_prelude_is_at_the_users_line(self, repl):
        repl.feed(":prelude")
        assert "declared" in repl.feed("let x = 1")
        out = repl.feed("accumulate[int](true)")
        # The session's second line: the prelude is a context, not text
        # in front of the session's own.
        assert out.startswith("<repl>:2:") and "type error" in out
        assert repl.feed(":errors accumulate[int](true)").startswith(
            "<repl>:2:"
        )

    def test_decls_lists_only_the_users_declarations(self, repl):
        from repro.prelude import PRELUDE

        repl.feed(":prelude")
        assert repl.feed(":decls") == "-- no declarations"
        repl.feed("let x = 1")
        out = repl.feed(":decls")
        assert out == "let x = 1 in"
        assert PRELUDE not in out and "concept" not in out

    def test_clear_unloads_the_prelude(self, repl):
        repl.feed(":prelude")
        repl.feed(":clear")
        assert "type error" in repl.feed("accumulate[int](range(1, 4))")

    def test_ext_toggle(self, repl):
        assert "extensions on" in repl.feed(":ext")
        repl.feed("concept Eq<t> { eq : fn(t, t) -> bool; "
                  r"neq : fn(t, t) -> bool = \x : t, y : t. "
                  "bnot(Eq<t>.eq(x, y)); }")
        repl.feed("model Eq<int> { eq = ieq; }")
        assert repl.feed("Eq<int>.neq(1, 1)") == "false : bool"

    @pytest.mark.parametrize("ext", [False, True], ids=["core", "ext"])
    @pytest.mark.parametrize("command", [":type", ":translate"])
    @pytest.mark.parametrize("expr, kind", [
        ("iadd(1, true)", "type error"),
        ("iadd(1,,)", "parse error"),
        ("iadd(1, 2", "parse error"),
    ], ids=["type-error", "parse-error", "unclosed"])
    def test_a_rejected_command_reports_and_the_session_goes_on(
            self, repl, ext, command, expr, kind):
        if ext:
            repl.feed(":ext")
        out = repl.feed(f"{command} {expr}")
        assert out.startswith("<repl>:1:") and kind in out, out
        assert not repl.pending
        assert repl.feed("iadd(1, 2)") == "3 : int"

    def test_a_failing_command_prints_the_internal_error_banner(
            self, repl, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr("repro.tools.repl.f_pretty_term", broken)
        out = repl.feed(":translate iadd(1, 2)")
        assert out.startswith("-- internal error") and "injected" in out
        assert repl.feed("iadd(1, 2)") == "3 : int"

    def test_quit_raises_system_exit(self, repl):
        with pytest.raises(SystemExit):
            repl.feed(":quit")

    def test_unknown_command(self, repl):
        assert "unknown command" in repl.feed(":frobnicate")

    def test_help(self, repl):
        assert ":type" in repl.feed(":help")


class TestMultiline:
    def test_incomplete_input_continues(self, repl):
        assert repl.feed("iadd(1,") is None
        assert repl.pending
        assert repl.feed("2)") == "3 : int"
        assert not repl.pending

    def test_multiline_declaration(self, repl):
        assert repl.feed("concept C<t> {") is None
        assert repl.feed("  op : fn(t, t) -> t;") is None
        out = repl.feed("}")
        assert "declared" in out
