"""Where-clause elaboration specifics: sequential reference, diamond
de-duplication, and proxy-model reuse (paper sections 3-5)."""

from repro.fg import ast as G
from repro.fg.concepts import refinements
from repro.fg.env import Env
from repro.testing import reject_src, run_src, verify_src


class TestSequentialWhereClauses:
    def test_later_requirement_uses_earlier_assoc(self):
        """The paper: 'later requirements in the where clause can refer to
        requirements that appear earlier'."""
        src = r"""
        concept It<I> { types elt; curr : fn(I) -> elt; } in
        concept Mon<t> { op : fn(t, t) -> t; } in
        let f = /\I where It<I>, Mon<It<I>.elt>.
          \x : I. Mon<It<I>.elt>.op(It<I>.curr(x), It<I>.curr(x)) in
        model It<list int> { types elt = int; curr = \l : list int. car[int](l); } in
        model Mon<int> { op = iadd; } in
        f[list int](cons[int](21, nil[int]))
        """
        assert run_src(src) == 42
        verify_src(src)

    def test_earlier_cannot_use_later(self):
        src = r"""
        concept It<I> { types elt; curr : fn(I) -> elt; } in
        concept Mon<t> { op : fn(t, t) -> t; } in
        let f = /\I where Mon<It<I>.elt>, It<I>. 0 in
        0
        """
        err = reject_src(src)
        assert "no model" in err.message


class TestDiamondDeduplication:
    DIAMOND = r"""
    concept Top<t> { types s; base : fn(t) -> s; } in
    concept Left<t> { refines Top<t>; } in
    concept Right<t> { refines Top<t>; } in
    concept Bottom<t> { refines Left<t>; refines Right<t>; } in
    """

    def test_assoc_slots_deduplicate(self):
        env = Env.initial()
        t = G.TVar("t")
        top = G.ConceptDef(
            "Top", ("t",), assoc_types=("s",),
            members=(("base", G.TFn((t,), G.TVar("s"))),),
        )
        left = G.ConceptDef(
            "Left", ("t",), refines=(G.ConceptReq("Top", (t,)),)
        )
        right = G.ConceptDef(
            "Right", ("t",), refines=(G.ConceptReq("Top", (t,)),)
        )
        bottom = G.ConceptDef(
            "Bottom", ("t",),
            refines=(G.ConceptReq("Left", (t,)), G.ConceptReq("Right", (t,))),
        )
        for c in (top, left, right, bottom):
            env = env.add_concept(c)
        slots = [
            (entry.concept, s)
            for entry in refinements(env, G.ConceptReq("Bottom", (t,)), set())
            for s in entry.cdef.assoc_types
        ]
        # Top<t>.s reached twice via the diamond, minted once (paper 5.2).
        assert len(slots) == 1
        assert slots[0][0] == "Top"

    def test_diamond_program_runs(self):
        src = self.DIAMOND + r"""
        let through = /\t where Bottom<t>. \x : t. Top<t>.base(x) in
        model Top<int> { types s = bool; base = \x : int. igt(x, 0); } in
        model Left<int> { } in
        model Right<int> { } in
        model Bottom<int> { } in
        (through[int](5), through[int](-5))
        """
        assert run_src(src) == (True, False)
        verify_src(src)

    def test_repeated_requirement_same_args(self):
        # The same requirement twice is legal and deduplicates slots.
        src = r"""
        concept C<t> { types s; get : fn(t) -> s; } in
        let f = /\t where C<t>, C<t>. \x : t. C<t>.get(x) in
        model C<int> { types s = int; get = \x : int. imult(x, 2); } in
        f[int](21)
        """
        assert run_src(src) == 42
        verify_src(src)


class TestProxyModels:
    def test_nested_generic_uses_proxy(self):
        src = r"""
        concept C<t> { op : fn(t, t) -> t; } in
        let twice = /\t where C<t>. \x : t. C<t>.op(x, x) in
        let four_times = /\t where C<t>. \x : t. twice[t](twice[t](x)) in
        model C<int> { op = iadd; } in
        four_times[int](1)
        """
        assert run_src(src) == 4
        verify_src(src)

    def test_proxy_provides_refined_models(self):
        # where D<t> also brings the refined C<t> into scope.
        src = r"""
        concept C<t> { opc : fn(t, t) -> t; } in
        concept D<t> { refines C<t>; } in
        let needs_c = /\t where C<t>. \x : t. C<t>.opc(x, x) in
        let via_d = /\t where D<t>. \x : t. needs_c[t](x) in
        model C<int> { opc = imult; } in
        model D<int> { } in
        via_d[int](6)
        """
        assert run_src(src) == 36
        verify_src(src)

    def test_proxy_assoc_is_opaque(self):
        """Associated types of different parameters are distinct inside a
        generic function (the paper: 'associated types from different
        models are assumed to be different types')."""
        src = r"""
        concept It<I> { types elt; curr : fn(I) -> elt; } in
        let f = /\a, b where It<a>, It<b>.
          \x : a, y : b, flag : bool.
            if flag then It<a>.curr(x) else It<b>.curr(y) in
        0
        """
        err = reject_src(src)
        assert "disagree" in err.message

    def test_multi_param_requirement(self):
        src = r"""
        concept Conv<a, b> { conv : fn(a) -> b; } in
        let via = /\a, b, c where Conv<a, b>, Conv<b, c>.
          \x : a. Conv<b, c>.conv(Conv<a, b>.conv(x)) in
        model Conv<int, bool> { conv = \x : int. igt(x, 0); } in
        model Conv<bool, int> { conv = \x : bool. if x then 1 else 0; } in
        via[int, bool, int](7)
        """
        assert run_src(src) == 1
        verify_src(src)


class TestTypeLevelForall:
    def test_forall_type_annotation_with_requirements(self):
        # A parameter whose type is itself a constrained forall.
        src = r"""
        concept C<t> { op : fn(t, t) -> t; } in
        model C<int> { op = iadd; } in
        let apply_at_int = \f : forall t where C<t>. fn(t) -> t. f[int](20) in
        apply_at_int(/\t where C<t>. \x : t. C<t>.op(x, x))
        """
        assert run_src(src) == 40
        verify_src(src)

    def test_mismatched_forall_annotation_rejected(self):
        src = r"""
        concept C<t> { op : fn(t, t) -> t; } in
        concept D<t> { op2 : fn(t, t) -> t; } in
        let f = \g : forall t where C<t>. fn(t) -> t. 0 in
        f(/\t where D<t>. \x : t. x)
        """
        err = reject_src(src)
        assert "argument 1" in err.message
