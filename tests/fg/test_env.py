"""Unit tests for the persistent F_G environment (the paper's Gamma)."""

from repro.fg import ast as G
from repro.fg.env import Env, ModelInfo, SolverCache
from repro.observability import MetricsRegistry


def simple_concept(name="C"):
    return G.ConceptDef(name, ("t",), members=(("op", G.TVar("t")),))


class TestPersistence:
    def test_bind_var_does_not_mutate(self):
        env = Env.initial()
        env2 = env.bind_var("x", G.INT)
        assert env.lookup_var("x") is None
        assert env2.lookup_var("x") == G.INT

    def test_tyvars(self):
        env = Env.initial().bind_tyvars(("a", "b"))
        assert env.has_tyvar("a")
        assert env.has_tyvar("b")
        assert not env.has_tyvar("c")

    def test_concepts(self):
        env = Env.initial()
        env2 = env.add_concept(simple_concept())
        assert env.lookup_concept("C") is None
        assert env2.lookup_concept("C").name == "C"

    def test_models_innermost_first(self):
        env = Env.initial().add_concept(simple_concept())
        outer = ModelInfo("C", (G.INT,), "d1", (), {})
        inner = ModelInfo("C", (G.INT,), "d2", (), {})
        env = env.add_model(outer).add_model(inner)
        assert env.models_of("C")[0].dict_var == "d2"
        assert env.models_of("C")[1].dict_var == "d1"

    def test_equalities_accumulate(self):
        env = Env.initial().add_equality(G.TVar("a"), G.INT)
        env2 = env.add_equality(G.TVar("b"), G.BOOL)
        assert len(env.equalities) == 1
        assert len(env2.equalities) == 2

    def test_extras_scoped(self):
        env = Env.initial()
        env2 = env.with_extra("key", {"m": 1})
        assert env.extra("key") is None
        assert env2.extra("key") == {"m": 1}

    def test_builtins_present(self):
        env = Env.initial()
        assert env.lookup_var("iadd") is not None
        assert env.lookup_var("cons") is not None
        t = env.lookup_var("nil")
        assert isinstance(t, G.TForall)


class TestFreeTypeVars:
    def test_initially_empty(self):
        assert Env.initial().free_type_vars() == frozenset()

    def test_var_binding_contributes(self):
        env = Env.initial().bind_var("x", G.TVar("a"))
        assert "a" in env.free_type_vars()

    def test_model_args_contribute(self):
        env = Env.initial().add_model(
            ModelInfo("C", (G.TVar("q"),), "d", (), {})
        )
        assert "q" in env.free_type_vars()

    def test_equalities_contribute(self):
        env = Env.initial().add_equality(G.TVar("z"), G.INT)
        assert "z" in env.free_type_vars()


class TestSolverCache:
    def test_same_equalities_share_solver(self):
        cache = SolverCache()
        env = Env.initial().add_equality(G.TVar("a"), G.INT)
        s1 = cache.solver(env)
        s2 = cache.solver(env)
        assert s1 is s2

    def test_different_equalities_different_solver(self):
        cache = SolverCache()
        env1 = Env.initial().add_equality(G.TVar("a"), G.INT)
        env2 = env1.add_equality(G.TVar("b"), G.BOOL)
        assert cache.solver(env1) is not cache.solver(env2)

    def test_solver_reflects_equalities(self):
        cache = SolverCache()
        env = Env.initial().add_equality(G.TVar("a"), G.INT)
        assert cache.solver(env).equal(G.TVar("a"), G.INT)

    def test_equal_tuple_built_twice_shares_solver(self):
        # A second, distinct tuple with the same equalities misses the
        # identity lookup and is found by value.
        cache = SolverCache()
        env1 = Env.initial().add_equality(G.TVar("a"), G.INT)
        env2 = Env.initial().add_equality(G.TVar("a"), G.INT)
        assert env1.equalities is not env2.equalities
        assert cache.solver(env1) is cache.solver(env2)

    def test_every_hit_is_counted(self):
        metrics = MetricsRegistry()
        cache = SolverCache(metrics=metrics)
        env = Env.initial().add_equality(G.TVar("a"), G.INT)
        twin = Env.initial().add_equality(G.TVar("a"), G.INT)
        cache.solver(env)
        cache.solver(env)   # identity hit
        cache.solver(twin)  # hash hit
        cache.solver(twin)  # identity hit
        assert metrics.counter("congruence.solvers") == 1
        assert metrics.counter("congruence.cache_hits") == 3

    def test_identity_entry_keeps_its_tuple_alive(self):
        # The entry holds the tuple, so its id cannot be handed to a new
        # tuple holding other equalities.
        cache = SolverCache()
        first = cache.solver(Env.initial().add_equality(G.TVar("a"), G.INT))
        for _ in range(50):
            env = Env.initial().add_equality(G.TVar("a"), G.BOOL)
            assert cache.solver(env) is not first
            assert cache.solver(env).equal(G.TVar("a"), G.BOOL)

    def test_miss_extends_the_nearest_cached_ancestor(self):
        # Only the equalities added since the nearest cached ancestor are
        # merged; an ancestor never asked for is skipped over.
        metrics = MetricsRegistry()
        cache = SolverCache(metrics=metrics)
        a, b, c = G.TVar("a"), G.TVar("b"), G.TVar("c")
        root = Env.initial().add_equality(a, G.INT)
        middle = root.add_equality(b, G.INT)
        leaf = middle.bind_var("x", G.INT).add_equality(c, G.INT)
        assert leaf.extends == (middle.equalities, middle.extends)
        cache.solver(root)
        solver = cache.solver(leaf)
        assert solver.equalities == leaf.equalities
        assert solver.equal(a, c)
        assert metrics.counter("congruence.solvers") == 2
        assert metrics.counter("congruence.unions") == 3
