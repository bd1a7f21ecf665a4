"""The syntax-tree node contract (:class:`repro.systemf.ast.Node`).

F_G, System F and extension nodes are plain slotted classes.  They must
behave as the frozen dataclasses they replaced:

- the same constructor: parameter names, order and defaults, a term's
  ``span`` first (``SIGNATURES`` pins them);
- the same ``==``, ``hash`` and ``repr`` as a frozen dataclass with the same
  fields (``span`` neither compared nor shown), checked against a reference
  built with :func:`dataclasses.make_dataclass` over every node of the
  examples, the extension tour and the fgbench corpora at seeds 1-3, parse
  trees, translations and System F types alike;
- never changed once built: with every node class's ``__setattr__`` and
  ``__delattr__`` sealed after ``__init__``, no check, verify or evaluate
  of those programs and of 100 mutants sets an attribute.  The one
  exception is the memo slot of a System F ``forall`` type, which is not a
  field.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.extensions.ast as X
from repro.fg import ast as G
from repro.pipeline import check_source
from repro.systemf import ast as F
from repro.systemf.builtins import BUILTIN_TYPES
from repro.testing import mutate_source

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "fgbench"))
sys.path.insert(0, str(ROOT / "examples"))

import extensions_tour  # noqa: E402
import workloads  # noqa: E402

MODULES = {"systemf": F, "fg": G, "extensions": X}
TERMS = (F.Term, G.Term)

#: Each node class's constructor as the frozen dataclasses had it.
SIGNATURES = {
    "systemf.Type": "",
    "systemf.TVar": "name",
    "systemf.TBase": "name",
    "systemf.TList": "elem",
    "systemf.TFn": "params, result",
    "systemf.TTuple": "items",
    "systemf.TForall": "vars, body",
    "systemf.Term": "span=None",
    "systemf.Var": "span=None, name=''",
    "systemf.IntLit": "span=None, value=0",
    "systemf.BoolLit": "span=None, value=False",
    "systemf.Lam": "span=None, params=(), body=None",
    "systemf.App": "span=None, fn=None, args=()",
    "systemf.TyLam": "span=None, vars=(), body=None",
    "systemf.TyApp": "span=None, fn=None, args=()",
    "systemf.Let": "span=None, name='', bound=None, body=None",
    "systemf.Tuple_": "span=None, items=()",
    "systemf.Nth": "span=None, tuple_=None, index=0",
    "systemf.If": "span=None, cond=None, then=None, else_=None",
    "systemf.Fix": "span=None, fn=None",
    "fg.SameType": "left, right",
    "fg.ConceptDef": (
        "name, params, assoc_types=(), refines=(), members=(), "
        "same_types=(), nested=(), defaults=()"
    ),
    "fg.ModelDef": "concept, args, type_assignments=(), member_defs=()",
    "fg.Term": "span=None",
    "fg.Var": "span=None, name=''",
    "fg.IntLit": "span=None, value=0",
    "fg.BoolLit": "span=None, value=False",
    "fg.Lam": "span=None, params=(), body=None",
    "fg.App": "span=None, fn=None, args=()",
    "fg.TyLam": (
        "span=None, vars=(), requirements=(), same_types=(), body=None"
    ),
    "fg.TyApp": "span=None, fn=None, args=()",
    "fg.Let": "span=None, name='', bound=None, body=None",
    "fg.Tuple_": "span=None, items=()",
    "fg.Nth": "span=None, tuple_=None, index=0",
    "fg.If": "span=None, cond=None, then=None, else_=None",
    "fg.Fix": "span=None, fn=None",
    "fg.ConceptExpr": "span=None, concept=None, body=None",
    "fg.ModelExpr": "span=None, model=None, body=None",
    "fg.MemberAccess": "span=None, concept='', args=(), member=''",
    "fg.TypeAlias": "span=None, name='', aliased=None, body=None",
    "extensions.NamedModelExpr": "span=None, name='', model=None, body=None",
    "extensions.UseModelsExpr": "span=None, names=(), body=None",
    "extensions.OverloadExpr": (
        "span=None, name='', alternatives=(), body=None"
    ),
    "extensions.ParamModelExpr": (
        "span=None, vars=(), requirements=(), same_types=(), model=None, "
        "body=None"
    ),
}


def _node_classes():
    out = {}
    for label, module in MODULES.items():
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, F.Node)
                    and value.__module__ == module.__name__
                    and value is not F.Node):
                out[f"{label}.{name}"] = value
    return out


NODE_CLASSES = _node_classes()
#: The classes a program's nodes are built from (the bases are abstract).
CONCRETE = {name: cls for name, cls in NODE_CLASSES.items()
            if cls not in (F.Type, F.Term, G.Term)}


def _signature(cls) -> str:
    return ", ".join(
        p.name if p.default is inspect.Parameter.empty
        else f"{p.name}={p.default!r}"
        for p in inspect.signature(cls).parameters.values()
    )


def _init_names(cls):
    """The constructor's parameters: a term's span, then the fields."""
    return (("span",) if issubclass(cls, TERMS) else ()) + cls._fields


# -- the reference: the frozen dataclass each class was -----------------------


def _reference_class(cls):
    params = inspect.signature(cls).parameters
    specs = []
    for name in _init_names(cls):
        default = params[name].default
        if name == "span":
            specs.append((name, object, dataclasses.field(
                default=None, compare=False, repr=False)))
        elif default is inspect.Parameter.empty:
            specs.append((name, object))
        else:
            specs.append((name, object, dataclasses.field(default=default)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


REFERENCE = {cls: _reference_class(cls) for cls in NODE_CLASSES.values()}


def reference(value, memo):
    """``value`` with every node rebuilt as its reference dataclass."""
    if isinstance(value, tuple):
        return tuple(reference(item, memo) for item in value)
    if not isinstance(value, F.Node):
        return value  # F_G types (hash-consed), names, numbers, spans
    ref = memo.get(id(value))
    if ref is None:
        cls = type(value)
        ref = memo[id(value)] = REFERENCE[cls](**{
            name: reference(getattr(value, name), memo)
            for name in _init_names(cls)
        })
    return ref


# -- the corpus ----------------------------------------------------------------


def _texts():
    texts = [path.read_text()
             for path in sorted((ROOT / "examples" / "fg").glob("*.fg"))]
    texts += [extensions_tour.NAMED_MODELS, extensions_tour.PARAM_MODELS,
              extensions_tour.DEFAULTS, extensions_tour.SPECIALIZATION,
              extensions_tour.NESTED_REQUIREMENTS]
    for workload in ("prelude-lib", "generic-stress", "broken-edits",
                     "serve-edits"):
        for seed in (1, 2, 3):
            texts += [case.text for case in workloads.make(workload, seed)]
    return list(dict.fromkeys(texts))


TEXTS = _texts()


def _mutants(count=100, seed=37):
    rng = random.Random(seed)
    return [mutate_source(TEXTS[rng.randrange(len(TEXTS))], rng)
            for _ in range(count)]


def _walk(value, out):
    """Every node in ``value``, preorder, F_G types' same-type
    constraints included."""
    if isinstance(value, tuple):
        for item in value:
            _walk(item, out)
    elif isinstance(value, F.Node):
        out.append(value)
        for name in value._fields:
            _walk(getattr(value, name), out)
    elif isinstance(value, G.TForall):
        _walk((value.requirements, value.same_types, value.body), out)
    elif isinstance(value, G.FGType):
        _walk(value.parts, out)
    return out


def _roots(text, filename, ext):
    """The trees one verified run builds: the parse, the translation and
    the System F type of the translation."""
    out = check_source(text, filename, ext=ext, verify=True)
    return [root for root in (out.term, out.translation, out.sf_type)
            if root is not None]


@pytest.fixture(scope="module")
def trees():
    """Pairs of one program's trees, built twice under two file names (so
    equal nodes with different spans)."""
    pairs = []
    for text in TEXTS:
        for ext in (False, True):
            pairs += zip(_roots(text, "a.fg", ext), _roots(text, "b.fg", ext))
    # The builtins' types are the corpus's System F ``forall`` types.
    pairs += [(t, copy.deepcopy(t)) for t in BUILTIN_TYPES.values()]
    return pairs


# -- the constructor ------------------------------------------------------------


def test_every_node_class_is_pinned():
    assert set(NODE_CLASSES) == set(SIGNATURES)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_the_constructor_is_the_dataclass_one(name):
    cls = NODE_CLASSES[name]
    assert _signature(cls) == SIGNATURES[name]
    assert _init_names(cls) == tuple(inspect.signature(cls).parameters)
    assert "__dict__" not in dir(cls), "a node class without __slots__"


# -- equality, hash and repr against the reference ------------------------------


def test_the_corpus_builds_every_node_class(trees):
    built = {type(node) for pair in trees for node in _walk(pair[0], [])}
    assert set(CONCRETE.values()) <= built


def test_construction_matches_the_reference(trees):
    memo = {}
    for root, _ in trees:
        for node in _walk(root, []):
            cls = type(node)
            args = [getattr(node, name) for name in _init_names(cls)]
            ref = reference(node, memo)
            for rebuilt in (cls(*args),
                            cls(**dict(zip(_init_names(cls), args)))):
                assert type(rebuilt) is cls
                for name, value in zip(_init_names(cls), args):
                    assert getattr(rebuilt, name) is value
                assert rebuilt == node and hash(rebuilt) == hash(node)
            if cls in (F.TForall,):
                assert cls(*args)._instances is None
            assert [getattr(ref, name) for name in _init_names(cls)] == [
                reference(value, memo) for value in args]


def test_equality_hash_and_repr_match_the_reference(trees):
    memo = {}
    previous = None
    for root, twin in trees:
        ref_root, ref_twin = reference(root, memo), reference(twin, memo)
        # ``repr`` nests, so the roots' text covers every node's.
        assert repr(root) == repr(ref_root)
        nodes, twins = _walk(root, []), _walk(twin, [])
        assert len(nodes) == len(twins)
        for node, other in zip(nodes, twins):
            ref, ref_other = reference(node, memo), reference(other, memo)
            assert hash(node) == hash(ref)
            # Equal fields, different spans (the file names differ).
            assert node.__eq__(other) == ref.__eq__(ref_other)
            assert (node == other) is (ref == ref_other) is True
            if previous is not None:
                ref_previous = reference(previous, memo)
                assert node.__eq__(previous) == ref.__eq__(ref_previous)
                assert (node == previous) == (ref == ref_previous)
                assert (node != previous) == (ref != ref_previous)
            previous = node


def _span(node):
    span = getattr(node, "span", None)
    return None if span is None else (span.lo, span.hi, span.filename)


def test_pickles_and_copies_rebuild_the_node(trees):
    for root, _ in trees[:40]:
        copies = [copy.copy(root), copy.deepcopy(root)] + [
            pickle.loads(pickle.dumps(root, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in copies:
            assert clone == root and repr(clone) == repr(root)
            assert _span(clone) == _span(root)


def test_the_memo_slot_is_not_a_field():
    forall = F.TForall(("a",), F.TVar("a"))
    twin = F.TForall(("a",), F.TVar("a"))
    forall._instances = {(F.INT,): F.INT}
    assert forall == twin and hash(forall) == hash(twin)
    assert repr(forall) == repr(twin) == (
        "TForall(vars=('a',), body=TVar(name='a'))")


def test_a_node_equals_no_other_class():
    assert F.Var(None, "x") != G.Var(None, "x")
    assert F.Var(None, "x").__eq__(G.Var(None, "x")) is NotImplemented
    assert F.TVar("x") != F.TBase("x")
    assert F.Var(None, "x") != "x"


# -- immutability ----------------------------------------------------------------


#: Where a sealed node reported being set after construction.
_VIOLATIONS = []


@contextmanager
def sealed():
    """Every node class's instances refuse ``__setattr__`` and
    ``__delattr__`` once their ``__init__`` has returned (the memo slot of
    a System F ``forall`` excepted)."""
    built = set()

    def guard(node, name):
        if id(node) in built and not (
                type(node) is F.TForall and name == "_instances"):
            _VIOLATIONS.append(f"{type(node).__name__}.{name}")
            raise AttributeError(
                f"{type(node).__name__}.{name} set after construction")

    def setattr_(node, name, value):
        guard(node, name)
        object.__setattr__(node, name, value)

    def delattr_(node, name):
        guard(node, name)
        object.__delattr__(node, name)

    def seal(init):
        def __init__(node, *args, **kwargs):
            built.discard(id(node))  # an id the collector freed
            init(node, *args, **kwargs)
            built.add(id(node))
        return __init__

    saved = {cls: cls.__dict__["__init__"] for cls in NODE_CLASSES.values()
             if "__init__" in cls.__dict__}
    for cls, init in saved.items():
        cls.__init__ = seal(init)
    F.Node.__setattr__, F.Node.__delattr__ = setattr_, delattr_
    try:
        yield
    finally:
        for cls, init in saved.items():
            cls.__init__ = init
        del F.Node.__setattr__, F.Node.__delattr__


def test_the_seal_catches_a_write():
    with sealed():
        node = G.Var(None, "x")
        with pytest.raises(AttributeError):
            node.name = "y"
        with pytest.raises(AttributeError):
            del node.span
        forall = F.TForall(("a",), F.TVar("a"))
        forall._instances = {}
    assert _VIOLATIONS == ["Var.name", "Var.span"]
    _VIOLATIONS.clear()


@pytest.mark.parametrize("ext", [False, True], ids=["core", "ext"])
@pytest.mark.parametrize("prelude", [False, True], ids=["bare", "prelude"])
def test_no_check_changes_a_built_node(ext, prelude):
    _VIOLATIONS.clear()
    with sealed():
        for text in TEXTS + _mutants():
            check_source(text, "<sealed>", prelude=prelude, ext=ext,
                         verify=True, evaluate=True)
    assert _VIOLATIONS == []
