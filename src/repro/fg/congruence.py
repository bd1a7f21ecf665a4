"""Congruence closure for F_G type equality (paper section 5).

With same-type constraints, type equality is no longer syntactic: it is "the
congruence that includes all the type equalities in Gamma".  The paper notes
this is exactly the quantifier-free theory of equality with uninterpreted
function symbols and cites the Nelson-Oppen congruence-closure algorithm
(JACM 1980).  This module implements that algorithm over F_G type terms:

- type constructors (``list``, ``fn``, tuples) and associated-type references
  ``c<taus>.s`` are treated as uninterpreted function symbols applied to
  their component types: a node is labelled by its type's class and
  ``shape`` and has the type's ``parts`` as children
  (:mod:`repro.fg.ast` states each type's structure once);
- type variables and base types are constants;
- ``forall`` types are constants keyed by their alpha-canonical type
  (:attr:`~repro.fg.ast.TForall.alpha_key`: every binder, at every depth,
  renamed by position), so alpha-variants share a node even when their
  binders nest.  Equalities never look under binders — a conservative
  choice the paper shares, since its constraints range over first-order
  type expressions.

The solver also *externalizes* canonical representatives: the translation to
System F must print one representative per equivalence class (paper 5.2:
"the translation outputs the representative for each type expression"), and
inside a generic function that representative must be the fresh type variable
minted for an associated type, never the associated-type term itself.  We
achieve this with a cost-ranked extraction: ground constructors are cheapest,
type variables next, associated-type terms effectively infinite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.diagnostics.errors import TypeError_
from repro.diagnostics.limits import ResourceLimitError
from repro.fg import ast as G

# Externalization label costs: prefer ground structure, then variables,
# and only fall back to an associated-type term when nothing else exists.
_COST_GROUND = 1
_COST_VAR = 5
_COST_ASSOC = 1_000_000
_COST_INFINITE = float("inf")


class CongruenceSolver:
    """Incremental congruence closure over F_G type terms.

    Terms are hash-consed into integer nodes; a union-find partitions nodes
    into equivalence classes; a signature table keyed by
    ``(label, class-of-child...)`` detects congruent parents when classes
    merge.  New terms may be interned after merges: signatures are computed
    against current class representatives, so congruence stays closed.

    :meth:`extend` builds a scope's solver from its parent scope's: a copy
    that merges only the new equalities.
    """

    def __init__(self, max_nodes: Optional[int] = None, *,
                 metrics=None, tracer=None):
        # ``max_nodes`` bounds the hash-consed node count: a runaway
        # equality set becomes a ResourceLimitError, not a frozen process.
        # ``metrics``/``tracer`` are optional observability hooks
        # (``repro.observability``); every use is guarded so the disabled
        # path costs one load-and-branch.
        self._max_nodes = max_nodes
        self._metrics = metrics
        self._tracer = tracer
        self._labels: List[tuple] = []
        # Node -> the type it was first interned from; extraction remakes
        # it from its children's representatives.
        self._types: List[G.FGType] = []
        self._children: List[Tuple[int, ...]] = []
        self._uf_parent: List[int] = []
        self._uf_rank: List[int] = []
        self._use: Dict[int, List[int]] = {}
        self._members: Dict[int, List[int]] = {}
        self._sigtab: Dict[tuple, int] = {}
        # Type -> node for the solver's life.  F_G types are hash-consed, so
        # a type met again, or shared inside a term, is interned once.
        self._nodes: Dict[G.FGType, int] = {}
        # The first ``_settled`` nodes are the ones merges interned; later
        # ones were interned by queries since the last merge.
        self._settled = 0
        self._equalities: List[Tuple[G.FGType, G.FGType]] = []
        # Memoized representatives, and the extraction of each class root,
        # both cleared by every merge: interning alone only adds singleton
        # classes, so no memoized class can change.
        self._reps: Dict[G.FGType, G.FGType] = {}
        self._extracted: Dict[int, tuple] = {}
        # Set once a poison node exists; until then no class can
        # hold the recovery poison.
        self._poisoned = False
        # :attr:`closed_types_represent_themselves`, computed on first read
        # and cleared by every merge.
        self._closed_reps: Optional[bool] = None

    # -- union-find ---------------------------------------------------------

    def _find(self, i: int) -> int:
        if self._metrics is not None:
            self._metrics.inc("congruence.finds")
        root = i
        while self._uf_parent[root] != root:
            root = self._uf_parent[root]
        while self._uf_parent[i] != root:
            self._uf_parent[i], i = root, self._uf_parent[i]
        return root

    def _new_node(self, t: G.FGType, label: tuple,
                  children: Tuple[int, ...]) -> int:
        i = len(self._labels)
        if self._max_nodes is not None and i >= self._max_nodes:
            raise ResourceLimitError(
                f"type-equality solver exceeded its node budget "
                f"({self._max_nodes}); the same-type constraints in scope "
                "are too large for this run's limits",
                limit="congruence",
            )
        self._labels.append(label)
        self._types.append(t)
        self._children.append(children)
        self._uf_parent.append(i)
        self._uf_rank.append(0)
        self._use[i] = []
        self._members[i] = [i]
        if t is G.ERROR:
            self._poisoned = True
        if self._metrics is not None:
            self._metrics.inc("congruence.nodes")
        return i

    # -- interning ----------------------------------------------------------

    def intern(self, t: G.FGType) -> int:
        """Intern an F_G type, returning its node id (not its class root)."""
        node = self._nodes.get(t)
        if node is None:
            label = (type(t),) + t.shape
            children = tuple([self.intern(c) for c in t.parts])
            sig = (label,) + tuple([self._find(c) for c in children])
            node = self._sigtab.get(sig)
            if node is None:
                node = self._new_node(t, label, children)
                self._sigtab[sig] = node
                for child in set(self._find(c) for c in children):
                    self._use[child].append(node)
            self._nodes[t] = node
        return node

    # -- merging ------------------------------------------------------------

    def merge(self, a: G.FGType, b: G.FGType) -> None:
        """Assert ``a == b`` and close under congruence."""
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("congruence.merge"):
                self._merge(a, b)
        else:
            self._merge(a, b)

    def _merge(self, a: G.FGType, b: G.FGType) -> None:
        metrics = self._metrics
        self._equalities.append((a, b))
        self._reps.clear()
        self._extracted.clear()
        self._closed_reps = None
        worklist = [(self.intern(a), self.intern(b))]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self._find(x), self._find(y)
            if rx == ry:
                continue
            if self._uf_rank[rx] > self._uf_rank[ry]:
                rx, ry = ry, rx
            if self._uf_rank[rx] == self._uf_rank[ry]:
                self._uf_rank[ry] += 1
            self._uf_parent[rx] = ry
            self._members[ry].extend(self._members.pop(rx))
            if metrics is not None:
                metrics.inc("congruence.unions")
                metrics.observe(
                    "congruence.class_size", len(self._members[ry])
                )
            # Re-signature every parent of the absorbed class; congruent
            # parents found in the signature table join the worklist.
            moved = self._use.pop(rx)
            for parent in moved:
                sig = (self._labels[parent],) + tuple(
                    self._find(c) for c in self._children[parent]
                )
                other = self._sigtab.get(sig)
                if other is not None and self._find(other) != self._find(parent):
                    worklist.append((parent, other))
                else:
                    self._sigtab[sig] = parent
            self._use[ry].extend(moved)
        self._settled = len(self._labels)

    def equal(self, a: G.FGType, b: G.FGType) -> bool:
        """Decide ``Gamma |- a = b`` under the merged equalities."""
        return self._find(self.intern(a)) == self._find(self.intern(b))

    def class_contains_error(self, t: G.FGType) -> bool:
        """True when ``t``'s equivalence class holds a recovery poison.

        Used by the checker so a type merged with :data:`~repro.fg.ast.ERROR`
        (e.g. a recovered type alias) absorbs comparison exactly like a
        syntactic poison would.
        """
        if not self._poisoned:
            # Only a bare poison would be one.  ``t`` stays uninterned; the
            # checker asks only after ``equal`` interned both sides.
            return isinstance(t, G.ErrorType)
        root = self._find(self.intern(t))
        return any(self._types[n] is G.ERROR for n in self._members[root])

    # -- representative extraction ------------------------------------------

    def representative(self, t: G.FGType) -> G.FGType:
        """The canonical representative of ``t``'s equivalence class.

        Deterministic: minimal externalization cost, ties broken by node
        creation order.  Raises :class:`TypeError_` if the class is only
        expressible cyclically (e.g. after merging ``t`` with ``list t``).
        """
        rep = self._reps.get(t)
        if rep is None:
            best = self._extract(self._find(self.intern(t)), _Walk())
            if best is None:
                raise TypeError_(f"cyclic type equality involving {t}")
            rep = self._reps[t] = best[1]
        return rep

    @property
    def closed_types_represent_themselves(self) -> bool:
        """True when every closed type is its own representative.

        A closed type has no type variable, ``forall``, associated type or
        poison in it.  The certificate: every class with more than one
        member holds at most one member that is not an associated-type
        term, and that member is what the class extracts to.  The class of
        a closed type's every subterm then holds the subterm's own node as
        its one such member, which extraction prefers to any associated
        term, so the closed type is rebuilt as itself.  Interning after the
        merges adds only singleton classes, so the answer holds until the
        next merge.
        """
        certified = self._closed_reps
        if certified is None:
            certified = self._closed_reps = self._certify_closed_reps()
        return certified

    def _certify_closed_reps(self) -> bool:
        labels = self._labels
        for root, members in self._members.items():
            if len(members) == 1:
                continue
            plain = [n for n in members if labels[n][0] is not G.TAssoc]
            if len(plain) > 1:
                return False
            if plain:
                # A member costs less than any associated term unless its
                # extraction is cyclic or as large as one.
                best = self._extract(root, _Walk())
                if best is None or best[0] >= _COST_ASSOC:
                    return False
        return True

    def _extract(self, root: int, walk: "_Walk"):
        """Best (cost, type) for a class root, or ``None`` on a cycle.

        A result is memoized for the class only when its computation cut no
        cycle: only then is it the same whichever classes were in progress
        around it.  A ``None`` always comes from a cut.
        """
        best = self._extracted.get(root)
        if best is not None:
            return best
        if root in walk.active:
            walk.cuts += 1
            return None
        walk.active.add(root)
        cuts = walk.cuts
        for node in sorted(self._members[root]):
            entry = self._extract_node(node, walk)
            if entry is None:
                continue
            if best is None or entry[0] < best[0]:
                best = entry
        walk.active.discard(root)
        if walk.cuts == cuts:
            self._extracted[root] = best
        return best

    def _extract_node(self, node: int, walk: "_Walk"):
        child_results = []
        cost = _label_cost(self._labels[node][0])
        for child in self._children[node]:
            sub = self._extract(self._find(child), walk)
            if sub is None:
                return None
            cost += sub[0]
            child_results.append(sub[1])
        if cost >= _COST_INFINITE:
            return None
        return (cost, self._types[node].remake(tuple(child_results)))

    @property
    def equalities(self) -> Tuple[Tuple[G.FGType, G.FGType], ...]:
        """The equalities asserted so far, in order."""
        return tuple(self._equalities)

    # -- extension ------------------------------------------------------------

    def extend(self, equalities) -> "CongruenceSolver":
        """A new solver holding this one's equalities, then ``equalities``.

        The new solver starts as a copy of this one without the nodes that
        queries interned after the last merge, so its nodes, and the node
        ages that break representative ties, are those of a fresh replay
        of every equality whenever this solver was queried only after its
        merges, as :class:`~repro.fg.env.SolverCache` uses it.
        """
        equalities = tuple(equalities)
        child = self._copy()
        if self._metrics is not None:
            self._metrics.inc("congruence.solvers")
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("congruence.build", equalities=len(equalities)):
                for left, right in equalities:
                    child.merge(left, right)
        else:
            for left, right in equalities:
                child.merge(left, right)
        return child

    def _copy(self) -> "CongruenceSolver":
        n = self._settled
        child = CongruenceSolver(
            self._max_nodes, metrics=self._metrics, tracer=self._tracer
        )
        child._labels = self._labels[:n]
        child._types = self._types[:n]
        child._children = self._children[:n]
        child._uf_parent = self._uf_parent[:n]
        child._uf_rank = self._uf_rank[:n]
        # Query-interned nodes are singleton classes that no merge touched:
        # dropping them leaves classes, signatures and members intact.
        child._members = {
            i: members[:] for i, members in self._members.items() if i < n
        }
        child._use = {
            i: [u for u in users if u < n]
            for i, users in self._use.items() if i < n
        }
        child._sigtab = {k: i for k, i in self._sigtab.items() if i < n}
        child._nodes = {t: i for t, i in self._nodes.items() if i < n}
        child._settled = n
        child._equalities = self._equalities[:]
        child._poisoned = G.ERROR in child._nodes
        return child


class _Walk:
    """One representative extraction: the class roots in progress and how
    many cycles it has cut."""

    __slots__ = ("active", "cuts")

    def __init__(self):
        self.active = set()
        self.cuts = 0


def _label_cost(kind: type) -> float:
    if kind is G.TAssoc:
        return _COST_ASSOC
    if kind is G.TVar:
        return _COST_VAR
    return _COST_GROUND


def solver_for_equalities(
    equalities, max_nodes: Optional[int] = None, *,
    metrics=None, tracer=None,
) -> CongruenceSolver:
    """Build a solver containing every equality in ``equalities``."""
    return CongruenceSolver(
        max_nodes, metrics=metrics, tracer=tracer
    ).extend(equalities)
