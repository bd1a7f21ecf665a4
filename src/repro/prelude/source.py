"""The F_G prelude: a standard library of concepts, models, and algorithms.

Because concepts and models in F_G are *expressions* with lexical scope
(the paper's headline design point), a "library" is a prefix whose body is
the user's program.  :data:`PRELUDE` ends where the user program begins.
:mod:`repro.prelude.context` checks it once and checks programs at that
position; :func:`repro.prelude.wrap` joins the two as text.

Contents mirror the paper's examples and the generic-programming canon the
paper draws on (the STL/BGL lineage): algebraic concepts (Semigroup /
Monoid / Group), comparison concepts, Figure 1's ``Number`` with ``square``,
the section 5 ``Iterator`` / ``OutputIterator`` family, and generic
algorithms (``accumulate``, ``count``, ``copy``, ``find``, ``min_element``,
``merge``) written against those concepts.
"""

PRELUDE_CONCEPTS = r"""
// --- Algebraic concepts (paper section 3) -------------------------------
concept Semigroup<t> {
  binary_op : fn(t, t) -> t;
} in
concept Monoid<t> {
  refines Semigroup<t>;
  identity_elt : t;
} in
concept Group<t> {
  refines Monoid<t>;
  inverse : fn(t) -> t;
} in
// --- Comparison concepts --------------------------------------------------
concept EqualityComparable<t> {
  equal : fn(t, t) -> bool;
} in
concept LessThanComparable<t> {
  less : fn(t, t) -> bool;
} in
// --- Figure 1's Number concept ------------------------------------------
concept Number<u> {
  mult : fn(u, u) -> u;
} in
// --- Iterator family (paper section 5) -----------------------------------
concept Iterator<Iter> {
  types elt;
  next : fn(Iter) -> Iter;
  curr : fn(Iter) -> elt;
  at_end : fn(Iter) -> bool;
} in
concept OutputIterator<Out, t> {
  put : fn(Out, t) -> Out;
} in
"""

PRELUDE_ALGORITHMS = r"""
// --- Generic algorithms ----------------------------------------------------
// Figure 1: square, for any Number.
let square = /\t where Number<t>. \x : t. Number<t>.mult(x, x) in
// Figure 5: accumulate over a list, for any Monoid.
let accumulate = /\t where Monoid<t>.
  fix (\accum : fn(list t) -> t.
    \ls : list t.
      if null[t](ls) then Monoid<t>.identity_elt
      else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))) in
// Section 5: accumulate over any iterator whose element type is a Monoid.
let accumulate_iter = /\Iter where Iterator<Iter>, Monoid<Iterator<Iter>.elt>.
  fix (\accum : fn(Iter) -> Iterator<Iter>.elt.
    \it : Iter.
      if Iterator<Iter>.at_end(it) then Monoid<Iterator<Iter>.elt>.identity_elt
      else Monoid<Iterator<Iter>.elt>.binary_op(
             Iterator<Iter>.curr(it),
             accum(Iterator<Iter>.next(it)))) in
// Count the elements an iterator ranges over.
let count = /\Iter where Iterator<Iter>.
  fix (\c : fn(Iter) -> int.
    \it : Iter.
      if Iterator<Iter>.at_end(it) then 0
      else iadd(1, c(Iterator<Iter>.next(it)))) in
// Section 5.2: copy from an iterator into an output iterator.
let copy = /\Iter, Out where Iterator<Iter>, OutputIterator<Out, Iterator<Iter>.elt>.
  fix (\cp : fn(Iter, Out) -> Out.
    \it : Iter, out : Out.
      if Iterator<Iter>.at_end(it) then out
      else cp(Iterator<Iter>.next(it),
              OutputIterator<Out, Iterator<Iter>.elt>.put(out, Iterator<Iter>.curr(it)))) in
// Linear search: true iff some element equals the probe.
let contains = /\Iter where Iterator<Iter>, EqualityComparable<Iterator<Iter>.elt>.
  fix (\f : fn(Iter, Iterator<Iter>.elt) -> bool.
    \it : Iter, probe : Iterator<Iter>.elt.
      if Iterator<Iter>.at_end(it) then false
      else if EqualityComparable<Iterator<Iter>.elt>.equal(Iterator<Iter>.curr(it), probe)
      then true
      else f(Iterator<Iter>.next(it), probe)) in
// Smallest element of a non-empty range.
let min_element = /\Iter where Iterator<Iter>, LessThanComparable<Iterator<Iter>.elt>.
  fix (\m : fn(Iter) -> Iterator<Iter>.elt.
    \it : Iter.
      let first = Iterator<Iter>.curr(it) in
      let rest = Iterator<Iter>.next(it) in
      if Iterator<Iter>.at_end(rest) then first
      else let rest_min = m(rest) in
           if LessThanComparable<Iterator<Iter>.elt>.less(first, rest_min)
           then first else rest_min) in
// Section 5: merge two sorted ranges into an output iterator.
let merge = /\Iter1, Iter2, Out
    where Iterator<Iter1>, Iterator<Iter2>,
          OutputIterator<Out, Iterator<Iter1>.elt>,
          LessThanComparable<Iterator<Iter1>.elt>;
          Iterator<Iter1>.elt == Iterator<Iter2>.elt.
  fix (\m : fn(Iter1, Iter2, Out) -> Out.
    \i1 : Iter1, i2 : Iter2, out : Out.
      if Iterator<Iter1>.at_end(i1) then
        copy[Iter2, Out](i2, out)
      else if Iterator<Iter2>.at_end(i2) then
        copy[Iter1, Out](i1, out)
      else if LessThanComparable<Iterator<Iter1>.elt>.less(
                Iterator<Iter1>.curr(i1), Iterator<Iter2>.curr(i2))
      then m(Iterator<Iter1>.next(i1), i2,
             OutputIterator<Out, Iterator<Iter1>.elt>.put(out, Iterator<Iter1>.curr(i1)))
      else m(i1, Iterator<Iter2>.next(i2),
             OutputIterator<Out, Iterator<Iter1>.elt>.put(out, Iterator<Iter2>.curr(i2)))) in
"""

PRELUDE_HELPERS = r"""
// --- Plain (concept-free) list helpers -----------------------------------
let reverse_int = fix (\r : fn(list int, list int) -> list int.
  \ls : list int, acc : list int.
    if null[int](ls) then acc
    else r(cdr[int](ls), cons[int](car[int](ls), acc))) in
let range = fix (\r : fn(int, int) -> list int.
  \lo : int, hi : int.
    if ige(lo, hi) then nil[int]
    else cons[int](lo, r(iadd(lo, 1), hi))) in
let length_int = fix (\len : fn(list int) -> int.
  \ls : list int.
    if null[int](ls) then 0 else iadd(1, len(cdr[int](ls)))) in
"""

PRELUDE_MODELS = r"""
// --- Default models -------------------------------------------------------
// Integers under addition (the paper's first Monoid example).
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
model Group<int> { inverse = ineg; } in
model EqualityComparable<int> { equal = ieq; } in
model LessThanComparable<int> { less = ilt; } in
model EqualityComparable<bool> { equal = beq; } in
model Number<int> { mult = imult; } in
// Integer lists are iterators over ints (paper section 5)...
model Iterator<list int> {
  types elt = int;
  next = \ls : list int. cdr[int](ls);
  curr = \ls : list int. car[int](ls);
  at_end = \ls : list int. null[int](ls);
} in
// ... and output iterators built by consing (results come out reversed;
// pair with reverse_int when order matters).
model OutputIterator<list int, int> {
  put = \out : list int, x : int. cons[int](x, out);
} in
"""

#: The complete prelude, ready to be prefixed onto a program.
PRELUDE = (
    PRELUDE_CONCEPTS + PRELUDE_ALGORITHMS + PRELUDE_HELPERS + PRELUDE_MODELS
)
