"""Finite letter-indexed algebras; deterministic bottom-up tree automata.

A DBTA is an algebra plus an accepting subset of the carrier.  Carrier elements
are anonymous integers 0..size-1; an optional name tuple is carried for display
only.  Operation tables are stored densely in lexicographic argument order, so
the entry for (e1,...,en) sits at index e1*m^(n-1) + ... + en.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from .errors import AlphabetMismatchError, CapExceededError
from .trees import Letter, RankedAlphabet, Term, TermBody, Tree, Var

# Default bound on the carriers and state sets that constructions build.
DEFAULT_CARRIER_CAP = 4096


@dataclass(frozen=True)
class FiniteAlgebra:
    alphabet: RankedAlphabet
    size: int
    tables: Mapping[str, tuple[int, ...]]
    element_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("carrier must be nonempty")
        for letter in self.alphabet.letters:
            table = self.tables.get(letter.name)
            if table is None:
                raise ValueError(f"missing table for {letter.name}")
            if len(table) != self.size**letter.arity:
                raise ValueError(f"table for {letter.name} has wrong length")
            if any(not 0 <= e < self.size for e in table):
                raise ValueError(f"table for {letter.name} has out-of-range entries")
        if len(self.tables) != len(self.alphabet.letters):
            raise ValueError("tables for unknown letters")
        if self.element_names is not None and len(self.element_names) != self.size:
            raise ValueError("element_names has wrong length")

    def op(self, name: str, args: tuple[int, ...] | list[int]) -> int:
        index = 0
        for arg in args:
            index = index * self.size + arg
        return self.tables[name][index]

    def name_of(self, element: int) -> str:
        if self.element_names is not None:
            return self.element_names[element]
        return str(element)

    def arg_tuples(self, arity: int) -> Iterator[tuple[int, ...]]:
        """All argument tuples in table order."""
        return itertools.product(range(self.size), repeat=arity)

    def canonical_key(self) -> tuple:
        """Serialization that identifies the algebra up to nothing (exact form)."""
        return (self.size, tuple(sorted((name, table) for name, table in self.tables.items())))


@dataclass(frozen=True)
class Dbta:
    algebra: FiniteAlgebra
    accepting: frozenset[int]

    def __post_init__(self):
        if any(not 0 <= e < self.algebra.size for e in self.accepting):
            raise ValueError("accepting set outside the carrier")

    @property
    def alphabet(self) -> RankedAlphabet:
        return self.algebra.alphabet


def _require_same_alphabet(a: RankedAlphabet, b: RankedAlphabet) -> None:
    if a != b:
        raise AlphabetMismatchError("operation requires equal alphabets")


def evaluate(algebra: FiniteAlgebra, tree: Tree) -> int:
    """Bottom-up fold of the tree by the letter tables."""
    if tree.label not in algebra.alphabet:
        raise AlphabetMismatchError(f"letter {tree.label.name} not in the algebra's alphabet")
    return algebra.op(tree.label.name, [evaluate(algebra, child) for child in tree.children])


def accepts(dbta: Dbta, tree: Tree) -> bool:
    return evaluate(dbta.algebra, tree) in dbta.accepting


def complement(dbta: Dbta) -> Dbta:
    full = frozenset(range(dbta.algebra.size))
    return Dbta(dbta.algebra, full - dbta.accepting)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product; (x, y) is encoded as x * b.size + y.

    A row's arguments ((x1, y1), ..., (xk, yk)) index a's table at (x1..xk)
    and b's at (y1..yk).  Both indices are built one argument position at a
    time, and the last position pairs a slice of a's table with a slice of
    b's, so no argument is decoded and no op() call is made per row.
    """
    _require_same_alphabet(a.alphabet, b.alphabet)
    n1, n2 = a.size, b.size
    x_digits = [x for x in range(n1) for _ in range(n2)]
    y_digits = list(range(n2)) * n1
    tables: dict[str, tuple[int, ...]] = {}
    for letter in a.alphabet.letters:
        scaled = [value * n2 for value in a.tables[letter.name]]
        other = b.tables[letter.name]
        if letter.arity == 0:
            tables[letter.name] = (scaled[0] + other[0],)
            continue
        xs, ys = [0], [0]  # table indices of the argument prefixes, row-aligned
        for _ in range(letter.arity - 1):
            xs = [i * n1 + x for i in xs for x in x_digits]
            ys = [j * n2 + y for j in ys for y in y_digits]
        tables[letter.name] = tuple(
            u + v
            for i, j in zip(xs, ys)
            for u in scaled[i * n1 : i * n1 + n1]
            for v in other[j * n2 : j * n2 + n2]
        )
    return FiniteAlgebra(a.alphabet, n1 * n2, tables)


# Boolean combinations as predicates on (in first language, in second language).
_KINDS: dict[str, Callable[[bool, bool], bool]] = {
    "union": operator.or_,
    "intersection": operator.and_,
    "difference": lambda p, q: p and not q,
}


def boolean_combine(kind: str, d1: Dbta, d2: Dbta) -> Dbta:
    """Product automaton for union / intersection / difference."""
    accept = _KINDS.get(kind)
    if accept is None:
        raise ValueError(f"unknown kind {kind!r}")
    algebra = product_algebra(d1.algebra, d2.algebra)
    m2 = d2.algebra.size
    accepting = frozenset(
        x * m2 + y
        for x in range(d1.algebra.size)
        for y in range(m2)
        if accept(x in d1.accepting, y in d2.accepting)
    )
    return Dbta(algebra, accepting)


def reachable_elements(algebra: FiniteAlgebra) -> frozenset[int]:
    """Elements that are values of some tree (least fixpoint)."""
    return frozenset(build(algebra.alphabet, algebra.op, algebra.size, "reachable carrier")[0])


def build(
    alphabet: RankedAlphabet,
    step: Callable[[str, tuple], Hashable],
    cap: int,
    what: str,
    name: Callable[[Hashable], str] | None = None,
) -> tuple[tuple, FiniteAlgebra]:
    """The values that trees reach under ``step``, and the algebra they form.

    ``step(letter, args)`` is the value of a letter applied to argument values.
    Values are reached from the constants by a semi-naive worklist: each
    argument tuple over the reached values is stepped exactly once, when the
    last-found of its values is taken from the worklist, and its result is
    kept for the tables.  Elements are numbered in the sorted order of their
    values (so values must be mutually comparable); the returned tuple lists
    the values in that order.  ``name`` gives element names for display.
    Reaching more than ``cap`` values raises CapExceededError("<what> exceeds
    <cap>").  Over an alphabet without constants no tree exists: the result
    is no values and a one-element dead algebra.
    """
    results: dict[str, dict[tuple, Hashable]] = {letter.name: {} for letter in alphabet.letters}
    found: list[Hashable] = []  # reached values, in the order they are found
    known: set[Hashable] = set()
    operators = [letter for letter in alphabet.letters if letter.arity]
    batch = [(letter, [()]) for letter in alphabet.constants]
    at = 0
    while True:
        for letter, tuples in batch:
            rows = results[letter.name]
            for args in tuples:
                value = rows[args] = step(letter.name, args)
                if value not in known:
                    if len(found) >= cap:
                        raise CapExceededError(f"{what} exceeds {cap}")
                    known.add(value)
                    found.append(value)
        if at == len(found):
            break
        new, earlier = found[at], tuple(found[:at])
        at += 1
        settled = earlier + (new,)
        batch = [
            (letter, _tuples_with(new, earlier, settled, letter.arity)) for letter in operators
        ]
    if not found:
        tables = {letter.name: (0,) for letter in alphabet.letters}
        return (), FiniteAlgebra(alphabet, 1, tables)
    values = tuple(sorted(found))
    index = {value: i for i, value in enumerate(values)}
    tables = {
        letter.name: tuple(
            index[results[letter.name][args]]
            for args in itertools.product(values, repeat=letter.arity)
        )
        for letter in alphabet.letters
    }
    names = None if name is None else tuple(map(name, values))
    return values, FiniteAlgebra(alphabet, len(values), tables, names)


def _settle(
    alphabet: RankedAlphabet,
    step: Callable[[str, tuple], Hashable],
    goal: Callable[[Hashable], bool],
) -> tuple[Tree | None, dict[Hashable, Tree]]:
    """Knuth's generalization of Dijkstra over the values that trees reach.

    ``step(name, args)`` is the value of a letter applied to argument values.
    Values are settled in increasing (node count, rendering) order of their
    least tree, using a heap; an argument tuple is stepped once, when the last
    of its arguments settles (semi-naive).  Returns the tree of the first
    settled value that meets ``goal`` (None when no reached value does), and
    the tree of every value settled up to that point.

    A least tree is built from least trees of its argument values, because
    renderings compose: a smaller child rendering gives a smaller parent one.
    That fails only when one letter name begins with another name followed by
    ``'`` (as ``a`` and ``a'``): ``f(a',b)`` renders below ``f(a,b)`` though
    ``a`` renders below ``a'``.  With such names a returned tree still has
    least node count, but may not have the least rendering.
    """
    heap: list[tuple[int, str, Hashable]] = []
    # value -> (size, rendering, letter, args) of its best candidate so far
    pending: dict[Hashable, tuple[int, str, Letter, tuple]] = {}
    sizes: dict[Hashable, int] = {}  # settled value -> node count of its least tree
    renderings: dict[Hashable, str] = {}
    trees: dict[Hashable, Tree] = {}
    order: list[Hashable] = []  # settled values, in settle order
    operators = [letter for letter in alphabet.letters if letter.arity]
    batch = [(letter, [()]) for letter in alphabet.constants]
    while True:
        for letter, tuples in batch:
            name = letter.name
            for args in tuples:
                value = step(name, args)
                if value in sizes:
                    continue
                size = 1 + sum(map(sizes.__getitem__, args))
                best = pending.get(value)
                if best is not None and best[0] < size:
                    continue
                rendering = name
                if args:
                    rendering += f"({','.join(map(renderings.__getitem__, args))})"
                if best is None or (size, rendering) < best[:2]:
                    pending[value] = (size, rendering, letter, args)
                    # Equal (size, rendering) means the same tree, hence the
                    # same value, never pushed twice: values are never compared.
                    heapq.heappush(heap, (size, rendering, value))
        while heap:
            size, rendering, new = heapq.heappop(heap)
            if new not in sizes:  # else a stale, worse candidate
                break
        else:
            return None, trees
        _, _, letter, args = pending.pop(new)
        sizes[new], renderings[new] = size, rendering
        trees[new] = Tree(letter, tuple(map(trees.__getitem__, args)))
        if goal(new):
            return trees[new], trees
        earlier = tuple(order)
        order.append(new)
        batch = [(letter, _tuples_with(new, earlier, order, letter.arity)) for letter in operators]


def _tuples_with(new, earlier: tuple, settled: Sequence, arity: int) -> Iterator[tuple]:
    """Each arity-tuple over ``settled`` that contains ``new``, once: grouped by
    the position i of its first ``new``, with ``earlier`` (``settled`` without
    ``new``) before i and all of ``settled`` after it."""
    return itertools.chain.from_iterable(
        itertools.product(*[earlier] * i, (new,), *[settled] * (arity - 1 - i))
        for i in range(arity)
    )


def smallest_trees(algebra: FiniteAlgebra) -> dict[int, Tree]:
    """The (node count, rendering)-least tree of every reachable element.

    Only reachable elements are explored.  See ``_settle`` for the one naming
    corner where the rendering is not least.
    """
    return _settle(algebra.alphabet, algebra.op, lambda element: False)[1]


def is_empty(dbta: Dbta) -> Tree | None:
    """None iff the language is empty; otherwise its least accepted tree.

    Least means fewest nodes, ties broken on the canonical rendering, so the
    result is deterministic.  Elements are explored in that order, only as
    far as they are reached, and the search stops at the first accepting one.
    See ``_settle`` for the one naming corner where the rendering is not least.
    """
    return _settle(dbta.alphabet, dbta.algebra.op, dbta.accepting.__contains__)[0]


def product_witness(d1: Dbta, d2: Dbta, accept: Callable[[bool, bool], bool]) -> Tree | None:
    """The least tree t with accept(t in L(d1), t in L(d2)), or None.

    Least means fewest nodes, then least rendering (see ``_settle``).  Pairs
    (x, y) are stepped through both tables directly and explored only as far
    as they are reached; no product table is built.
    """
    _require_same_alphabet(d1.alphabet, d2.alphabet)
    tables1, tables2 = d1.algebra.tables, d2.algebra.tables
    n1, n2 = d1.algebra.size, d2.algebra.size
    acc1, acc2 = d1.accepting, d2.accepting

    def step(name: str, args: tuple) -> tuple[int, int]:
        i = j = 0
        for x, y in args:
            i = i * n1 + x
            j = j * n2 + y
        return (tables1[name][i], tables2[name][j])

    return _settle(d1.alphabet, step, lambda pair: accept(pair[0] in acc1, pair[1] in acc2))[0]


def are_equivalent(d1: Dbta, d2: Dbta) -> tuple[bool, Tree | None]:
    """Language equality; on False, the least distinguishing tree.

    Least means fewest nodes, ties broken on the rendering, except in the one
    naming corner described at ``_settle``.  Only the product pairs reached by
    trees are explored, and the search stops at the first distinguishing one;
    see ``product_witness``.
    """
    witness = product_witness(d1, d2, operator.ne)
    return (witness is None, witness)


def subset_counterexample(d1: Dbta, d2: Dbta) -> Tree | None:
    """The least tree in L(d1) \\ L(d2), or None if L(d1) is included in L(d2).

    Least means fewest nodes, ties broken on the rendering, except in the one
    naming corner described at ``_settle``.  Only the product pairs reached by
    trees are explored, and the search stops at the first such tree; see
    ``product_witness``.
    """
    return product_witness(d1, d2, _KINDS["difference"])


@dataclass(frozen=True)
class ReachableResult:
    elements: frozenset[int]
    dbta: Dbta
    old_to_new: Mapping[int, int]


def reachable(dbta: Dbta) -> ReachableResult:
    """The tree-reachable elements and the DBTA restricted to them, renumbered
    in increasing order of the old elements."""
    algebra = dbta.algebra
    name = None if algebra.element_names is None else algebra.element_names.__getitem__
    elements, restricted = build(
        algebra.alphabet, algebra.op, algebra.size, "reachable carrier", name
    )
    old_to_new = {old: new for new, old in enumerate(elements)}
    accepting = frozenset(old_to_new[e] for e in dbta.accepting if e in old_to_new)
    return ReachableResult(frozenset(elements), Dbta(restricted, accepting), old_to_new)


def eval_term_in_algebra(algebra: FiniteAlgebra, body: TermBody, env: tuple[int, ...]) -> int:
    """Value of a term body with variable i bound to env[i-1]."""
    if isinstance(body, Var):
        return env[body.index - 1]
    return algebra.op(
        body.label.name,
        [eval_term_in_algebra(algebra, child, env) for child in body.children],
    )


def preimage_tree_hom(dbta: Dbta, hom) -> Dbta:
    """DBTA for the inverse image of the language under a tree homomorphism.

    Same carrier; the table for a source letter is the evaluation of its image
    term.  accepts(result, t) iff accepts(dbta, hom_apply(hom, t)).
    """
    if hom.target != dbta.alphabet:
        raise AlphabetMismatchError("homomorphism target must match the automaton alphabet")
    algebra = dbta.algebra
    tables: dict[str, tuple[int, ...]] = {}
    for letter in hom.source.letters:
        term: Term = hom.rules[letter.name]
        rows = [
            eval_term_in_algebra(algebra, term.body, env)
            for env in itertools.product(range(algebra.size), repeat=letter.arity)
        ]
        tables[letter.name] = tuple(rows)
    new_algebra = FiniteAlgebra(hom.source, algebra.size, tables, algebra.element_names)
    return Dbta(new_algebra, dbta.accepting)
