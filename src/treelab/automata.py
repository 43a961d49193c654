"""Finite letter-indexed algebras; deterministic bottom-up tree automata.

A DBTA is an algebra plus an accepting subset of the carrier.  Carrier elements
are anonymous integers 0..size-1; an optional name tuple is carried for display
only.  Operation tables are stored densely in lexicographic argument order, so
the entry for (e1,...,en) sits at index e1*m^(n-1) + ... + en.

Constructions find values with one of two kernels: ``reach``, a semi-naive
closure by generations, and ``_settle``, which settles least trees in Knuth
order.  ``build`` is ``reach`` followed by a fill of the tables over the
reached values, which it returns as a DBTA; ``tabulate`` fills them over a
whole carrier.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Mapping, Sequence

from .errors import AlphabetMismatchError, CapExceededError
from .trees import NOT_A_WORD, Letter, RankedAlphabet, Term, Tree, Var, preorder, require_letters

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
            if not (0 <= min(table) and max(table) < self.size):
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


def evaluate(algebra: FiniteAlgebra, tree: Tree | list[Letter]) -> int:
    """The value of a tree or its preorder word: one pass over the reversed
    word with one stack of values (see ``trees.preorder``), so depth is
    unbounded.  Each node is one lookup in its letter's table on its arity's
    branch: a constant's value is kept, and arities 1 and 2 index without a
    loop.  A label not in the algebra's alphabet raises AlphabetMismatchError
    for the first such label in the word, before a list that is no tree's
    word raises ValueError (see ``trees.children_first``)."""
    size, rows = algebra.size, {}
    for letter in algebra.alphabet.letters:
        table = algebra.tables[letter.name]
        rows[letter.name] = (letter, table if letter.arity else table[0])
    word = [node.label for node in preorder(tree)] if isinstance(tree, Tree) else tree
    stack: list[int] = []  # a node's first child's value on top
    pop, push = stack.pop, stack.append
    try:
        for label in reversed(word):
            letter, table = rows.get(label.name, (None, None))
            if letter is not label and letter != label:
                require_letters(word, algebra.alphabet, "letter {} not in the algebra's alphabet")
            arity = letter.arity
            if not arity:
                push(table)  # the constant's value
            elif arity == 1:
                push(table[pop()])
            elif arity == 2:  # the first child's value first
                push(table[pop() * size + pop()])
            else:  # the first child's value is the most significant digit
                push(table[sum([pop() * size**i for i in range(arity - 1, -1, -1)])])
        (value,) = stack  # ValueError unless one value is left
    except (IndexError, ValueError):  # or a pop from the empty stack
        require_letters(word, algebra.alphabet, "letter {} not in the algebra's alphabet")
        raise ValueError(NOT_A_WORD) from None
    return value


def corpus_values(
    algebra: FiniteAlgebra, letters: Sequence[Letter], kids: Sequence[tuple[int, ...]]
) -> list[int]:
    """The value of the subtree at each entry of a node list (see
    ``trees.children_first`` and ``trees.tree_corpus``), in its order.

    Each value is one table lookup on values found earlier, so a subtree
    shared by many entries (as in ``tree_corpus``) is folded once.  A
    letter outside the algebra's alphabet raises AlphabetMismatchError,
    naming the first such letter in the list.
    """
    size = algebra.size
    rows = {
        letter.name: (letter, algebra.tables[letter.name]) for letter in algebra.alphabet.letters
    }
    values: list[int] = []
    for label, children in zip(letters, kids):
        letter, table = rows.get(label.name, (None, None))
        if letter is not label and letter != label:
            require_letters(letters, algebra.alphabet, "letter {} not in the algebra's alphabet")
        index = 0
        for child in children:
            index = index * size + values[child]
        values.append(table[index])
    return values


def accepts(dbta: Dbta, tree: Tree | list[Letter]) -> bool:
    return evaluate(dbta.algebra, tree) in dbta.accepting


def complement(dbta: Dbta) -> Dbta:
    full = frozenset(range(dbta.algebra.size))
    return Dbta(dbta.algebra, full - dbta.accepting)


def product_algebra(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product; (x, y) is encoded as x * b.size + y.

    A row's arguments ((x1, y1), ..., (xk, yk)) index a's table at (x1..xk)
    and b's at (y1..yk).  Both indices are built one argument position at a
    time, and the last position pairs a slice of a's table with a slice of
    b's, so no argument is decoded and no op() call is made per row.  A
    carrier above DEFAULT_CARRIER_CAP raises CapExceededError at once.
    """
    _require_same_alphabet(a.alphabet, b.alphabet)
    n1, n2 = a.size, b.size
    if n1 * n2 > DEFAULT_CARRIER_CAP:
        message = f"product carrier exceeds {DEFAULT_CARRIER_CAP}"
        raise CapExceededError(message, "product carrier", n1 * n2, DEFAULT_CARRIER_CAP)
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
    return frozenset(reach(algebra.alphabet, algebra.op, algebra.size).values)


@dataclass(frozen=True)
class Reach:
    values: tuple  # in found order
    rounds: int
    capped: bool
    hit: Hashable | None  # the first value that met the goal
    derivations: Mapping[Hashable, tuple[Letter, tuple]]  # stepped value -> first (letter, args)

    def replay(
        self, target: Hashable, known: dict, make: Callable[[Letter, tuple], Hashable]
    ) -> Hashable:
        """The found value ``target`` rebuilt by ``make(letter, rebuilt args)``
        along its derivation, from ``known``, which maps the seeds (and any
        value rebuilt before) to their rebuilt forms; ``known`` gains the
        target's ancestors and nothing more."""
        needed = {target}
        for value in reversed(self.values):
            if value in needed and value not in known:
                needed.update(self.derivations[value][1])
        for value in self.values:
            if value in needed and value not in known:
                letter, args = self.derivations[value]
                known[value] = make(letter, tuple(map(known.__getitem__, args)))
        return known[target]


def reach(
    alphabet: RankedAlphabet,
    step: Callable[[str, tuple], Hashable],
    cap: int,
    seeds: Sequence[Hashable] = (),
    goal: Callable[[Hashable], bool] | None = None,
    max_rounds: int | None = None,
) -> Reach:
    """The values reached from ``seeds`` and the constants under ``step``.

    ``step(letter, args)`` is the value of a letter applied to argument values.
    Semi-naive, by generations (the seeds are generation 0): round r steps,
    once, each argument tuple over the values found before it that holds one
    of generation r - 1, letters in alphabet order (nullary ones in round 1)
    and tuples in lexicographic order of positions in the found order.  Stops
    at the first new value, seeds included, that meets ``goal``; stops capped
    when a step finds more than ``cap`` values, or when the last round found
    values and ``max_rounds`` rounds have run.
    """
    found = list(dict.fromkeys(seeds))
    known, derivations, rounds = set(found), {}, 0
    for value in found:
        if goal is not None and goal(value):
            return Reach(tuple(found), rounds, False, value, derivations)
    operators = [letter for letter in alphabet.letters if letter.arity]
    batch = [(letter, [()]) for letter in alphabet.constants]
    older, newer = [], found[:]  # newer: the last generation
    while newer or batch:
        if max_rounds is not None and rounds >= max_rounds:
            return Reach(tuple(found), rounds, True, None, derivations)
        rounds, pool, mark = rounds + 1, older + newer, len(found)
        batch += [(letter, _fresh_tuples(older, newer, pool, letter.arity)) for letter in operators]
        for letter, tuples in batch:
            name = letter.name
            for args in tuples:
                value = step(name, args)
                if value not in known:
                    known.add(value)
                    found.append(value)
                    derivations[value] = (letter, args)
                    hit = value if goal is not None and goal(value) else None
                    if hit is not None or len(found) > cap:
                        return Reach(tuple(found), rounds, len(found) > cap, hit, derivations)
        older, newer, batch = pool, found[mark:], []
    return Reach(tuple(found), rounds, False, None, derivations)


def _fresh_tuples(older: list, newer: list, pool: list, arity: int) -> Iterator[tuple]:
    """The arity-tuples over ``pool``, which is ``older + newer``, that hold a
    value of ``newer``, in lexicographic order of positions in ``pool``."""
    if arity == 1:
        return zip(newer)
    if arity == 2:
        heads = itertools.product(older, newer)
    else:
        heads = ((x, *rest) for x in older for rest in _fresh_tuples(older, newer, pool, arity - 1))
    return itertools.chain(heads, itertools.product(newer, *[pool] * (arity - 1)))


def tabulate(alphabet: RankedAlphabet, domain: Sequence, op: Callable) -> dict[str, tuple]:
    """Each letter's table over the whole carrier ``domain``, its i-th value
    standing for element i: ``op(name, args)`` per argument tuple, in table order."""
    return {
        x.name: tuple(op(x.name, args) for args in itertools.product(domain, repeat=x.arity))
        for x in alphabet.letters
    }


def build(
    alphabet: RankedAlphabet,
    step: Callable[[str, tuple], Hashable],
    cap: int,
    what: str,
    accept: Callable[[Hashable], bool],
    name: Callable[[Hashable], str] | None = None,
) -> tuple[tuple, Dbta]:
    """The values that trees reach under ``step``, and the DBTA they form,
    accepting the values that meet ``accept``.

    ``reach`` steps each argument tuple over the reached values once; the
    results fill the tables.  Elements are numbered in the sorted order of
    their values (so values must be mutually comparable); the returned tuple
    lists the values in that order.  ``name`` gives element names for display.
    Reaching more than ``cap`` values raises CapExceededError("<what> exceeds
    <cap>").  Over an alphabet without constants no tree exists: the result
    is no values and a one-element dead algebra that accepts nothing.
    """
    results: dict[str, dict[tuple, Hashable]] = {letter.name: {} for letter in alphabet.letters}

    def record(letter: str, args: tuple) -> Hashable:
        results[letter][args] = value = step(letter, args)
        return value

    closure = reach(alphabet, record, cap)
    if closure.capped:
        raise CapExceededError(f"{what} exceeds {cap}", what, len(closure.values), cap)
    if not closure.values:
        dead = FiniteAlgebra(alphabet, 1, {letter.name: (0,) for letter in alphabet.letters})
        return (), Dbta(dead, frozenset())
    values = tuple(sorted(closure.values))
    index = {value: i for i, value in enumerate(values)}
    tables = {}
    for letter in alphabet.letters:
        rows = map(results[letter.name].__getitem__, itertools.product(values, repeat=letter.arity))
        tables[letter.name] = tuple(map(index.__getitem__, rows))
    names = None if name is None else tuple(map(name, values))
    accepting = frozenset(i for i, value in enumerate(values) if accept(value))
    return values, Dbta(FiniteAlgebra(alphabet, len(values), tables, names), accepting)


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
        older = order[:]
        order.append(new)
        batch = [(letter, _fresh_tuples(older, [new], order, letter.arity)) for letter in operators]


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


def _pair_step(a: FiniteAlgebra, b: FiniteAlgebra) -> Callable[[str, tuple], tuple[int, int]]:
    """A letter's step on pairs (x, y) of values of ``a`` and ``b``: the pair
    of its values in both, each table indexed directly; no product table is
    built."""
    tables1, tables2, n1, n2 = a.tables, b.tables, a.size, b.size

    def step(name: str, args: tuple) -> tuple[int, int]:
        i = j = 0
        for x, y in args:
            i = i * n1 + x
            j = j * n2 + y
        return (tables1[name][i], tables2[name][j])

    return step


def product_witness(d1: Dbta, d2: Dbta, accept: Callable[[bool, bool], bool]) -> Tree | None:
    """The least tree t with accept(t in L(d1), t in L(d2)), or None.

    Least means fewest nodes, then least rendering (see ``_settle``).  Pairs
    (x, y) are stepped by ``_pair_step`` and explored only as far as they are
    reached.
    """
    _require_same_alphabet(d1.alphabet, d2.alphabet)
    acc1, acc2 = d1.accepting, d2.accepting
    step = _pair_step(d1.algebra, d2.algebra)
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
        algebra.alphabet, algebra.op, algebra.size, "reachable carrier",
        dbta.accepting.__contains__, name,
    )
    old_to_new = {old: new for new, old in enumerate(elements)}
    return ReachableResult(frozenset(elements), restricted, old_to_new)


def eval_term_in_algebra(algebra: FiniteAlgebra, term: Term, env: Sequence[int]) -> int:
    """Value of a term with variable i bound to env[i-1]: one fold over its
    children-first ``nodes`` with a stack of values, so depth is unbounded."""
    size, tables = algebra.size, algebra.tables
    values: list[int] = []  # a node's first child's value on top
    for node in term.nodes:
        if node.__class__ is Var:
            values.append(env[node.index - 1])
            continue
        index = 0
        for _ in node.children:
            index = index * size + values.pop()
        values.append(tables[node.label.name][index])
    return values[0]


def with_constants(algebra: FiniteAlgebra) -> FiniteAlgebra:
    """The algebra with one constant letter ``@e`` (table ``(e,)``) per element
    e added after its own letters; element names are kept.  The polynomials
    of an algebra are the term operations of this one.  Raises
    AlphabetMismatchError when the algebra already has a letter so named."""
    constants = tuple(Letter(f"@{e}", 0) for e in range(algebra.size))
    for letter in constants:
        if algebra.alphabet.get(letter.name) is not None:
            raise AlphabetMismatchError(f"the algebra already has a letter {letter.name}")
    tables = dict(algebra.tables)
    for e, letter in enumerate(constants):
        tables[letter.name] = (e,)
    alphabet = RankedAlphabet(algebra.alphabet.letters + constants)
    return FiniteAlgebra(alphabet, algebra.size, tables, algebra.element_names)

