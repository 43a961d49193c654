"""Path-word machinery and the decision procedures it enables.

The path automaton of a recognized language reads path words root-to-leaf and
accepts exactly the path labellings of members.  Determinizing it yields a
deterministic top-down tree automaton (DTTA) whose all-paths semantics is the
set of path mixes: the least universal path language containing the input.
Everything downstream (universal-path test, double determinism, top-down
separation, mix elements) is built from that closure.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Mapping

from .automata import (
    DEFAULT_CARRIER_CAP,
    Dbta,
    FiniteAlgebra,
    build,
    complement,
    product_witness,
    reachable_elements,
    subset_counterexample,
)
from .errors import AlphabetMismatchError, CapExceededError
from .trees import Letter, PathWord, RankedAlphabet, Tree

DEFAULT_STATE_CAP = DEFAULT_CARRIER_CAP


@dataclass(frozen=True)
class PathNfa:
    """Nondeterministic automaton over the path alphabet, read root-to-leaf.

    States are reachable elements of the source algebra; a leaf symbol is
    accepted in state e iff its constant evaluates to e.
    """

    alphabet: RankedAlphabet
    states: frozenset[int]
    initial: frozenset[int]
    transitions: Mapping[tuple[int, str, int], frozenset[int]]
    leaf_accept: frozenset[tuple[int, str]]


@dataclass(frozen=True)
class Dtta:
    """Deterministic top-down tree automaton; equivalently a complete word
    automaton over the path alphabet with acceptance on arity-0 symbols."""

    alphabet: RankedAlphabet
    n_states: int
    initial: int
    delta: Mapping[tuple[int, str], tuple[int, ...]]
    leaf_ok: frozenset[tuple[int, str]]

    def __post_init__(self):
        for state in range(self.n_states):
            for letter in self.alphabet.letters:
                if letter.arity == 0:
                    continue
                successors = self.delta.get((state, letter.name))
                if successors is None or len(successors) != letter.arity:
                    raise ValueError(f"delta incomplete at ({state}, {letter.name})")


def path_nfa(dbta: Dbta) -> PathNfa:
    """Automaton for the path words of members of the language."""
    algebra = dbta.algebra
    elements = reachable_elements(algebra)
    transitions: dict[tuple[int, str, int], set[int]] = {}
    for letter in algebra.alphabet.letters:
        if letter.arity == 0:
            continue
        for args in itertools.product(sorted(elements), repeat=letter.arity):
            value = algebra.op(letter.name, args)
            if value not in elements:
                continue
            for i, successor in enumerate(args, start=1):
                transitions.setdefault((value, letter.name, i), set()).add(successor)
    leaf_accept = frozenset(
        (algebra.op(letter.name, ()), letter.name)
        for letter in algebra.alphabet.letters
        if letter.arity == 0
    )
    return PathNfa(
        algebra.alphabet,
        elements,
        frozenset(dbta.accepting & elements),
        {key: frozenset(value) for key, value in transitions.items()},
        leaf_accept,
    )


def nfa_accepts_word(nfa: PathNfa, word: PathWord) -> bool:
    current = set(nfa.initial)
    for symbol in word[:-1]:
        letter, index = symbol  # type: ignore[misc]
        nxt: set[int] = set()
        for state in current:
            nxt |= nfa.transitions.get((state, letter.name, index), frozenset())
        current = nxt
    leaf = word[-1]
    assert isinstance(leaf, Letter)
    return any((state, leaf.name) in nfa.leaf_accept for state in current)


def determinize(nfa: PathNfa, max_states: int = DEFAULT_STATE_CAP) -> Dtta:
    """Subset construction over the path alphabet; complete, with the empty
    subset as rejecting sink.  Raises CapExceededError past max_states."""
    initial = frozenset(nfa.initial)
    index: dict[frozenset[int], int] = {initial: 0}
    worklist = [initial]
    delta: dict[tuple[int, str], tuple[int, ...]] = {}
    at = 0
    while at < len(worklist):
        subset = worklist[at]
        state = index[subset]
        at += 1
        for letter in nfa.alphabet.letters:
            if letter.arity == 0:
                continue
            successors = []
            for i in range(1, letter.arity + 1):
                target: set[int] = set()
                for element in subset:
                    target |= nfa.transitions.get((element, letter.name, i), frozenset())
                target_f = frozenset(target)
                if target_f not in index:
                    if len(index) >= max_states:
                        raise CapExceededError(f"determinization exceeds {max_states} states")
                    index[target_f] = len(index)
                    worklist.append(target_f)
                successors.append(index[target_f])
            delta[(state, letter.name)] = tuple(successors)
    leaf_ok = frozenset(
        (state, letter.name)
        for subset, state in index.items()
        for letter in nfa.alphabet.letters
        if letter.arity == 0
        and any((element, letter.name) in nfa.leaf_accept for element in subset)
    )
    return Dtta(nfa.alphabet, len(index), 0, delta, leaf_ok)


def dtta_accepts_word(dtta: Dtta, word: PathWord) -> bool:
    state = dtta.initial
    for symbol in word[:-1]:
        letter, index = symbol  # type: ignore[misc]
        state = dtta.delta[(state, letter.name)][index - 1]
    leaf = word[-1]
    assert isinstance(leaf, Letter)
    return (state, leaf.name) in dtta.leaf_ok


def dtta_accepts(dtta: Dtta, tree: Tree) -> bool:
    """All-paths semantics: every path word of the tree is accepted."""

    def run(state: int, node: Tree) -> bool:
        if not node.children:
            return (state, node.label.name) in dtta.leaf_ok
        successors = dtta.delta[(state, node.label.name)]
        return all(run(successors[i], child) for i, child in enumerate(node.children))

    return run(dtta.initial, tree)


def dtta_to_dbta(dtta: Dtta, max_carrier: int = DEFAULT_CARRIER_CAP) -> Dbta:
    """Bottom-up automaton equivalent to the all-paths semantics.

    The value of a tree is the set of states from which every path word of the
    tree is accepted, kept as a sorted tuple; elements are numbered in the
    order of those tuples.  Only tree-reachable state sets are materialized
    (they are closed under the tables); the cap bounds that realized carrier.
    """
    states = range(dtta.n_states)

    def step(name: str, args: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        if not args:
            return tuple(state for state in states if (state, name) in dtta.leaf_ok)
        return tuple(
            state
            for state in states
            if all(successor in arg for successor, arg in zip(dtta.delta[(state, name)], args))
        )

    values, algebra = build(
        dtta.alphabet, step, max_carrier, "subset carrier",
        lambda subset: "{" + ",".join(map(str, subset)) + "}",
    )
    accepting = frozenset(i for i, subset in enumerate(values) if dtta.initial in subset)
    return Dbta(algebra, accepting)


def mixes(
    dbta: Dbta,
    max_states: int = DEFAULT_STATE_CAP,
    max_carrier: int = DEFAULT_CARRIER_CAP,
) -> Dbta:
    """The set of path mixes of the language: every path word of a member
    tree occurs in some member.  Least universal path language containing it."""
    return dtta_to_dbta(determinize(path_nfa(dbta), max_states), max_carrier)


def is_universal_path(
    dbta: Dbta,
    max_states: int = DEFAULT_STATE_CAP,
    max_carrier: int = DEFAULT_CARRIER_CAP,
) -> tuple[bool, Tree | None]:
    """True iff the language equals its mix closure; on False, a minimal path
    mix outside the language."""
    closure = mixes(dbta, max_states, max_carrier)
    witness = subset_counterexample(closure, dbta)
    return (witness is None, witness)


def is_doubly_deterministic(
    dbta: Dbta,
    max_states: int = DEFAULT_STATE_CAP,
    max_carrier: int = DEFAULT_CARRIER_CAP,
) -> bool:
    """Both the language and its complement are universal path languages."""
    if not is_universal_path(dbta, max_states, max_carrier)[0]:
        return False
    return is_universal_path(complement(dbta), max_states, max_carrier)[0]


@dataclass(frozen=True)
class Separator:
    """A DTTA accepting everything on one input side, rejecting the other.

    ``accepts_side`` is 0 when the automaton accepts all of the first language
    and rejects the second, 1 for the mirror orientation.
    """

    dtta: Dtta
    accepts_side: int


def separate_topdown(
    d0: Dbta,
    d1: Dbta,
    max_states: int = DEFAULT_STATE_CAP,
    max_carrier: int = DEFAULT_CARRIER_CAP,
) -> Separator | None:
    """A deterministic top-down separator, or None when none exists.

    By leastness of the mix closure, a separator accepting d0's side exists
    iff mixes(d0) misses d1, and symmetrically; so absence here is a proof
    that no deterministic separator exists at all.
    """
    if d0.alphabet != d1.alphabet:
        raise AlphabetMismatchError("separation requires a common alphabet")
    mix0 = mixes(d0, max_states, max_carrier)
    if product_witness(mix0, d1, operator.and_) is None:
        return Separator(determinize(path_nfa(d0), max_states), 0)
    mix1 = mixes(d1, max_states, max_carrier)
    if product_witness(mix1, d0, operator.and_) is None:
        return Separator(determinize(path_nfa(d1), max_states), 1)
    return None


def mix_elements(
    algebra: FiniteAlgebra,
    elements: frozenset[int] | set[int],
    max_states: int = DEFAULT_STATE_CAP,
    max_carrier: int = DEFAULT_CARRIER_CAP,
) -> frozenset[int]:
    """mix_A(B): reachable elements whose some witness tree is a path mix of
    trees with values in B."""
    closure = mixes(Dbta(algebra, frozenset(elements)), max_states, max_carrier)
    other = closure.algebra

    def step(name: str, args: tuple[tuple[int, int], ...]) -> tuple[int, int]:
        return (algebra.op(name, [x for x, _ in args]), other.op(name, [y for _, y in args]))

    pairs = build(algebra.alphabet, step, algebra.size * other.size, "mix pairs")[0]
    return frozenset(e for e, s in pairs if s in closure.accepting)
