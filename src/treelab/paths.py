"""Path-word machinery and the decision procedures it enables.

The path automaton of a recognized language reads path words root-to-leaf and
accepts exactly the path labellings of members.  Determinizing it yields a
deterministic top-down tree automaton (DTTA) whose all-paths semantics is the
set of path mixes: the least universal path language containing the input.
Everything downstream (universal-path test, double determinism, top-down
separation, mix elements) is built from that closure.

The closure is read bottom-up by ``dtta_to_dbta``: a tree's value is the set
of DTTA states that accept it.  A step ANDs one bitmask per argument, the
states whose successor at that position lies in the argument's set; each such
preimage is computed once.  Values stay sorted tuples, which fix the
numbering of the carrier.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

from .automata import (
    DEFAULT_CARRIER_CAP,
    Dbta,
    FiniteAlgebra,
    _pair_step,
    build,
    complement,
    product_witness,
    reach,
    subset_counterexample,
)
from .errors import AlphabetMismatchError, CapExceededError
from .trees import RankedAlphabet, Tree, preorder


@dataclass(frozen=True)
class PathNfa:
    """Nondeterministic automaton over the path alphabet, read root-to-leaf.

    States are reachable elements of the source algebra; a leaf symbol is
    accepted in state e iff its constant evaluates to e.
    """

    alphabet: RankedAlphabet
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
        # letters outermost: over constants only, the states are never counted
        for letter in self.alphabet.letters:
            if letter.arity == 0:
                continue
            for state in range(self.n_states):
                successors = self.delta.get((state, letter.name))
                if successors is None or len(successors) != letter.arity:
                    raise ValueError(f"delta incomplete at ({state}, {letter.name})")


def path_nfa(dbta: Dbta) -> PathNfa:
    """Automaton for the path words of members of the language: each argument
    tuple that ``reach`` steps adds the transitions from its value."""
    algebra = dbta.algebra
    transitions: dict[tuple[int, str, int], set[int]] = {}

    def step(name: str, args: tuple[int, ...]) -> int:
        value = algebra.op(name, args)
        for i, successor in enumerate(args, start=1):
            transitions.setdefault((value, name, i), set()).add(successor)
        return value

    elements = frozenset(reach(algebra.alphabet, step, algebra.size).values)
    return PathNfa(
        algebra.alphabet,
        frozenset(dbta.accepting & elements),
        {key: frozenset(value) for key, value in transitions.items()},
        frozenset((algebra.op(leaf.name, ()), leaf.name) for leaf in algebra.alphabet.constants),
    )


def determinize(nfa: PathNfa, max_states: int = DEFAULT_CARRIER_CAP) -> Dtta:
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
                        message = f"determinization exceeds {max_states} states"
                        raise CapExceededError(message, "determinization", len(index) + 1, max_states)
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


def dtta_accepts(dtta: Dtta, tree: Tree) -> bool:
    """All-paths semantics: every path word of the tree is accepted.

    States are assigned top-down in preorder with a stack of the states of
    the nodes still to visit, so depth is unbounded.
    """
    states = [dtta.initial]  # the next node's state on top
    for node in preorder(tree):
        state = states.pop()
        if not node.children:
            if (state, node.label.name) not in dtta.leaf_ok:
                return False
        else:
            states += dtta.delta[(state, node.label.name)][::-1]
    return True


def dtta_to_dbta(dtta: Dtta, max_carrier: int = DEFAULT_CARRIER_CAP) -> Dbta:
    """Bottom-up automaton equivalent to the all-paths semantics.

    The value of a tree is the set of states from which every path word of the
    tree is accepted, kept as a sorted tuple; elements are numbered in the
    order of those tuples.  Only tree-reachable state sets are materialized
    (they are closed under the tables); the cap bounds that realized carrier.

    A constant's value is read off ``leaf_ok``.  A step on arguments works on
    bitmasks of states: ``below[name][i][s]`` holds the states whose i-th
    successor under ``name`` is s, so the preimage of a value S at position i
    is the OR of its rows over S, computed once per (name, i, S).  The value
    of the step is the AND of its arguments' preimages, and each distinct mask
    is decoded into its sorted tuple once.
    """
    leaves: dict[str, list[int]] = {}  # constant -> the states that accept it, ascending
    for state, name in sorted(dtta.leaf_ok):
        leaves.setdefault(name, []).append(state)
    below: dict[str, list[list[int]]] = {}
    for letter in dtta.alphabet.letters:
        if letter.arity:
            rows = below[letter.name] = [[0] * dtta.n_states for _ in range(letter.arity)]
            for state in range(dtta.n_states):
                for row, successor in zip(rows, dtta.delta[(state, letter.name)]):
                    row[successor] |= 1 << state
    # preimages[name][i]: value -> the mask of its preimage at position i
    preimages = {name: [{} for _ in rows] for name, rows in below.items()}
    decoded: dict[int, tuple[int, ...]] = {}

    def step(name: str, args: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        if not args:
            return tuple(leaves.get(name, ()))
        mask = -1  # all bits set: the first argument's preimage replaces it
        for cache, row, subset in zip(preimages[name], below[name], args):
            part = cache.get(subset)
            if part is None:
                part = 0
                for successor in subset:
                    part |= row[successor]
                cache[subset] = part
            mask &= part
        value = decoded.get(mask)
        if value is None:
            value = decoded[mask] = tuple(
                state for state in range(mask.bit_length()) if mask >> state & 1
            )
        return value

    return build(
        dtta.alphabet, step, max_carrier, "subset carrier", lambda subset: dtta.initial in subset,
        lambda subset: "{" + ",".join(map(str, subset)) + "}",
    )[1]


def mixes(dbta: Dbta, max_states: int = DEFAULT_CARRIER_CAP) -> Dbta:
    """The set of path mixes of the language: every path word of a member
    tree occurs in some member.  Least universal path language containing it.
    The one cap bounds both the determinized states and the subset carrier,
    here and in every decision below built on this closure."""
    return dtta_to_dbta(determinize(path_nfa(dbta), max_states), max_states)


def is_universal_path(dbta: Dbta, max_states: int = DEFAULT_CARRIER_CAP) -> tuple[bool, Tree | None]:
    """True iff the language equals its mix closure; on False, a minimal path
    mix outside the language."""
    closure = mixes(dbta, max_states)
    witness = subset_counterexample(closure, dbta)
    return (witness is None, witness)


def is_doubly_deterministic(dbta: Dbta, max_states: int = DEFAULT_CARRIER_CAP) -> bool:
    """Both the language and its complement are universal path languages."""
    if not is_universal_path(dbta, max_states)[0]:
        return False
    return is_universal_path(complement(dbta), max_states)[0]


@dataclass(frozen=True)
class Separator:
    """A DTTA accepting everything on one input side, rejecting the other.

    ``accepts_side`` is 0 when the automaton accepts all of the first language
    and rejects the second, 1 for the mirror orientation.
    """

    dtta: Dtta
    accepts_side: int


def separate_topdown(d0: Dbta, d1: Dbta, max_states: int = DEFAULT_CARRIER_CAP) -> Separator | None:
    """A deterministic top-down separator, or None when none exists.

    By leastness of the mix closure, a separator accepting d0's side exists
    iff mixes(d0) misses d1, and symmetrically; so absence here is a proof
    that no deterministic separator exists at all.
    """
    if d0.alphabet != d1.alphabet:
        raise AlphabetMismatchError("separation requires a common alphabet")
    for side, (inside, outside) in enumerate(((d0, d1), (d1, d0))):
        dtta = determinize(path_nfa(inside), max_states)
        if product_witness(dtta_to_dbta(dtta, max_states), outside, operator.and_) is None:
            return Separator(dtta, side)
    return None


def mix_elements(
    algebra: FiniteAlgebra,
    elements: frozenset[int] | set[int],
    max_states: int = DEFAULT_CARRIER_CAP,
) -> frozenset[int]:
    """mix_A(B): reachable elements whose some witness tree is a path mix of
    trees with values in B."""
    closure = mixes(Dbta(algebra, frozenset(elements)), max_states)
    step = _pair_step(algebra, closure.algebra)
    pairs = reach(algebra.alphabet, step, algebra.size * closure.algebra.size).values
    return frozenset(e for e, s in pairs if s in closure.accepting)
