"""Deterministic top-down transducers and the matrix-power correspondence.

A DTOP carries, per input letter of arity k and state q, an output term whose
variables name (state, child) pairs.  Variables are stored flat: the pair
(p, j) with states numbered 1..n is the index n*(j-1) + p.  That same flat
convention is the variable layout of matrix-power operation tuples, which
makes the two constructive directions of the correspondence index-stable.
A tree homomorphism, a letter-to-term substitution, is a one-state DTOP:
``Dtop(source, target, 1, 1, {(name, 1): term})``, where (1, j) is x_j.
``dtop_word`` runs a DTOP top-down over a tree's preorder word and writes
the output's word, running only the states asked for; ``dtop_apply`` builds
the tree of that word.

Matrix powers are never materialized as operation sets; a MatrixHom is the
finite presentation (one tuple of polynomials per letter) of a homomorphism
into the n-th matrix power of a base algebra.  A polynomial of the base is a
term over ``automata.with_constants(base)``: the base letters plus a constant
``@e`` for each element e.  So it is an ordinary ``Term``, evaluated by
``eval_term_in_algebra``, and a DTOP rule over that alphabet is one verbatim.

Preimages are flattens: ``matrix_power_language`` and ``dtop_preimage`` each
``build`` the tuples that trees reach under the step ``_tuple_steps`` compiles
once per call.  A coordinate reads only the flat slots (variables) its term
names and is memoised on their values, unless it names every slot, so it is
evaluated at most once per reached argument tuple and at most once per
distinct reading of its slots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping

from .automata import (
    DEFAULT_CARRIER_CAP,
    Dbta,
    FiniteAlgebra,
    build,
    eval_term_in_algebra,
    with_constants,
)
from .errors import AlphabetMismatchError, CapExceededError
from .trees import (
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    Var,
    VarLetter,
    children_first,
    preorder,
    require_letters,
    tree_of,
)


@dataclass(frozen=True)
class Dtop:
    input_alphabet: RankedAlphabet
    output_alphabet: RankedAlphabet
    n_states: int
    initial: int  # states are 1..n_states
    rules: Mapping[tuple[str, int], Term]

    def __post_init__(self):
        if not 1 <= self.initial <= self.n_states:
            raise ValueError("initial state out of range")
        for letter in self.input_alphabet.letters:
            for state in range(1, self.n_states + 1):
                rule = self.rules.get((letter.name, state))
                if rule is None:
                    raise ValueError(f"missing rule for ({letter.name}, {state})")
                if rule.nvars != self.n_states * letter.arity:
                    raise ValueError(
                        f"rule for ({letter.name}, {state}) must declare "
                        f"{self.n_states * letter.arity} variables"
                    )
                for node in rule.nodes:
                    if node.label not in self.output_alphabet and node.__class__ is not Var:
                        raise ValueError(
                            f"rule for ({letter.name}, {state}) uses letter "
                            f"{node.label.name} outside the output alphabet"
                        )
        if len(self.rules) != self.n_states * len(self.input_alphabet.letters):
            raise ValueError("rules for unknown letters or states")

    def var_pair(self, index: int) -> tuple[int, int]:
        """Flat variable index -> (state, child)."""
        return (index - 1) % self.n_states + 1, (index - 1) // self.n_states + 1

    @staticmethod
    def flat_var(state: int, child: int, n_states: int) -> int:
        return n_states * (child - 1) + state


MAX_DTOP_OUTPUT = 1_000_000  # letters of a transduction's output past its linear share


def _program(dtop: Dtop, body: Tree) -> tuple[list[Letter], list, tuple[int, int] | None]:
    """A rule body as ``dtop_word`` runs it: the letters before its first
    variable; the rest as stack items, last first: each variable (p, j) as
    (p-1, j-1) and each nonempty run of letters; and the first variable as
    (p-1, j-1), or None.  Only a bare variable has no letters before it."""
    items: list = [[]]  # runs of letters and variables, in preorder
    for node in preorder(body):
        if node.__class__ is Var:
            p, j = dtop.var_pair(node.index)
            items += [(p - 1, j - 1), []]
        else:
            items[-1].append(node.label)
    rest = [item for item in reversed(items[1:]) if item != []]
    return items[0], rest[:-1], rest[-1] if rest else None


def dtop_word(dtop: Dtop, tree: Tree | list[Letter]) -> list[Letter]:
    """The preorder word of the transduction of a tree or a term body, or of
    its preorder word, from the initial state.

    One pass checks every letter, so the first foreign letter in preorder is
    reported also where the transduction deletes it.  Then a stack writes
    the word top-down: the pair (q, v) writes the body of v's rule in state
    q, each variable (p, j) in it the pair (p, v's j-th child), the first one
    at once; a run of letters is written as it is.  So only the states asked
    for at a node run there, and a deleted subtree is never visited.  A rule
    whose body is a bare variable writes nothing: a chain of them is followed
    once per pair, and then jumped, so every pair run writes a letter and the
    work is linear in the input and the output.  Out of state q a variable
    leaf x_i writes the variable q.x_i, flat index n*(i-1) + q, so a tree
    homomorphism maps each variable to itself.

    A DTOP whose rule bodies name each child once at most writes no more
    than the input's length times its longest rule body.  The output may pass
    that by ``MAX_DTOP_OUTPUT`` letters; past it, CapExceededError is raised
    (stage ``dtop output``): a copying DTOP doubles its output per level.
    """
    n, alphabet = dtop.n_states, dtop.input_alphabet
    states = range(1, n + 1)
    word = [node.label for node in preorder(tree)] if isinstance(tree, Tree) else tree
    rows = {}  # per distinct label of the word, by id: its programs in states 1..n
    for key, label in dict(zip(map(id, word), word)).items():
        if label in alphabet:
            rows[key] = [_program(dtop, dtop.rules[label.name, q].body) for q in states]
        elif label.__class__ is VarLetter:
            rows[key] = [([Var(n * (label.var.index - 1) + q).label], (), None) for q in states]
        else:
            require_letters(word, alphabet, "letter {} not in the input alphabet", variables=True)
    letters, kids = children_first(word)  # a list that is no tree's word raises ValueError
    longest = max(
        len(head) + sum(len(item) for item in rest if item.__class__ is list)
        for row in rows.values() for head, rest, _ in row
    )
    cap = MAX_DTOP_OUTPUT + len(word) * longest
    ends: dict[int, tuple[int, int]] = {}  # bare-variable pair, as v*n + q -> its chain's end

    def chain_end(q: int, v: int) -> tuple[int, int]:
        """The first pair down from (q, v) whose rule is not a bare variable;
        each pair on the way keeps it, so a chain is followed once."""
        chain = []
        while (key := v * n + q) not in ends:
            head, _, first = rows[id(letters[v])][q]
            if head:
                break
            chain.append(key)
            q, v = first[0], kids[v][first[1]]
        end = ends.get(key, (q, v))
        for bare in chain:
            ends[bare] = end
        return end

    out: list[Letter] = []
    write = out.extend
    stack: list = [(dtop.initial - 1, len(letters) - 1)]  # the root is listed last
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        if item.__class__ is list:
            write(item)
        else:
            q, v = item
            while True:
                head, rest, first = rows[id(letters[v])][q]
                if not head:
                    q, v = chain_end(q, v)
                    head, rest, first = rows[id(letters[v])][q]
                write(head)
                if first is None or len(out) > cap:
                    break
                children = kids[v]
                for entry in rest:
                    push(entry if entry.__class__ is list else (entry[0], children[entry[1]]))
                q, v = first[0], children[first[1]]
        if len(out) > cap:
            raise CapExceededError(f"dtop output exceeds {cap}", "dtop output", len(out), cap)
    return out


def dtop_apply(dtop: Dtop, tree: Tree | list[Letter]) -> Tree:
    """The transduction of a tree or a term body, or of its preorder word:
    the tree of ``dtop_word``'s word, one ``Tree`` per output node."""
    return tree_of(dtop_word(dtop, tree))


# --- preimages are flattens ----------------------------------------------------


_NO_SLOTS = operator.itemgetter(slice(0, 0))  # reads () from any flat tuple


def _tuple_steps(
    algebra: FiniteAlgebra, tuples: Mapping[str, tuple[Term, ...]]
) -> Callable[[str, tuple], tuple[int, ...]]:
    """The step of a preimage flatten: the tuple of a node from its letter
    and its children's tuples laid out flat (slot i is variable i + 1), each
    coordinate one of the letter's terms evaluated in ``algebra``.

    A term that names every slot is evaluated on each step: ``build`` steps
    an argument tuple once, so its readings never repeat.  Any other term is
    memoised on the values of the slots it names, each entry evaluated the
    first time its reading is asked for; one that names no slot is
    evaluated once.  The memo holds at most one entry per step, so it needs
    no cap of its own."""
    programs = {}
    for name, terms in tuples.items():
        program = []
        for term in terms:
            slots = sorted({node.index - 1 for node in term.nodes if node.__class__ is Var})
            if slots and len(slots) == term.nvars:
                program.append((term, None, None))
            else:
                program.append((term, operator.itemgetter(*slots) if slots else _NO_SLOTS, {}))
        programs[name] = program

    def step(name: str, args: tuple) -> tuple[int, ...]:
        flat = sum(args, ())
        out = []
        for term, reading, memo in programs[name]:
            if memo is None:
                out.append(eval_term_in_algebra(algebra, term, flat))
                continue
            key = reading(flat)
            value = memo.get(key)
            if value is None:
                value = memo[key] = eval_term_in_algebra(algebra, term, flat)
            out.append(value)
        return tuple(out)

    return step


def _state_tuples(dtop: Dtop) -> dict[str, tuple[Term, ...]]:
    """Per input letter, its rules for states 1..n: its tuple as a MatrixHom."""
    states = range(1, dtop.n_states + 1)
    return {x.name: tuple(dtop.rules[x.name, q] for q in states) for x in dtop.input_alphabet.letters}


def dtop_preimage(dbta: Dbta, dtop: Dtop, max_carrier: int = DEFAULT_CARRIER_CAP) -> Dbta:
    """DBTA for the inverse image of a recognized language under a DTOP.

    The value of a tree is the map states -> carrier of the given automaton,
    kept as a tuple (index q-1), whose entry at q is the evaluation of the
    q-output: the flatten of ``dtop_to_matrix_hom(dtop, dbta.algebra)``, with
    the rules evaluated in the automaton's own algebra.  Accepting maps send the
    initial state into the accepting set.
    """
    if dtop.output_alphabet != dbta.alphabet:
        raise AlphabetMismatchError("automaton must read the transducer's output alphabet")
    initial, accepting = dtop.initial - 1, dbta.accepting
    step = _tuple_steps(dbta.algebra, _state_tuples(dtop))
    accept = lambda m: m[initial] in accepting
    return build(dtop.input_alphabet, step, max_carrier, "preimage carrier", accept)[1]


# --- matrix homomorphisms ------------------------------------------------------


@dataclass(frozen=True)
class MatrixHom:
    """Homomorphism from trees into the width-th matrix power of the base.

    Each input letter of arity k carries a tuple of ``width`` polynomials of
    the base: terms over ``with_constants(base)``, each over width*k
    variables laid out child-major by the flat convention above.
    """

    base: FiniteAlgebra
    alphabet: RankedAlphabet
    width: int
    tuples: Mapping[str, tuple[Term, ...]]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        # the algebra the terms are evaluated in; an attribute, not a field,
        # so ==, hash and repr ignore it
        extended = with_constants(self.base)
        object.__setattr__(self, "extended", extended)
        for letter in self.alphabet.letters:
            terms = self.tuples.get(letter.name)
            if terms is None:
                raise ValueError(f"missing tuple for {letter.name}")
            if len(terms) != self.width:
                raise ValueError(f"tuple for {letter.name} must have width {self.width}")
            for term in terms:
                if term.nvars != self.width * letter.arity:
                    raise ValueError(
                        f"polynomials for {letter.name} must take "
                        f"{self.width * letter.arity} variables"
                    )
                require_letters(
                    preorder(term.body), extended.alphabet,
                    "letter {} is not a base letter or constant", variables=True,
                )


def dtop_to_matrix_hom(dtop: Dtop, base: FiniteAlgebra) -> MatrixHom:
    """Second proof direction: a DTOP composed with an evaluation makes a
    matrix-power homomorphism; coordinate i is the state-i output evaluated,
    so the rules are the tuples verbatim."""
    if base.alphabet != dtop.output_alphabet:
        raise AlphabetMismatchError("base algebra must read the transducer's output alphabet")
    return MatrixHom(base, dtop.input_alphabet, dtop.n_states, _state_tuples(dtop))


def matrix_hom_to_dtops(mh: MatrixHom) -> tuple[Dtop, FiniteAlgebra]:
    """First proof direction: one DTOP template whose state-i run, evaluated in
    the extended base algebra, is coordinate i of the homomorphism.

    The output alphabet is that of ``with_constants(base)``, so every element
    is represented by a constant as the construction assumes, and the tuples
    are the rules verbatim.
    """
    rules = {
        (letter.name, q): mh.tuples[letter.name][q - 1]
        for letter in mh.alphabet.letters
        for q in range(1, mh.width + 1)
    }
    dtop = Dtop(mh.alphabet, mh.extended.alphabet, mh.width, 1, rules)
    return dtop, mh.extended


def matrix_power_language(
    mh: MatrixHom, accepting: frozenset[tuple[int, ...]] | set[tuple[int, ...]],
    max_carrier: int = DEFAULT_CARRIER_CAP,
) -> Dbta:
    """Flatten the matrix-power homomorphism into an ordinary DBTA: the
    tuples that trees reach under ``_tuple_steps``' step, numbered in their
    lexicographic order (the order of the full power of the base, restricted);
    the cap bounds that reached carrier.  An accepting tuple must lie in the
    width-th power of the base; one that no tree reaches accepts nothing.
    """
    for t in accepting:
        if len(t) != mh.width or any(not 0 <= e < mh.base.size for e in t):
            raise ValueError(f"accepting tuple {t} outside the base's width-{mh.width} power")
    step = _tuple_steps(mh.extended, mh.tuples)
    return build(mh.alphabet, step, max_carrier, "flattened carrier", accepting.__contains__)[1]
