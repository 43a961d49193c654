"""Deterministic top-down transducers and the matrix-power correspondence.

A DTOP carries, per input letter of arity k and state q, an output term whose
variables name (state, child) pairs.  Variables are stored flat: the pair
(p, j) with states numbered 1..n is the index n*(j-1) + p.  That same flat
convention is the variable layout of matrix-power operation tuples, which
makes the two constructive directions of the correspondence index-stable.

Matrix powers are never materialized as operation sets; a MatrixHom is the
finite presentation (one tuple of polynomial terms per letter) of a
homomorphism into the n-th matrix power of a base algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .automata import DEFAULT_CARRIER_CAP, Dbta, FiniteAlgebra, build, eval_term_in_algebra
from .errors import AlphabetMismatchError
from .trees import Letter, RankedAlphabet, Term, TermBody, TermNode, Tree, Var, substitute


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

    def var_pair(self, index: int) -> tuple[int, int]:
        """Flat variable index -> (state, child)."""
        return (index - 1) % self.n_states + 1, (index - 1) // self.n_states + 1

    @staticmethod
    def flat_var(state: int, child: int, n_states: int) -> int:
        return n_states * (child - 1) + state

    def with_initial(self, state: int) -> "Dtop":
        return Dtop(self.input_alphabet, self.output_alphabet, self.n_states, state, self.rules)

    @staticmethod
    def from_hom(hom) -> "Dtop":
        """A tree homomorphism is exactly a one-state DTOP."""
        rules = {(name, 1): term for name, term in hom.rules.items()}
        return Dtop(hom.source, hom.target, 1, 1, rules)


def dtop_apply(dtop: Dtop, tree: Tree) -> Tree:
    """The transduction from the initial state; total on input trees.

    Each node is transduced once, from every state, out of the outputs of its
    children from every state; so the work is linear in the tree, not
    exponential in its depth.
    """
    states = range(1, dtop.n_states + 1)

    def run(node: Tree) -> list[Tree]:  # the outputs from states 1..n
        if node.label not in dtop.input_alphabet:
            raise AlphabetMismatchError(f"letter {node.label.name} not in the input alphabet")
        # variable (p, j) has the flat index n*(j-1)+p: entry p-1 of child j-1's outputs
        env: list[Tree] = []
        for child in node.children:
            env += run(child)
        return [substitute(dtop.rules[(node.label.name, q)], env) for q in states]

    return run(tree)[dtop.initial - 1]


def dtop_preimage(dbta: Dbta, dtop: Dtop, max_carrier: int = DEFAULT_CARRIER_CAP) -> Dbta:
    """DBTA for the inverse image of a recognized language under a DTOP.

    The value of a tree is the map states -> carrier of the given automaton,
    kept as a tuple (index q-1), whose entry at q is the evaluation of the
    q-output.  Only the maps reached by trees are built, numbered in their
    lexicographic order (the order of the full carrier of all maps,
    restricted), and the cap bounds that reached carrier.  Accepting maps send
    the initial state into the accepting set.
    """
    if dtop.output_alphabet != dbta.alphabet:
        raise AlphabetMismatchError("automaton must read the transducer's output alphabet")
    base = dbta.algebra
    n = dtop.n_states

    def step(name: str, child_maps: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        # variable (p, j) has the flat index n*(j-1)+p: entry p-1 of child j-1's map
        env = tuple(value for m in child_maps for value in m)
        return tuple(
            eval_term_in_algebra(base, dtop.rules[(name, q)].body, env) for q in range(1, n + 1)
        )

    maps, algebra = build(dtop.input_alphabet, step, max_carrier, "preimage carrier")
    accepting = frozenset(i for i, m in enumerate(maps) if m[dtop.initial - 1] in dbta.accepting)
    return Dbta(algebra, accepting)


# --- polynomial terms and matrix homomorphisms -------------------------------


@dataclass(frozen=True)
class PVar:
    index: int  # 1-based


@dataclass(frozen=True)
class PConst:
    element: int


PolyBody = Union["PApp", PVar, PConst]


@dataclass(frozen=True)
class PApp:
    name: str
    args: tuple[PolyBody, ...] = ()


@dataclass(frozen=True)
class PolyTerm:
    """Term over an algebra's letters extended with carrier-element constants."""

    nvars: int
    body: PolyBody


def eval_polyterm(algebra: FiniteAlgebra, pt: PolyTerm, args: tuple[int, ...]) -> int:
    if len(args) != pt.nvars:
        raise ValueError(f"polynomial term expects {pt.nvars} arguments, got {len(args)}")

    def go(body: PolyBody) -> int:
        if isinstance(body, PVar):
            return args[body.index - 1]
        if isinstance(body, PConst):
            if not 0 <= body.element < algebra.size:
                raise ValueError(f"constant {body.element} outside the carrier")
            return body.element
        return algebra.op(body.name, [go(child) for child in body.args])

    return go(pt.body)


@dataclass(frozen=True)
class MatrixHom:
    """Homomorphism from trees into the width-th matrix power of the base.

    Each input letter of arity k carries a tuple of ``width`` polynomial
    terms, each over width*k variables laid out child-major by the flat
    convention above.
    """

    base: FiniteAlgebra
    alphabet: RankedAlphabet
    width: int
    tuples: Mapping[str, tuple[PolyTerm, ...]]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        for letter in self.alphabet.letters:
            polys = self.tuples.get(letter.name)
            if polys is None:
                raise ValueError(f"missing tuple for {letter.name}")
            if len(polys) != self.width:
                raise ValueError(f"tuple for {letter.name} must have width {self.width}")
            for pt in polys:
                if pt.nvars != self.width * letter.arity:
                    raise ValueError(
                        f"polynomials for {letter.name} must take "
                        f"{self.width * letter.arity} variables"
                    )


def matrix_hom_eval(mh: MatrixHom, tree: Tree) -> tuple[int, ...]:
    """Bottom-up tuple semantics."""
    if tree.label not in mh.alphabet:
        raise AlphabetMismatchError(f"letter {tree.label.name} not in the input alphabet")
    child_values = [matrix_hom_eval(mh, child) for child in tree.children]
    flat = tuple(value for child in child_values for value in child)
    return tuple(
        eval_polyterm(mh.base, pt, flat) for pt in mh.tuples[tree.label.name]
    )


def term_to_polyterm(term: Term) -> PolyTerm:
    def go(body: TermBody) -> PolyBody:
        if isinstance(body, Var):
            return PVar(body.index)
        return PApp(body.label.name, tuple(go(child) for child in body.children))

    return PolyTerm(term.nvars, go(term.body))


def dtop_to_matrix_hom(dtop: Dtop, base: FiniteAlgebra) -> MatrixHom:
    """Second proof direction: a DTOP composed with an evaluation makes a
    matrix-power homomorphism; coordinate i is the state-i output evaluated."""
    if base.alphabet != dtop.output_alphabet:
        raise AlphabetMismatchError("base algebra must read the transducer's output alphabet")
    n = dtop.n_states
    tuples = {
        letter.name: tuple(
            term_to_polyterm(dtop.rules[(letter.name, q)]) for q in range(1, n + 1)
        )
        for letter in dtop.input_alphabet.letters
    }
    return MatrixHom(base, dtop.input_alphabet, n, tuples)


def matrix_hom_to_dtops(mh: MatrixHom) -> tuple[Dtop, FiniteAlgebra]:
    """First proof direction: one DTOP template whose state-i run, evaluated in
    the extended base algebra, is coordinate i of the homomorphism.

    The output alphabet is the base's letters plus a fresh constant @e per
    carrier element, so every element is represented by a constant as the
    construction assumes.
    """
    const_letters = tuple(Letter(f"@{e}", 0) for e in range(mh.base.size))
    for letter in const_letters:
        if mh.base.alphabet.get(letter.name) is not None:
            raise ValueError(f"output alphabet already uses the name {letter.name}")
    out_alphabet = RankedAlphabet(mh.base.alphabet.letters + const_letters)
    tables = dict(mh.base.tables)
    for e, letter in enumerate(const_letters):
        tables[letter.name] = (e,)
    extended = FiniteAlgebra(out_alphabet, mh.base.size, tables, mh.base.element_names)

    def to_term(pt: PolyTerm) -> Term:
        def go(body: PolyBody) -> TermBody:
            if isinstance(body, PVar):
                return Var(body.index)
            if isinstance(body, PConst):
                return TermNode(out_alphabet[f"@{body.element}"])
            return TermNode(out_alphabet[body.name], tuple(go(child) for child in body.args))

        return Term(pt.nvars, go(pt.body))

    rules = {
        (letter.name, q): to_term(mh.tuples[letter.name][q - 1])
        for letter in mh.alphabet.letters
        for q in range(1, mh.width + 1)
    }
    dtop = Dtop(mh.alphabet, out_alphabet, mh.width, 1, rules)
    return dtop, extended


def matrix_power_language(
    mh: MatrixHom, accepting: frozenset[tuple[int, ...]] | set[tuple[int, ...]],
    max_carrier: int = DEFAULT_CARRIER_CAP,
) -> Dbta:
    """Flatten the matrix-power homomorphism into an ordinary DBTA.

    Only the tuples reached by trees are built, numbered in their
    lexicographic order (the order of the full width-th power, restricted),
    and the cap bounds that reached carrier.  An accepting tuple must lie in
    the width-th power of the base; one that no tree reaches accepts nothing.
    """
    for t in accepting:
        if len(t) != mh.width or any(not 0 <= e < mh.base.size for e in t):
            raise ValueError(f"accepting tuple {t} outside the base's width-{mh.width} power")

    def step(name: str, args: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        flat = tuple(v for value in args for v in value)
        return tuple(eval_polyterm(mh.base, pt, flat) for pt in mh.tuples[name])

    values, algebra = build(mh.alphabet, step, max_carrier, "flattened carrier")
    return Dbta(algebra, frozenset(i for i, value in enumerate(values) if value in accepting))
