"""Wreath products as sequential composition, nesting, until languages, CTL.

A cascade is a chain of annotation layers over a growing alphabet: each layer
is a homomorphism into the two-element meet-semilattice (width 1) or into a
matrix power of it (width w > 1), reading the base letter extended with the
bits of all earlier layers.  Flattening a cascade yields an ordinary DBTA; CTL
formulas compile to cascades whose flattening matches the direct semantics.

Layer polynomial convention: the bits of a cascade are numbered flat, layer
after layer, so a layer after ``nbits`` earlier bits owns the flat coordinates
nbits .. nbits+w-1.  A layer stores, per base letter, a table of rows; each row
is a tuple of w semilattice polynomials over w*k inputs for a letter of arity
k, where input j*w + c is coordinate c of child j (children 0-based).  The row
is chosen by the node's own values of the few earlier flat coordinates the
layer ``reads``, read as a binary number with the first read most significant.
On the annotated letter ``name|bits`` the layer therefore acts by the row that
``bits`` selects; a layer given by explicit polynomials for every annotated
letter reads every earlier coordinate.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .automata import DEFAULT_CARRIER_CAP, Dbta, FiniteAlgebra, build, subtree_values
from .errors import AlphabetMismatchError, CapExceededError, ParseError
from .trees import Letter, RankedAlphabet, Tree, children_first, preorder, require_letters

DEFAULT_WIDTH_CAP = 16


# --- annotated alphabets ------------------------------------------------------


def ann_name(base: str, bits: tuple[int, ...]) -> str:
    if not bits:
        return base
    return f"{base}|{''.join(str(b) for b in bits)}"


def annotated_alphabet(base: RankedAlphabet, nbits: int) -> RankedAlphabet:
    """base x 2^nbits, letter-major then bits in binary order; arity inherited."""
    if nbits == 0:
        return base
    letters = tuple(
        Letter(ann_name(letter.name, bits), letter.arity)
        for letter in base.letters
        for bits in itertools.product((0, 1), repeat=nbits)
    )
    return RankedAlphabet(letters)


def annotate(tree: Tree, langs: list[Dbta] | tuple[Dbta, ...]) -> Tree:
    """Extend each node's label with the membership bits of its own subtree."""
    nodes = preorder(tree)
    for lang in langs:
        require_letters(nodes, lang.alphabet, "annotation languages must read the tree's alphabet")
    members = [
        [int(value in lang.accepting) for value in subtree_values(lang.algebra, nodes)]
        for lang in langs
    ]
    rows = zip(*members) if members else itertools.repeat(())
    labels = [
        Letter(ann_name(node.label.name, bits), node.label.arity) for node, bits in zip(nodes, rows)
    ]
    return _relabel(nodes, labels)


def _relabel(nodes: list[Tree], labels: list[Letter]) -> Tree:
    """The tree whose preorder is ``nodes``, with ``labels[k]`` in place of
    the label of ``nodes[k]``."""
    built: list[Tree] = []  # a node's first child on top
    for node, label in zip(reversed(nodes), reversed(labels)):
        built.append(Tree(label, tuple([built.pop() for _ in node.children])))
    return built[0]


def nest(
    langs: list[Dbta] | tuple[Dbta, ...],
    top: Dbta,
    max_carrier: int = DEFAULT_CARRIER_CAP,
) -> Dbta:
    """The language { t : annotate(t, langs) in top }, as a product automaton.

    A tree's value is the tuple of its values in each of ``langs`` and then in
    ``top``.  Only tuples reached by trees are built, numbered in their
    lexicographic order (the order of the full product, restricted), and the
    cap bounds that reached carrier.
    """
    if langs:
        base = langs[0].alphabet
        for lang in langs:
            if lang.alphabet != base:
                raise AlphabetMismatchError("all annotation languages must share one alphabet")
    else:
        # with no annotations the top already reads the base alphabet
        base = top.alphabet
    expected = annotated_alphabet(base, len(langs))
    if top.alphabet != expected:
        raise AlphabetMismatchError("top language must read the annotated alphabet")

    def step(name: str, args: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        inner = [
            lang.algebra.op(name, [arg[i] for arg in args]) for i, lang in enumerate(langs)
        ]
        bits = tuple(int(inner[i] in lang.accepting) for i, lang in enumerate(langs))
        return (*inner, top.algebra.op(ann_name(name, bits), [arg[-1] for arg in args]))

    values, algebra = build(base, step, max_carrier, "nesting carrier")
    accepting = frozenset(i for i, value in enumerate(values) if value[-1] in top.accepting)
    return Dbta(algebra, accepting)


# --- wreath product as sequential composition ---------------------------------


def value_annotated_alphabet(base: RankedAlphabet, size: int) -> RankedAlphabet:
    """base x carrier, letters named name|value."""
    letters = tuple(
        Letter(f"{letter.name}|{value}", letter.arity)
        for letter in base.letters
        for value in range(size)
    )
    return RankedAlphabet(letters)


def value_annotate(tree: Tree, h: FiniteAlgebra) -> Tree:
    """t^h: each node labelled with (letter, value of its subtree under h)."""
    nodes = preorder(tree)
    return _relabel(nodes, [
        Letter(f"{node.label.name}|{value}", node.label.arity)
        for node, value in zip(nodes, subtree_values(h, nodes))
    ])


def sequential_compose(h: FiniteAlgebra, g: FiniteAlgebra) -> FiniteAlgebra:
    """The homomorphism t -> (g(t^h), h(t)), carried by the wreath product.

    ``h`` reads the base alphabet; ``g`` reads the base annotated with h's
    values.  The result reads the base alphabet with carrier A x B encoded as
    a * |B| + b.
    """
    base = h.alphabet
    if g.alphabet != value_annotated_alphabet(base, h.size):
        raise AlphabetMismatchError("outer algebra must read the value-annotated alphabet")
    size = g.size * h.size
    tables: dict[str, tuple[int, ...]] = {}
    for letter in base.letters:
        rows = []
        for combo in itertools.product(range(size), repeat=letter.arity):
            a_args = [arg // h.size for arg in combo]
            b_args = [arg % h.size for arg in combo]
            b_value = h.op(letter.name, b_args)
            a_value = g.op(f"{letter.name}|{b_value}", a_args)
            rows.append(a_value * h.size + b_value)
        tables[letter.name] = tuple(rows)
    return FiniteAlgebra(base, size, tables)


# --- until languages ----------------------------------------------------------


@dataclass(frozen=True)
class SemiPoly:
    """A semilattice polynomial: constant zero, or a conjunction of inputs
    (the empty conjunction is the constant one)."""

    zero: bool
    indices: frozenset[int]

    def __post_init__(self):
        if self.zero and self.indices:
            raise ValueError("constant zero takes no inputs")

    def eval(self, args: list[int] | tuple[int, ...]) -> int:
        if self.zero:
            return 0
        return int(all(args[i] for i in self.indices))

    @staticmethod
    def const(value: bool | int) -> "SemiPoly":
        return SemiPoly(not value, frozenset())


@dataclass(frozen=True)
class UntilSpec:
    """X until Y: some node has label in Y and every proper ancestor w with the
    witness in its i-th subtree satisfies (label(w), i) in X."""

    alphabet: RankedAlphabet
    xs: frozenset[tuple[str, int]]
    ys: frozenset[str]

    def __post_init__(self):
        for name, child in self.xs:
            letter = self.alphabet.get(name)
            if letter is None or not 1 <= child <= letter.arity:
                raise ValueError(f"pair ({name},{child}) does not respect the alphabet")
        for name in self.ys:
            if self.alphabet.get(name) is None:
                raise ValueError(f"letter {name} not in the alphabet")


def until_language(spec: UntilSpec) -> tuple[Dbta, dict[str, SemiPoly]]:
    """The until language, plus the per-letter semilattice polynomials that
    recognize its complement.

    The complement bit h satisfies: h = 0 on Y-letters, otherwise the
    conjunction of h over the children selected by X (empty conjunction = 1).
    """
    polys: dict[str, SemiPoly] = {}
    tables: dict[str, tuple[int, ...]] = {}
    for letter in spec.alphabet.letters:
        if letter.name in spec.ys:
            poly = SemiPoly.const(0)
        else:
            selected = frozenset(
                i - 1 for name, i in spec.xs if name == letter.name
            )
            poly = SemiPoly(False, selected)
        polys[letter.name] = poly
        tables[letter.name] = tuple(
            poly.eval(args)
            for args in itertools.product((0, 1), repeat=letter.arity)
        )
    algebra = FiniteAlgebra(spec.alphabet, 2, tables)
    return Dbta(algebra, frozenset({0})), polys


# --- cascades -----------------------------------------------------------------


def _split_annotated(alphabet: RankedAlphabet) -> tuple[RankedAlphabet, int]:
    """(base, nbits) with annotated_alphabet(base, nbits) == alphabet, or
    (alphabet, 0) when the letter names carry no annotation."""
    first = alphabet.letters[0].name if alphabet.letters else ""
    nbits = len(first.rpartition("|")[2]) if "|" in first else 0
    if nbits:
        letters = alphabet.letters[:: 1 << nbits]
        try:
            base = RankedAlphabet(
                tuple(Letter(letter.name.rpartition("|")[0], letter.arity) for letter in letters)
            )
        except ValueError:  # repeated prefixes: not an annotated alphabet
            return alphabet, 0
        if annotated_alphabet(base, nbits) == alphabet:
            return base, nbits
    return alphabet, 0


@dataclass(frozen=True, init=False)
class Layer:
    """One annotation layer, stored symbolically.

    The layer follows ``nbits`` earlier bits of a cascade over ``base``.  For
    a base letter ``name``, ``table[name][row]`` is the width-tuple of
    semilattice polynomials the layer applies, where ``row`` spells in binary
    the node's own values of the earlier flat coordinates in ``reads`` (first
    read most significant), so each entry has 2^len(reads) rows.

    ``Layer(alphabet, width, polys)`` takes explicit polynomials for every
    letter of an annotated alphabet (named as ``annotated_alphabet`` names
    them, or a plain alphabet for a first layer) and reads every earlier
    coordinate.  ``Layer.symbolic`` takes the table directly.
    """

    base: RankedAlphabet
    nbits: int
    width: int
    reads: tuple[int, ...]
    table: Mapping[str, tuple[tuple[SemiPoly, ...], ...]]

    def __init__(
        self,
        alphabet: RankedAlphabet,
        width: int,
        polys: Mapping[str, tuple[SemiPoly, ...]],
    ):
        base, nbits = _split_annotated(alphabet)
        if len(polys) != len(alphabet.letters):
            raise ValueError("layer must define polynomials for every letter")
        table: dict[str, tuple[tuple[SemiPoly, ...], ...]] = {}
        for letter in base.letters:
            rows = []
            for bits in itertools.product((0, 1), repeat=nbits):
                name = ann_name(letter.name, bits)
                if name not in polys:
                    raise ValueError(f"bad polynomial tuple for {name}")
                rows.append(tuple(polys[name]))
            table[letter.name] = tuple(rows)
        self._set(base, nbits, width, tuple(range(nbits)), table)

    @classmethod
    def symbolic(
        cls,
        base: RankedAlphabet,
        nbits: int,
        width: int,
        reads: tuple[int, ...],
        table: Mapping[str, tuple[tuple[SemiPoly, ...], ...]],
    ) -> "Layer":
        layer = cls.__new__(cls)
        layer._set(base, nbits, width, reads, table)
        return layer

    def _set(self, base, nbits, width, reads, table) -> None:
        if width < 1:
            raise ValueError("layer width must be >= 1")
        if any(not 0 <= read < nbits for read in reads):
            raise ValueError("layer reads a coordinate outside the earlier bits")
        if len(table) != len(base.letters):
            raise ValueError("layer must define polynomials for every letter")
        for letter in base.letters:
            rows = table.get(letter.name)
            if rows is None or len(rows) != 1 << len(reads):
                raise ValueError(f"bad polynomial table for {letter.name}")
            for entry in rows:
                if len(entry) != width:
                    raise ValueError(f"bad polynomial tuple for {letter.name}")
                for poly in entry:
                    if any(i >= width * letter.arity for i in poly.indices):
                        raise ValueError(f"polynomial input out of range for {letter.name}")
        for name, value in (
            ("base", base), ("nbits", nbits), ("width", width), ("reads", reads), ("table", table)
        ):
            object.__setattr__(self, name, value)

    @property
    def alphabet(self) -> RankedAlphabet:
        """The annotated input alphabet, base x 2^nbits (built on each access)."""
        return annotated_alphabet(self.base, self.nbits)


@dataclass(frozen=True)
class Cascade:
    base_alphabet: RankedAlphabet
    layers: tuple[Layer, ...]
    output: tuple[int, int]  # (layer index, coordinate)

    def __post_init__(self):
        nbits = 0
        for depth, layer in enumerate(self.layers):
            if layer.base != self.base_alphabet or layer.nbits != nbits:
                raise ValueError(f"layer {depth} alphabet does not chain")
            nbits += layer.width
        layer_index, coord = self.output
        if not 0 <= layer_index < len(self.layers):
            raise ValueError("output layer out of range")
        if not 0 <= coord < self.layers[layer_index].width:
            raise ValueError("output coordinate out of range")

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(layer.width for layer in self.layers)

    @property
    def total_width(self) -> int:
        return sum(self.widths)

    def output_flat(self) -> int:
        layer_index, coord = self.output
        return self.layers[layer_index].nbits + coord


def _cascade_step(
    cascade: Cascade, letter: str, child_bits: Sequence[tuple[int, ...]]
) -> tuple[int, ...]:
    """Bits of a node from its letter and its children's full bit vectors."""
    bits: list[int] = []
    for layer in cascade.layers:
        row = 0
        for read in layer.reads:
            row = 2 * row + bits[read]
        start = layer.nbits
        args = [bit for child in child_bits for bit in child[start : start + layer.width]]
        bits.extend(poly.eval(args) for poly in layer.table[letter][row])
    return tuple(bits)


def cascade_eval(cascade: Cascade, tree: Tree) -> tuple[int, ...]:
    """All layer bits at the root, concatenated in layer order."""
    nodes = preorder(tree)
    require_letters(nodes, cascade.base_alphabet, "letter {} not in the cascade alphabet")
    bits: list[tuple[int, ...]] = []  # a node's first child's bits on top
    for node in reversed(nodes):
        child_bits = [bits.pop() for _ in node.children]
        bits.append(_cascade_step(cascade, node.label.name, child_bits))
    return bits[0]


def cascade_accepts(cascade: Cascade, tree: Tree) -> bool:
    return cascade_eval(cascade, tree)[cascade.output_flat()] == 1


def cascade_flatten(cascade: Cascade, max_carrier: int = DEFAULT_CARRIER_CAP) -> Dbta:
    """One DBTA over the base alphabet whose value is the root bit vector.

    Only tree-reachable bit vectors are materialized (the reachable set is
    closed under the step function), so the carrier stays small; acceptance
    reads the designated output bit.
    """
    values, algebra = build(
        cascade.base_alphabet,
        functools.partial(_cascade_step, cascade),
        max_carrier,
        "cascade carrier",
        lambda value: "".join(map(str, value)),
    )
    flat = cascade.output_flat()
    return Dbta(algebra, frozenset(i for i, value in enumerate(values) if value[flat] == 1))


# --- CTL ------------------------------------------------------------------------


@dataclass(frozen=True)
class Lbl:
    name: str


@dataclass(frozen=True)
class Not:
    sub: "CtlFormula"


@dataclass(frozen=True)
class And:
    left: "CtlFormula"
    right: "CtlFormula"


@dataclass(frozen=True)
class Or:
    left: "CtlFormula"
    right: "CtlFormula"


@dataclass(frozen=True)
class Next:
    child: int  # 1-based
    sub: "CtlFormula"


@dataclass(frozen=True)
class EU:
    path: "CtlFormula"
    goal: "CtlFormula"


@dataclass(frozen=True)
class DirUntil:
    xs: frozenset[tuple[str, int]]
    ys: frozenset[str]


CtlFormula = Union[Lbl, Not, And, Or, Next, EU, DirUntil]


def ctl_render(formula: CtlFormula) -> str:
    if isinstance(formula, Lbl):
        return f"lbl({formula.name})"
    if isinstance(formula, Not):
        return f"!{ctl_render(formula.sub)}"
    if isinstance(formula, And):
        return f"({ctl_render(formula.left)} & {ctl_render(formula.right)})"
    if isinstance(formula, Or):
        return f"({ctl_render(formula.left)} | {ctl_render(formula.right)})"
    if isinstance(formula, Next):
        return f"X{formula.child} {ctl_render(formula.sub)}"
    if isinstance(formula, EU):
        return f"E[{ctl_render(formula.path)} U {ctl_render(formula.goal)}]"
    pairs = ", ".join(f"{n}.{i}" for n, i in sorted(formula.xs))
    names = ", ".join(sorted(formula.ys))
    return f"DU[{pairs} ; {names}]"


_CTL_TOKEN = re.compile(r"\s*(lbl|DU|E|U|X\d+|[A-Za-z0-9_@]+|\[|\]|[()!&|;,.])")


def ctl_parse(text: str, alphabet: RankedAlphabet) -> CtlFormula:
    """Grammar: atoms lbl(NAME); unary ! and X<digit>; & over |, both
    left-associative; E[ f U g ]; DU[ a.1, b.2 ; c, d ]."""
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        match = _CTL_TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        tokens.append((match.group(1), match.start(1)))
        pos = match.end()

    at = 0

    def peek() -> tuple[str, int] | None:
        return tokens[at] if at < len(tokens) else None

    def take(expected: str | None = None) -> tuple[str, int]:
        nonlocal at
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(text))
        if expected is not None and tok[0] != expected:
            raise ParseError(f"expected {expected!r}, got {tok[0]!r}", tok[1])
        at += 1
        return tok

    def parse_or() -> CtlFormula:
        left = parse_and()
        while peek() is not None and peek()[0] == "|":
            take()
            left = Or(left, parse_and())
        return left

    def parse_and() -> CtlFormula:
        left = parse_unary()
        while peek() is not None and peek()[0] == "&":
            take()
            left = And(left, parse_unary())
        return left

    def parse_unary() -> CtlFormula:
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of formula", len(text))
        if tok[0] == "!":
            take()
            return Not(parse_unary())
        if re.fullmatch(r"X\d+", tok[0]):
            take()
            child = int(tok[0][1:])
            if child < 1:
                raise ParseError("child index must be >= 1", tok[1])
            return Next(child, parse_unary())
        return parse_atom()

    def parse_name() -> str:
        tok = take()
        if not re.fullmatch(r"[A-Za-z0-9_@]+", tok[0]):
            raise ParseError(f"expected a letter name, got {tok[0]!r}", tok[1])
        if alphabet.get(tok[0]) is None:
            raise ParseError(f"unknown letter {tok[0]!r}", tok[1])
        return tok[0]

    def parse_atom() -> CtlFormula:
        tok = take()
        if tok[0] == "(":
            inner = parse_or()
            take(")")
            return inner
        if tok[0] == "lbl":
            take("(")
            name = parse_name()
            take(")")
            return Lbl(name)
        if tok[0] == "E":
            take("[")
            path = parse_or()
            take("U")
            goal = parse_or()
            take("]")
            return EU(path, goal)
        if tok[0] == "DU":
            take("[")
            xs: set[tuple[str, int]] = set()
            while peek() is not None and peek()[0] != ";":
                name = parse_name()
                take(".")
                num = take()
                if not num[0].isdigit():
                    raise ParseError(f"expected a child index, got {num[0]!r}", num[1])
                child = int(num[0])
                letter = alphabet[name]
                if not 1 <= child <= letter.arity:
                    raise ParseError(f"{name} has no child {child}", num[1])
                xs.add((name, child))
                if peek() is not None and peek()[0] == ",":
                    take()
            take(";")
            ys: set[str] = set()
            while peek() is not None and peek()[0] != "]":
                ys.add(parse_name())
                if peek() is not None and peek()[0] == ",":
                    take()
            take("]")
            return DirUntil(frozenset(xs), frozenset(ys))
        raise ParseError(f"unexpected token {tok[0]!r}", tok[1])

    formula = parse_or()
    if at != len(tokens):
        raise ParseError(f"trailing input {tokens[at][0]!r}", tokens[at][1])
    return formula


def ctl_label(
    formula: CtlFormula, nodes: Sequence[Tree], kids: Sequence[tuple[int, ...]]
) -> list[bool]:
    """Whether ``formula`` holds at the subtree of each of ``nodes``, a
    children-first list whose children sit at the positions ``kids`` (see
    ``trees.child_positions``), in the same order.

    Bottom-up labelling (Clarke, Emerson and Sistla 1986): one pass over the
    list per distinct subformula, each node's label read off its own and its
    children's labels of the subformulas below, so the trees' depth is
    unbounded and a subtree shared by many entries is labelled once.  EU
    holds at v iff goal holds at v or at a child c with r(c), where r(c) =
    goal(c), or path(c) and r at some child of c.  DU holds at v iff the
    label of v is in ys, or some child i has (label, i) in xs and DU holds
    at it.
    """
    names = [node.label.name for node in nodes]
    memo: dict[CtlFormula, list[bool]] = {}

    def label(formula: CtlFormula) -> list[bool]:
        out = memo.get(formula)
        if out is not None:
            return out
        if isinstance(formula, Lbl):
            out = [name == formula.name for name in names]
        elif isinstance(formula, Not):
            out = [not holds for holds in label(formula.sub)]
        elif isinstance(formula, And):
            out = [a and b for a, b in zip(label(formula.left), label(formula.right))]
        elif isinstance(formula, Or):
            out = [a or b for a, b in zip(label(formula.left), label(formula.right))]
        elif isinstance(formula, Next):
            sub, at = label(formula.sub), formula.child - 1
            out = [len(children) > at and sub[children[at]] for children in kids]
        elif isinstance(formula, EU):
            rooted: list[bool] = []  # r: a witness below, the node itself constrained
            out = []
            for goal, path, children in zip(label(formula.goal), label(formula.path), kids):
                if goal:
                    rooted.append(True)
                    out.append(True)
                    continue
                for child in children:
                    if rooted[child]:
                        rooted.append(path)
                        out.append(True)
                        break
                else:
                    rooted.append(False)
                    out.append(False)
        elif isinstance(formula, DirUntil):
            steps: dict[str, list[int]] = {}  # the 0-based children each letter may step to
            for name, child in formula.xs:
                steps.setdefault(name, []).append(child - 1)
            out = []
            for name, children in zip(names, kids):
                if name in formula.ys:
                    out.append(True)
                    continue
                for index in steps.get(name, ()):
                    if index < len(children) and out[children[index]]:
                        out.append(True)
                        break
                else:
                    out.append(False)
        else:
            raise TypeError(f"not a CTL formula: {formula!r}")
        memo[formula] = out
        return out

    return label(formula)


def ctl_eval(formula: CtlFormula, tree: Tree) -> bool:
    """Whether ``formula`` holds at the root of ``tree``, by ``ctl_label``
    over the tree's reversed preorder (``trees.children_first``).

    The semantics, by witness nodes: EU holds iff some node w satisfies the
    goal and every node strictly between the root and w satisfies the path,
    so the range excludes both the root and the witness; DU holds iff some
    node w has its label in ys and every proper ancestor of w, root included,
    has (its label, the direction towards w) in xs.
    """
    return ctl_label(formula, *children_first(tree))[-1]


def _check_formula(formula: CtlFormula, alphabet: RankedAlphabet) -> None:
    if isinstance(formula, Lbl):
        if alphabet.get(formula.name) is None:
            raise ValueError(f"unknown letter {formula.name!r}")
    elif isinstance(formula, Not):
        _check_formula(formula.sub, alphabet)
    elif isinstance(formula, (And, Or)):
        _check_formula(formula.left, alphabet)
        _check_formula(formula.right, alphabet)
    elif isinstance(formula, Next):
        if formula.child < 1:
            raise ValueError("child index must be >= 1")
        _check_formula(formula.sub, alphabet)
    elif isinstance(formula, EU):
        _check_formula(formula.path, alphabet)
        _check_formula(formula.goal, alphabet)
    elif isinstance(formula, DirUntil):
        UntilSpec(alphabet, formula.xs, formula.ys)  # validates
    else:
        raise TypeError(f"not a CTL formula: {formula!r}")


@dataclass(frozen=True)
class _Ref:
    layer: int
    coord: int
    neg: bool = False


class _Compiler:
    def __init__(self, alphabet: RankedAlphabet, max_width: int):
        self.base = alphabet
        self.max_width = max_width
        self.layers: list[Layer] = []
        self.memo: dict[CtlFormula, _Ref] = {}

    @property
    def total_width(self) -> int:
        return self.layers[-1].nbits + self.layers[-1].width if self.layers else 0

    def add_layer(self, width: int, refs: Sequence[_Ref], poly_fn) -> int:
        """Append a layer whose polynomials depend on the letter and on the
        values of ``refs`` at the node: ``poly_fn(letter, *values)`` returns the
        width-tuple for each of the 2^len(refs) rows, polarity applied."""
        nbits = self.total_width
        if nbits + width > self.max_width:
            raise CapExceededError(f"cascade width {nbits + width} exceeds {self.max_width}")
        reads = tuple(self.layers[ref.layer].nbits + ref.coord for ref in refs)
        rows = [
            tuple(bool(bit) != ref.neg for bit, ref in zip(row, refs))
            for row in itertools.product((0, 1), repeat=len(refs))
        ]
        table = {
            letter.name: tuple(tuple(poly_fn(letter, *values)) for values in rows)
            for letter in self.base.letters
        }
        self.layers.append(Layer.symbolic(self.base, nbits, width, reads, table))
        return len(self.layers) - 1

    def compile(self, formula: CtlFormula) -> _Ref:
        cached = self.memo.get(formula)
        if cached is not None:
            return cached
        ref = self._compile(formula)
        self.memo[formula] = ref
        return ref

    def _compile(self, formula: CtlFormula) -> _Ref:
        if isinstance(formula, Lbl):
            layer = self.add_layer(
                1, (), lambda letter: (SemiPoly.const(letter.name == formula.name),)
            )
            return _Ref(layer, 0)
        if isinstance(formula, Not):
            ref = self.compile(formula.sub)
            return _Ref(ref.layer, ref.coord, not ref.neg)
        if isinstance(formula, (And, Or)):
            left = self.compile(formula.left)
            right = self.compile(formula.right)
            conj = isinstance(formula, And)

            def bool_fn(letter, a, b):
                return (SemiPoly.const(a and b if conj else a or b),)

            return _Ref(self.add_layer(1, (left, right), bool_fn), 0)
        if isinstance(formula, DirUntil):
            xs, ys = formula.xs, formula.ys

            def until_fn(letter):
                if letter.name in ys:
                    return (SemiPoly.const(0),)
                selected = frozenset(i - 1 for name, i in xs if name == letter.name)
                return (SemiPoly(False, selected),)

            # the layer bit is the complement (no-witness) recursion
            return _Ref(self.add_layer(1, (), until_fn), 0, neg=True)
        if isinstance(formula, EU):
            path = self.compile(formula.path)
            goal = self.compile(formula.goal)

            def eu_fn(letter, goal_holds, path_holds):
                # coord 0: no witness when the root of the subtree is also
                # constrained; coord 1: conjunction of the children's coord 0
                every_child = frozenset(2 * j for j in range(letter.arity))
                if goal_holds:
                    s = SemiPoly.const(0)
                elif not path_holds:
                    s = SemiPoly.const(1)
                else:
                    s = SemiPoly(False, every_child)
                return (s, SemiPoly(False, every_child))

            pair = self.add_layer(2, (goal, path), eu_fn)
            children_clear = _Ref(pair, 1)

            def eu_read(letter, goal_holds, clear):
                return (SemiPoly.const(goal_holds or not clear),)

            return _Ref(self.add_layer(1, (goal, children_clear), eu_read), 0)
        if isinstance(formula, Next):
            sub = self.compile(formula.sub)
            child = formula.child

            def next_fn(letter, sub_holds):
                own = SemiPoly.const(sub_holds)
                if letter.arity >= child:
                    proj = SemiPoly(False, frozenset({2 * (child - 1)}))
                else:
                    proj = SemiPoly.const(0)
                return (own, proj)

            return _Ref(self.add_layer(2, (sub,), next_fn), 1)
        raise TypeError(f"not a CTL formula: {formula!r}")


def ctl_compile(
    formula: CtlFormula,
    alphabet: RankedAlphabet,
    max_width: int = DEFAULT_WIDTH_CAP,
) -> Cascade:
    """Compile to a cascade, one or two layers per subformula.

    Letter tests and Boolean connectives become width-1 constant layers (or a
    polarity flip, for negation); a direction-sensitive until becomes one
    width-1 semilattice layer.  EU and Next need one width-2 layer each: a
    coordinate projecting information out of the children, which a width-1
    layer cannot see.  Shared subformulas compile once.  Every layer reads at
    most two earlier coordinates, so compiling is linear in the formula.
    """
    _check_formula(formula, alphabet)
    compiler = _Compiler(alphabet, max_width)
    ref = compiler.compile(formula)
    if ref.neg:
        positive = compiler.add_layer(
            1, (ref,), lambda letter, holds: (SemiPoly.const(holds),)
        )
        ref = _Ref(positive, 0)
    return Cascade(alphabet, tuple(compiler.layers), (ref.layer, ref.coord))


# --- random formulas ------------------------------------------------------------


def random_formula(rng: random.Random, alphabet: RankedAlphabet, depth: int) -> CtlFormula:
    """A random formula of the CTL grammar with nesting depth <= depth."""
    names = [letter.name for letter in alphabet.letters]
    max_arity = max(letter.arity for letter in alphabet.letters)

    def random_lbl() -> CtlFormula:
        return Lbl(rng.choice(names))

    def random_du() -> CtlFormula:
        pairs = [
            (letter.name, i)
            for letter in alphabet.letters
            for i in range(1, letter.arity + 1)
        ]
        xs = frozenset(p for p in pairs if rng.random() < 0.5)
        ys = frozenset(n for n in names if rng.random() < 0.4)
        return DirUntil(xs, ys)

    def go(budget: int) -> CtlFormula:
        if budget == 0:
            return random_du() if rng.random() < 0.3 else random_lbl()
        kinds = ["lbl", "lbl", "du", "not", "and", "or", "eu"]
        if max_arity >= 1:
            kinds.append("next")
        kind = rng.choice(kinds)
        if kind == "lbl":
            return random_lbl()
        if kind == "du":
            return random_du()
        if kind == "not":
            return Not(go(budget - 1))
        if kind == "and":
            return And(go(budget - 1), go(budget - 1))
        if kind == "or":
            return Or(go(budget - 1), go(budget - 1))
        if kind == "eu":
            return EU(go(budget - 1), go(budget - 1))
        return Next(rng.randint(1, max_arity), go(budget - 1))

    return go(depth)


def random_formula_corpus(
    seed: int,
    alphabet: RankedAlphabet,
    count: int,
    max_depth: int = 3,
    max_width: int = DEFAULT_WIDTH_CAP,
) -> list[tuple[CtlFormula, Cascade]]:
    """Deterministic corpus of formulas that compile within the width cap,
    each with its cascade, ``ctl_compile(formula, alphabet, max_width)``.

    Draws are skipped (not an error) when a formula would exceed the cap, so
    the corpus depends only on the seed.  A cap below 1 admits no formula and
    raises ``ValueError``.
    """
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    rng = random.Random(seed)
    corpus: list[tuple[CtlFormula, Cascade]] = []
    while len(corpus) < count:
        formula = random_formula(rng, alphabet, rng.randint(0, max_depth))
        try:
            corpus.append((formula, ctl_compile(formula, alphabet, max_width)))
        except CapExceededError:
            continue
    return corpus
