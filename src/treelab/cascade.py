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
``bits`` selects.

A CTL formula names a letter by a whole word of the letter-name characters
(``trees._NAME_CHARS``) less ``.`` and ``|``, which its grammar spells; lbl,
DU, E, U and X<k> are keywords only as whole words, so ``Ea`` is a name.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

from .automata import DEFAULT_CARRIER_CAP, Dbta, FiniteAlgebra, build, corpus_values, tabulate
from .errors import AlphabetMismatchError, CapExceededError, ParseError
from .trees import _NAME_CHARS, Letter, RankedAlphabet, Tree, children_first, require_letters, tree_at

DEFAULT_WIDTH_CAP = 16


# --- annotated alphabets ------------------------------------------------------


def ann_name(base: str, bits: tuple[int, ...]) -> str:
    if not bits:
        return base
    return f"{base}|{''.join(str(b) for b in bits)}"


def _labelled(base: RankedAlphabet, labels: Sequence[tuple[int, ...]]) -> RankedAlphabet:
    """base x labels, letter-major: ``ann_name(name, label)``, arity inherited."""
    pairs = [(ann_name(x.name, label), x.arity) for x in base.letters for label in labels]
    return RankedAlphabet.of(*pairs)


def annotated_alphabet(base: RankedAlphabet, nbits: int) -> RankedAlphabet:
    """base x 2^nbits, letter-major then bits in binary order; arity inherited."""
    return _labelled(base, list(itertools.product((0, 1), repeat=nbits)))


def annotate(tree: Tree, langs: list[Dbta] | tuple[Dbta, ...]) -> Tree:
    """Extend each node's label with the membership bits of its own subtree.

    The node list (see ``trees.children_first``) is folded once per language,
    and each distinct (letter, values) renamed once.  A letter that some
    language does not read raises AlphabetMismatchError for the first such
    language and the first such letter in preorder."""
    if not langs:
        return tree
    letters, kids = children_first(tree)
    message = "annotation languages must read the tree's alphabet"
    for lang in langs:
        require_letters(letters[::-1], lang.alphabet, message)
    keys = list(zip(letters, zip(*[corpus_values(lang.algebra, letters, kids) for lang in langs])))
    labels = {}
    for letter, values in set(keys):
        bits = tuple(int(v in lang.accepting) for v, lang in zip(values, langs))
        labels[letter, values] = Letter(ann_name(letter.name, bits), letter.arity)
    return tree_at([labels[key] for key in keys], kids, len(keys) - 1)


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

    accept = lambda value: value[-1] in top.accepting
    return build(base, step, max_carrier, "nesting carrier", accept)[1]


# --- wreath product as sequential composition ---------------------------------


def value_annotated_alphabet(base: RankedAlphabet, size: int) -> RankedAlphabet:
    """base x carrier, letters named name|value."""
    return _labelled(base, [(value,) for value in range(size)])


def sequential_compose(h: FiniteAlgebra, g: FiniteAlgebra) -> FiniteAlgebra:
    """The homomorphism t -> (g(t^h), h(t)), carried by the wreath product.

    ``h`` reads the base alphabet; ``g`` reads the base annotated with h's
    values.  The result reads the base alphabet with carrier A x B encoded as
    a * |B| + b.
    """
    base = h.alphabet
    if g.alphabet != value_annotated_alphabet(base, h.size):
        raise AlphabetMismatchError("outer algebra must read the value-annotated alphabet")

    def step(name: str, args: tuple[int, ...]) -> int:
        b_value = h.op(name, [arg % h.size for arg in args])
        a_value = g.op(ann_name(name, (b_value,)), [arg // h.size for arg in args])
        return a_value * h.size + b_value

    size = g.size * h.size
    return FiniteAlgebra(base, size, tabulate(base, range(size), step))


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
class DirUntil:
    """X until Y: some node has label in Y and every proper ancestor w with the
    witness in its i-th subtree satisfies (label(w), i) in X."""

    xs: frozenset[tuple[str, int]]
    ys: frozenset[str]


def _check_until(alphabet: RankedAlphabet, until: DirUntil) -> None:
    """Raise ValueError unless every pair of xs names a letter of the
    alphabet and one of its children, and every letter of ys is in it."""
    for name, child in until.xs:
        letter = alphabet.get(name)
        if letter is None or not 1 <= child <= letter.arity:
            raise ValueError(f"pair ({name},{child}) does not respect the alphabet")
    for name in until.ys:
        if alphabet.get(name) is None:
            raise ValueError(f"letter {name} not in the alphabet")


def _until_poly(xs: frozenset[tuple[str, int]], ys: frozenset[str], letter: Letter) -> SemiPoly:
    """The no-witness bit of xs until ys at a node: 0 on ys, else the
    conjunction of the children that xs lets the letter step to."""
    if letter.name in ys:
        return SemiPoly.const(0)
    return SemiPoly(False, frozenset(i - 1 for name, i in xs if name == letter.name))


def until_language(alphabet: RankedAlphabet, until: DirUntil) -> tuple[Dbta, dict[str, SemiPoly]]:
    """The until language over ``alphabet``, plus the per-letter semilattice
    polynomials that recognize its complement.  A pair or letter outside the
    alphabet raises ValueError.

    The complement bit h satisfies: h = 0 on Y-letters, otherwise the
    conjunction of h over the children selected by X (empty conjunction = 1).
    """
    _check_until(alphabet, until)
    polys = {letter.name: _until_poly(until.xs, until.ys, letter) for letter in alphabet.letters}
    tables = tabulate(alphabet, (0, 1), lambda name, args: polys[name].eval(args))
    return Dbta(FiniteAlgebra(alphabet, 2, tables), frozenset({0})), polys


# --- cascades -----------------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One annotation layer, stored symbolically.

    The layer follows ``nbits`` earlier bits of a cascade over ``base``.  For
    a base letter ``name``, ``table[name][row]`` is the width-tuple of
    semilattice polynomials the layer applies, where ``row`` spells in binary
    the node's own values of the earlier flat coordinates in ``reads`` (first
    read most significant), so each entry has 2^len(reads) rows.
    """

    base: RankedAlphabet
    nbits: int
    width: int
    reads: tuple[int, ...]
    table: Mapping[str, tuple[tuple[SemiPoly, ...], ...]]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be >= 1")
        if any(not 0 <= read < self.nbits for read in self.reads):
            raise ValueError("layer reads a coordinate outside the earlier bits")
        if len(self.table) != len(self.base.letters):
            raise ValueError("layer must define polynomials for every letter")
        for letter in self.base.letters:
            rows = self.table.get(letter.name)
            if rows is None or len(rows) != 1 << len(self.reads):
                raise ValueError(f"bad polynomial table for {letter.name}")
            for entry in rows:
                if len(entry) != self.width:
                    raise ValueError(f"bad polynomial tuple for {letter.name}")
                for poly in entry:
                    if any(not 0 <= i < self.width * letter.arity for i in poly.indices):
                        raise ValueError(f"polynomial input out of range for {letter.name}")

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
    def total_width(self) -> int:
        return sum(layer.width for layer in self.layers)

    def output_flat(self) -> int:
        layer_index, coord = self.output
        return self.layers[layer_index].nbits + coord


_READS_ZERO = lambda flat: (0,)  # a zero polynomial's getter: its bit is 0 whatever it reads


def _conjunction(poly: SemiPoly, width: int, stride: int, start: int) -> Callable[[tuple], tuple]:
    """The getter of the bits that ``poly`` ANDs in the children's
    concatenated bit vectors, each ``stride`` long, for a layer of
    ``width`` at flat coordinate ``start``: input i is child i // width,
    coordinate i % width, at position (i // width) * stride + start + i % width.
    The bit is 1 iff no bit read is 0 (``0 not in getter(flat)``), so a zero
    polynomial reads a lone 0 and an empty conjunction reads nothing."""
    if poly.zero:
        return _READS_ZERO
    positions = sorted((i // width) * stride + start + i % width for i in poly.indices)
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    # a slice, so that one position or none also reads a tuple
    at = positions[0] if positions else 0
    return operator.itemgetter(slice(at, at + len(positions)))


def _cascade_steps(cascade: Cascade) -> Callable[[str, tuple], tuple[int, ...]]:
    """The step of ``cascade_flatten``: the bits of a node from its letter and
    its children's full bit vectors, concatenated as ``flat``.

    Each letter's program is compiled once.  Per layer it holds the layer's
    ``reads`` and one entry per row: a row of constant polynomials (zero, or
    the empty conjunction) is its tuple of bits, and any other row is one
    ``_conjunction`` getter per coordinate, which reads fixed positions of
    ``flat``.  A step picks each layer's row by the node's own earlier bits,
    first read most significant, as the layer's table does."""
    stride = cascade.total_width
    programs = {}
    for letter in cascade.base_alphabet.letters:
        program = []
        for layer in cascade.layers:
            rows: list[tuple[int, ...] | list] = []
            for entry in layer.table[letter.name]:
                if any(poly.indices for poly in entry):
                    rows.append([_conjunction(p, layer.width, stride, layer.nbits) for p in entry])
                else:
                    rows.append(tuple([0 if poly.zero else 1 for poly in entry]))
            program.append((layer.reads, rows))
        programs[letter.name] = program

    def step(name: str, args: tuple) -> tuple[int, ...]:
        flat = sum(args, ())
        bits: list[int] = []
        for reads, rows in programs[name]:
            row = 0
            for read in reads:
                row = 2 * row + bits[read]
            entry = rows[row]
            if entry.__class__ is tuple:
                bits += entry
            else:
                for conjunction in entry:
                    bits.append(1 - (0 in conjunction(flat)))
        return tuple(bits)

    return step


def cascade_flatten(cascade: Cascade, max_carrier: int = DEFAULT_CARRIER_CAP) -> Dbta:
    """One DBTA over the base alphabet whose value is the root bit vector.

    Only tree-reachable bit vectors are materialized (the reachable set is
    closed under the step function), so the carrier stays small; acceptance
    reads the designated output bit.  The step is compiled once per call by
    ``_cascade_steps``: each polynomial becomes the fixed positions it ANDs
    in the children's concatenated bit vectors, and each reached argument
    tuple is stepped once.
    """
    flat = cascade.output_flat()
    return build(
        cascade.base_alphabet,
        _cascade_steps(cascade),
        max_carrier,
        "cascade carrier",
        lambda value: value[flat] == 1,
        lambda value: "".join(map(str, value)),
    )[1]


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


CtlFormula = Union[Lbl, Not, And, Or, Next, EU, DirUntil]


# the fields of each kind of formula that hold its subformulas, in order
_SUBFORMULAS = {
    Lbl: (), Not: ("sub",), And: ("left", "right"), Or: ("left", "right"),
    Next: ("sub",), EU: ("path", "goal"), DirUntil: (),
}


def _subformulas(formula: CtlFormula) -> tuple[list[CtlFormula], list[tuple[int, ...]]]:
    """The distinct subformulas of ``formula``, each after its children in
    the order a left-to-right recursive walk finishes them (``formula``
    last), and the positions of each one's children.  Found on an explicit
    stack and told apart by their own data and their children's positions,
    so neither depth nor the dataclass ``==`` and ``hash``, which recurse,
    come in."""
    out: list[CtlFormula] = []
    kids: list[tuple[int, ...]] = []
    position: dict[int, int] = {}  # id(subformula) -> its position in out
    by_key: dict[tuple, int] = {}
    pending: list[tuple[CtlFormula, bool]] = [(formula, False)]  # (subformula, children done)
    while pending:
        sub, done = pending.pop()
        if id(sub) in position:
            continue
        names = _SUBFORMULAS.get(sub.__class__)
        if names is None:
            raise TypeError(f"not a CTL formula: {sub!r}")
        if names and not done:
            pending.append((sub, True))
            pending += [(getattr(sub, name), False) for name in reversed(names)]
            continue
        at = tuple([position[id(getattr(sub, name))] for name in names])
        # a leaf is its own key; the only other data of a formula is a Next's child
        key = (sub.__class__, at, getattr(sub, "child", None) if at else sub)
        position[id(sub)] = by_key.setdefault(key, len(out))
        if by_key[key] == len(out):
            out.append(sub)
            kids.append(at)
    return out, kids


_FORMATS = {
    Lbl: "lbl({0.name})", Not: "!{1}", And: "({1} & {2})", Or: "({1} | {2})",
    Next: "X{0.child} {1}", EU: "E[{1} U {2}]",
}


def ctl_render(formula: CtlFormula) -> str:
    subs, kids = _subformulas(formula)
    texts: list[str] = []
    for sub, at in zip(subs, kids):
        if isinstance(sub, DirUntil):
            pairs = ", ".join(f"{n}.{i}" for n, i in sorted(sub.xs))
            texts.append(f"DU[{pairs} ; {', '.join(sorted(sub.ys))}]")
        else:
            texts.append(_FORMATS[sub.__class__].format(sub, *[texts[k] for k in at]))
    return texts[-1]


_CTL_NAME = re.compile("[" + _NAME_CHARS.replace(".", "").replace("|", "") + "]+")
# a token, or in group 2 a character that starts none
_CTL_TOKEN = re.compile(rf"\s*(?:({_CTL_NAME.pattern}|\[|\]|[()!&|;,.])|(\S))")
_CTL_NEXT = re.compile(r"X\d+")


def ctl_parse(text: str, alphabet: RankedAlphabet) -> CtlFormula:
    """Grammar: atoms lbl(NAME); unary ! and X<k>, k >= 1; & over |, both
    left-associative; E[ f U g ]; DU[ a.1, b.2 ; c, d ].

    A NAME or keyword is a whole word of the name characters less ``.`` and
    ``|`` (see the module docstring): ``lbl(Ea)`` names ``Ea``, and a glued
    ``X1lbl(a)`` is the one word ``X1lbl``, which is refused."""
    tokens: list[tuple[str, int]] = []
    for match in _CTL_TOKEN.finditer(text):  # each match starts where the last one ended
        if match.group(2) is not None:
            raise ParseError(f"unexpected character {match.group(2)!r}", match.start())
        tokens.append((match.group(1), match.start(1)))

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

    def parse_name() -> str:
        tok = take()
        if not _CTL_NAME.fullmatch(tok[0]):
            raise ParseError(f"expected a letter name, got {tok[0]!r}", tok[1])
        if alphabet.get(tok[0]) is None:
            raise ParseError(f"unknown letter {tok[0]!r}", tok[1])
        return tok[0]

    def parse_du() -> CtlFormula:
        take("[")
        xs: set[tuple[str, int]] = set()
        while peek() is not None and peek()[0] != ";":
            name = parse_name()
            take(".")
            num = take()
            if not num[0].isdigit():
                raise ParseError(f"expected a child index, got {num[0]!r}", num[1])
            child = int(num[0])
            if not 1 <= child <= alphabet[name].arity:
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

    # Operator precedence on one explicit stack of what waits for the operand
    # in hand: ! and X<n> (level 3), "a &" (2), "a |" (1), and at level 0 an
    # open context with its closing token (None at the end of the input) and
    # what it makes of the operand (E[a U _] once U is read).
    pending: list[tuple[int, object]] = [(0, (None, None))]
    while True:
        tok = take()
        if tok[0] == "!":
            pending.append((3, Not))
        elif _CTL_NEXT.fullmatch(tok[0]):
            if int(tok[0][1:]) < 1:
                raise ParseError("child index must be >= 1", tok[1])
            pending.append((3, functools.partial(Next, int(tok[0][1:]))))
        elif tok[0] == "(":
            pending.append((0, (")", None)))
        elif tok[0] == "E":
            take("[")
            pending.append((0, ("U", None)))
        else:
            if tok[0] == "lbl":
                take("(")
                value = Lbl(parse_name())
                take(")")
            elif tok[0] == "DU":
                value = parse_du()
            else:
                raise ParseError(f"unexpected token {tok[0]!r}", tok[1])
            while True:  # the operand ends: apply what binds tighter than the next token
                op = peek()[0] if peek() is not None else None
                level = 2 if op == "&" else 1
                while pending[-1][0] >= level:
                    value = pending.pop()[1](value)
                if op in ("&", "|"):
                    take()
                    pending.append((level, functools.partial(And if level == 2 else Or, value)))
                    break
                closer, make = pending.pop()[1]
                if closer is None:
                    if at != len(tokens):
                        raise ParseError(f"trailing input {tokens[at][0]!r}", tokens[at][1])
                    return value
                take(closer)
                if closer == "U":
                    pending.append((0, ("]", functools.partial(EU, value))))
                    break
                if make is not None:
                    value = make(value)


def ctl_label(
    formula: CtlFormula, letters: Sequence[Letter], kids: Sequence[tuple[int, ...]]
) -> list[bool]:
    """Whether ``formula`` holds at the subtree of each entry of a node list
    (see ``trees.children_first`` and ``trees.tree_corpus``), in its order.

    Bottom-up labelling (Clarke, Emerson and Sistla 1986): one pass over the
    list per distinct subformula, each node's label read off its own and its
    children's labels of the subformulas below, so the trees' depth is
    unbounded and a subtree shared by many entries is labelled once.  EU
    holds at v iff goal holds at v or at a child c with r(c), where r(c) =
    goal(c), or path(c) and r at some child of c.  DU holds at v iff the
    label of v is in ys, or some child i has (label, i) in xs and DU holds
    at it.
    """
    subs, args = _subformulas(formula)
    last = {k: j for j, at in enumerate(args) for k in at}  # position -> its last reader
    labels: list[list[bool] | None] = []  # per subformula; None once its last reader is done
    for j, (sub, at) in enumerate(zip(subs, args)):
        below = [labels[k] for k in at]
        if isinstance(sub, Lbl):
            out = [letter.name == sub.name for letter in letters]
        elif isinstance(sub, Not):
            out = [not holds for holds in below[0]]
        elif isinstance(sub, And):
            out = [a and b for a, b in zip(*below)]
        elif isinstance(sub, Or):
            out = [a or b for a, b in zip(*below)]
        elif isinstance(sub, Next):
            index = sub.child - 1
            out = [len(children) > index and below[0][children[index]] for children in kids]
        elif isinstance(sub, EU):
            rooted: list[bool] = []  # r: a witness below, the node itself constrained
            out = []
            for goal, path, children in zip(below[1], below[0], kids):
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
        else:
            steps: dict[str, list[int]] = {}  # the 0-based children each letter may step to
            for name, child in sub.xs:
                steps.setdefault(name, []).append(child - 1)
            out = []
            for letter, children in zip(letters, kids):
                name = letter.name
                if name in sub.ys:
                    out.append(True)
                    continue
                for index in steps.get(name, ()):
                    if index < len(children) and out[children[index]]:
                        out.append(True)
                        break
                else:
                    out.append(False)
        labels.append(out)
        for k in at:
            if last[k] == j:
                labels[k] = None
    return labels[-1]


def ctl_eval(formula: CtlFormula, tree: Tree | list[Letter]) -> bool:
    """Whether ``formula`` holds at the root of a tree or its preorder word,
    by ``ctl_label`` over its node list (``trees.children_first``).

    The semantics, by witness nodes: EU holds iff some node w satisfies the
    goal and every node strictly between the root and w satisfies the path,
    so the range excludes both the root and the witness; DU holds iff some
    node w has its label in ys and every proper ancestor of w, root included,
    has (its label, the direction towards w) in xs.
    """
    return ctl_label(formula, *children_first(tree))[-1]


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

    def add_layer(self, width: int, refs: Sequence[_Ref], poly_fn) -> int:
        """Append a layer whose polynomials depend on the letter and on the
        values of ``refs`` at the node: ``poly_fn(letter, *values)`` returns
        the width-tuple for each of the 2^len(refs) rows, polarity applied."""
        last = self.layers[-1] if self.layers else None
        nbits = last.nbits + last.width if last else 0
        if nbits + width > self.max_width:
            message = f"cascade width {nbits + width} exceeds {self.max_width}"
            raise CapExceededError(message, "cascade width", nbits + width, self.max_width)
        reads = tuple(self.layers[ref.layer].nbits + ref.coord for ref in refs)
        rows = [
            tuple(bool(bit) != ref.neg for bit, ref in zip(row, refs))
            for row in itertools.product((0, 1), repeat=len(refs))
        ]
        table = {
            letter.name: tuple(tuple(poly_fn(letter, *values)) for values in rows)
            for letter in self.base.letters
        }
        self.layers.append(Layer(self.base, nbits, width, reads, table))
        return len(self.layers) - 1


def _eu_polys(letter: Letter, goal_holds: bool, path_holds: bool) -> tuple[SemiPoly, SemiPoly]:
    """Coord 0: no witness when the root of the subtree is also constrained;
    coord 1: the conjunction of the children's coord 0."""
    every_child = SemiPoly(False, frozenset(2 * j for j in range(letter.arity)))
    own = every_child if path_holds and not goal_holds else SemiPoly.const(not goal_holds)
    return (own, every_child)


def _next_polys(child: int, letter: Letter, sub_holds: bool) -> tuple[SemiPoly, SemiPoly]:
    """Coord 0: the subformula at the node; coord 1: coord 0 of its child-th child."""
    if letter.arity < child:
        return (SemiPoly.const(sub_holds), SemiPoly.const(0))
    return (SemiPoly.const(sub_holds), SemiPoly(False, frozenset({2 * (child - 1)})))


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
    layer cannot see.  Shared subformulas compile once, after their children
    (see ``_subformulas``).  Every layer reads at most two earlier
    coordinates, so compiling is linear in the formula.
    """
    subs, kids = _subformulas(formula)
    errors: list[ValueError | None] = []  # per subformula, the first in preorder at or below
    for sub, at in zip(subs, kids):
        error = None
        if isinstance(sub, Lbl) and alphabet.get(sub.name) is None:
            error = ValueError(f"unknown letter {sub.name!r}")
        elif isinstance(sub, Next) and sub.child < 1:
            error = ValueError("child index must be >= 1")
        elif isinstance(sub, DirUntil):
            try:
                _check_until(alphabet, sub)
            except ValueError as invalid:
                error = invalid
        for k in at:
            error = error or errors[k]
        errors.append(error)
    if errors[-1] is not None:
        raise errors[-1]
    compiler = _Compiler(alphabet, max_width)
    add_layer = compiler.add_layer
    refs: list[_Ref] = []  # per subformula, where its bit is
    for sub, at in zip(subs, kids):
        args = [refs[k] for k in at]
        if isinstance(sub, Lbl):
            ref = _Ref(add_layer(1, (), lambda x: (SemiPoly.const(x.name == sub.name),)), 0)
        elif isinstance(sub, Not):
            ref = _Ref(args[0].layer, args[0].coord, not args[0].neg)
        elif isinstance(sub, (And, Or)):
            op = operator.and_ if isinstance(sub, And) else operator.or_
            ref = _Ref(add_layer(1, args, lambda x, a, b: (SemiPoly.const(op(a, b)),)), 0)
        elif isinstance(sub, DirUntil):
            # the layer bit is the complement (no-witness) recursion
            ref = _Ref(add_layer(1, (), lambda x: (_until_poly(sub.xs, sub.ys, x),)), 0, neg=True)
        elif isinstance(sub, EU):
            clear = _Ref(add_layer(2, args[::-1], _eu_polys), 1)  # reads goal, then path
            ref = _Ref(add_layer(
                1, (args[1], clear), lambda x, goal, clear: (SemiPoly.const(goal or not clear),)
            ), 0)
        else:
            ref = _Ref(add_layer(2, args, functools.partial(_next_polys, sub.child)), 1)
        refs.append(ref)
    ref = refs[-1]
    if ref.neg:
        ref = _Ref(add_layer(1, (ref,), lambda x, holds: (SemiPoly.const(holds),)), 0)
    return Cascade(alphabet, tuple(compiler.layers), (ref.layer, ref.coord))


# --- random formulas ------------------------------------------------------------


def random_formula(rng: random.Random, alphabet: RankedAlphabet, depth: int) -> CtlFormula:
    """A random formula of the CTL grammar with nesting depth <= depth."""
    names = [letter.name for letter in alphabet.letters]
    max_arity = max(letter.arity for letter in alphabet.letters)

    pairs = [(letter.name, i) for letter in alphabet.letters for i in range(1, letter.arity + 1)]

    def random_du() -> CtlFormula:
        xs = frozenset(p for p in pairs if rng.random() < 0.5)
        return DirUntil(xs, frozenset(n for n in names if rng.random() < 0.4))

    # Drawn in preorder, as a recursive generator draws: a node's kind (and a
    # Next's child) first, then its subformulas left to right.
    kinds = ["lbl", "lbl", "du", "not", "and", "or", "eu"] + ["next"] * (max_arity >= 1)
    makers = {"not": (Not, 1), "and": (And, 2), "or": (Or, 2), "eu": (EU, 2)}
    built: list[CtlFormula] = []
    pending: list = [depth]  # budgets still to draw, and (maker, operands) to apply to built
    while pending:
        item = pending.pop()
        if isinstance(item, tuple):
            make, count = item
            built[-count:] = [make(*built[-count:])]
        elif item == 0:
            built.append(random_du() if rng.random() < 0.3 else Lbl(rng.choice(names)))
        else:
            kind = rng.choice(kinds)
            if kind == "lbl":
                built.append(Lbl(rng.choice(names)))
            elif kind == "du":
                built.append(random_du())
            else:
                make, count = makers.get(kind) or (
                    functools.partial(Next, rng.randint(1, max_arity)), 1
                )
                pending += [(make, count)] + [item - 1] * count
    return built[0]


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
