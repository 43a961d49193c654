"""Ranked trees and the machinery around them.

Alphabets, trees, terms with numbered variables, one-hole contexts and the
root-to-leaf path words of a tree.  Also the bounded enumerators of trees and
contexts that the rest of the package uses as brute-force oracle substrate.
All values are immutable; all operations are pure functions.  A tree
homomorphism is a one-state ``transduce.Dtop``.

A term is a tree whose leaves may also be variables: a ``Var`` is a ``Tree``
leaf, so every walk over trees (``preorder``, ``==``, ``hash``, ``repr``,
``render_tree``) takes term bodies too, without recursion.

A tree's preorder word, its labels in ``preorder`` (a ``Var``'s label is
its ``VarLetter``), spells the tree.  ``parse_word`` reads it from a text
(one loop turn per term, no tree built), ``tree_of`` builds the tree from
it, and ``render_tree`` writes either.  ``automata.evaluate``, the one fold
of a tree into an algebra (one stack of values, a branch per arity), takes
a tree or its word; ``transduce.dtop_word`` writes a transduction's word
top-down instead.  A list that is no tree's word raises ValueError there.

A node list, letters children first with each one's child positions, is the
other form: ``children_first`` gives a tree's, ``tree_corpus`` that of every
tree up to a size without making a ``Tree``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

from .errors import AlphabetMismatchError, CapExceededError, ParseError

MAX_ARITY = 8
MAX_TREE_CORPUS = 1_000_000  # entries of a tree_corpus at most: a letter and a child tuple each


@dataclass(frozen=True, order=True)
class Letter:
    name: str
    arity: int

    label = property(lambda self: self)  # its own label: a preorder word reads as its nodes


@dataclass(frozen=True)
class RankedAlphabet:
    """Ordered sequence of letters; names are unique, identity is (name, arity).

    An alphabet without arity-0 letters denotes an empty tree set.  Such
    alphabets are permitted because operation-only signatures (e.g. the bare
    two-element lattice) are needed for algebra-division checks.
    """

    letters: tuple[Letter, ...]

    def __post_init__(self):
        # name -> letter; an attribute, not a field, so ==, hash and repr ignore it
        by_name = {letter.name: letter for letter in self.letters}
        if len(by_name) != len(self.letters):
            raise ValueError("duplicate letter names in alphabet")
        for letter in self.letters:
            if not 0 <= letter.arity <= MAX_ARITY:
                raise ValueError(f"arity of {letter.name} out of range 0..{MAX_ARITY}")
        object.__setattr__(self, "_by_name", by_name)

    @staticmethod
    def of(*pairs: tuple[str, int]) -> "RankedAlphabet":
        return RankedAlphabet(tuple(Letter(name, arity) for name, arity in pairs))

    def get(self, name: str) -> Letter | None:
        return self._by_name.get(name)

    def __getitem__(self, name: str) -> Letter:
        letter = self.get(name)
        if letter is None:
            raise KeyError(name)
        return letter

    def __contains__(self, letter: Letter) -> bool:
        found = self._by_name.get(letter.name)
        return found is letter or found == letter

    @property
    def constants(self) -> tuple[Letter, ...]:
        return tuple(letter for letter in self.letters if letter.arity == 0)


@dataclass(frozen=True, eq=False, repr=False)
class Tree:
    """A ranked tree.  ``==``, ``hash`` and ``repr`` walk it without
    recursion, so depth is unbounded; ``==`` and ``repr`` agree with the
    dataclass-generated forms over (label, children)."""

    label: Letter
    children: tuple["Tree", ...] = ()

    def __post_init__(self):
        if len(self.children) != self.label.arity:
            raise ValueError(
                f"{self.label.name} expects {self.label.arity} children, got {len(self.children)}"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pending = [(self, other)]
        while pending:
            mine, theirs = pending.pop()
            if mine is theirs:
                continue
            if mine.__class__ is not theirs.__class__ or (
                mine.label is not theirs.label and mine.label != theirs.label
            ):
                return False
            pending += zip(mine.children, theirs.children)  # equal labels, equal arities
        return True

    def __hash__(self):
        # the labels in preorder spell the tree, since each label has its arity
        return hash(tuple(node.label for node in preorder(self)))

    def __repr__(self):
        parts: list[str] = []
        pending: list[Tree | str] = [self]  # nodes to print and text to copy
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(f"{type(item).__qualname__}(label={item.label!r}, children=(")
            pending.append(",))" if len(item.children) == 1 else "))")
            for index in range(len(item.children) - 1, -1, -1):
                pending.append(item.children[index])
                if index:
                    pending.append(", ")
        return "".join(parts)

    def size(self) -> int:
        return len(preorder(self))

    def leaf_count(self) -> int:
        return sum(not node.children for node in preorder(self))


def preorder(tree: Tree) -> list[Tree]:
    """Every node of the tree, each before its descendants and every subtree
    before its right siblings' (the tree itself first), found with an explicit
    stack, so depth is unbounded.

    Read reversed, the list is a postorder: every node comes after all of its
    descendants, with its children's subtrees from right to left.  A fold
    (such as ``automata.evaluate``) that pushes each node's value on a stack
    in that order finds a node's first child's value on top when it reaches
    the node, then the second's below it, and so on.
    """
    out: list[Tree] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        if node.children:
            stack += node.children[::-1]
    return out


def require_letters(
    nodes: Sequence[Tree | Letter], alphabet: RankedAlphabet, message: str, variables: bool = False
) -> None:
    """Raise AlphabetMismatchError(message.format(name)) for the first of
    ``nodes`` (or of a word's letters) whose label is not in ``alphabet``.  A
    variable is such a node too, unless ``variables`` is set: only a term
    body may hold them."""
    for node in nodes:
        if node.label not in alphabet and not (variables and node.label.__class__ is VarLetter):
            raise AlphabetMismatchError(message.format(node.label.name))


NodeList = tuple[list[Letter], list[tuple[int, ...]]]  # letters, children first; child positions
NOT_A_WORD = "the list is no tree's preorder word"  # the ValueError of a malformed word


def children_first(tree: Tree | list[Letter]) -> NodeList:
    """The node list of a tree or its preorder word: the word reversed
    (children first), and the positions of each node's children in it, in
    child order.

    Walking that list, the children of a node are popped off a stack of the
    positions whose parent is still to come, its first child on top, so only
    arities are read.  A list that is no tree's word, which runs this stack
    empty or leaves more than one root on it, raises ValueError."""
    letters = ([node.label for node in preorder(tree)] if isinstance(tree, Tree) else tree)[::-1]
    pending: list[int] = []  # positions whose parent is still to come
    kids: list[tuple[int, ...]] = []
    listed, pend, pop = kids.append, pending.append, pending.pop
    try:
        for k, letter in enumerate(letters):
            arity = letter.arity
            if not arity:
                listed(())
            elif arity == 1:
                listed((pop(),))
            elif arity == 2:
                listed((pop(), pop()))
            else:
                listed(tuple([pop() for _ in range(arity)]))
            pend(k)
        (_,) = pending  # ValueError unless one root is left
    except (IndexError, ValueError):  # or a pop from the empty stack
        raise ValueError(NOT_A_WORD) from None
    return letters, kids


def tree_at(letters: Sequence[Letter], kids: Sequence[tuple[int, ...]], at: int) -> Tree:
    """The tree at position ``at`` of a node list, built from its preorder
    word: one ``Tree`` per node, whatever the list shares."""
    word, stack = [], [at]
    while stack:
        k = stack.pop()
        word.append(letters[k])
        stack += kids[k][::-1]
    return tree_of(word)


class VarLetter(Letter):
    """The label of a ``Var``, which it keeps as ``var``.  The dataclass
    ``==`` compares classes, so it differs from the letter of the same name,
    and the folds' letter check rejects a variable leaf over any alphabet."""


class Var(Tree):
    """The variable x{index} of a term, 1-based: a leaf labelled by a fresh
    arity-0 letter ``x{index}``.  Its class tells it from a letter leaf of
    the same name, for ``==`` too."""

    def __init__(self, index: int):
        if index < 1:
            raise ValueError("variable indices start at 1")
        label = VarLetter(f"x{index}", 0)
        object.__setattr__(label, "var", self)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", ())
        object.__setattr__(self, "index", index)


@dataclass(frozen=True)
class Term:
    """A tree whose leaves may also be variables: ``Var`` leaves x1..x{nvars}.

    Variables may repeat or be absent; a term with nvars = 0 is just a tree.
    The body's nodes, children first (its reversed ``preorder``), are kept
    as ``nodes``, an attribute, not a field, so ==, hash and repr ignore it.
    """

    nvars: int
    body: Tree

    def __post_init__(self):
        nodes = preorder(self.body)
        for node in nodes:
            if node.__class__ is Var and not 1 <= node.index <= self.nvars:
                raise ValueError(f"variable x{node.index} out of declared range 1..{self.nvars}")
        nodes.reverse()
        object.__setattr__(self, "nodes", nodes)


def var_occurrences(body: Tree) -> list[int]:
    """Variable indices in left-to-right occurrence order."""
    return [node.index for node in preorder(body) if node.__class__ is Var]


@dataclass(frozen=True)
class Context:
    """A term with one declared variable occurring exactly once (the hole)."""

    term: Term

    def __post_init__(self):
        if self.term.nvars != 1 or var_occurrences(self.term.body) != [1]:
            raise ValueError("a context must use its single variable exactly once")

    @staticmethod
    def hole() -> "Context":
        return Context(Term(1, Var(1)))


def substitute(term: Term, args: Sequence[Tree]) -> Tree:
    """Ground a term by substituting a tree for each variable."""
    if len(args) != term.nvars:
        raise ValueError(f"term expects {term.nvars} arguments, got {len(args)}")
    return instantiate(term.body, args)


def instantiate(body: Tree, args: Sequence[Tree]) -> Tree:
    """The tree that a term body denotes with variable i bound to ``args[i-1]``.

    A letter node with a letter node below it waits on an explicit stack
    while that child is built, so depth is unbounded.  A variable is read
    from ``args`` and a constant leaf is kept as it is, without a push.
    """
    if not body.children:
        return args[body.index - 1] if body.__class__ is Var else body
    open_nodes = []  # (node, its children still to read, the images of those read)
    node, rest, kids = body, iter(body.children), []
    while True:
        for child in rest:
            if child.children:
                open_nodes.append((node, rest, kids))
                node, rest, kids = child, iter(child.children), []
                break
            kids.append(args[child.index - 1] if child.__class__ is Var else child)
        else:
            tree = Tree(node.label, tuple(kids))
            if not open_nodes:
                return tree
            node, rest, kids = open_nodes.pop()
            kids.append(tree)


def apply_context(ctx: Context, tree: Tree) -> Tree:
    return substitute(ctx.term, [tree])


# --- path words -------------------------------------------------------------

# A path symbol is either (letter, child_index) for an interior step or a bare
# arity-0 letter for the final leaf; a path word is a tuple of symbols ending
# with exactly one leaf symbol.
PathSym = Union[Letter, tuple[Letter, int]]
PathWord = tuple[PathSym, ...]


def path_words(tree: Tree) -> frozenset[PathWord]:
    """One word per root-to-leaf path: (label, child index) steps, then the leaf label."""
    words: set[PathWord] = set()
    path: list[tuple[Letter, int]] = []  # the steps from the root to the current node
    for node in preorder(tree):
        label = node.label
        if label.arity:
            path.append((label, 1))
            continue
        words.add((*path, label))
        # step to the next sibling of the deepest ancestor that has one
        while path:
            parent, i = path.pop()
            if i < parent.arity:
                path.append((parent, i + 1))
                break
    return frozenset(words)


# --- parsing and rendering --------------------------------------------------

_NAME_CHARS = "A-Za-z0-9_@.|'"
_BAD_CHAR = re.compile(f"[^\\s{_NAME_CHARS}(),]")
_NOT_NAMES = frozenset(["(", ")", ",", ""])  # "" stands for the end of the input
_VAR_NAME = re.compile("x[1-9][0-9]*")


def tokenize(text: str) -> list[str]:
    """The tokens of ``text``: names and the punctuation ``(),``.  A
    character that belongs to neither raises ParseError at the start of the
    whitespace before it; past that check, ``split`` finds the names once
    the punctuation is spaced out."""
    bad = _BAD_CHAR.search(text)
    if bad is not None:
        position = len(text[: bad.start()].rstrip())  # where the whitespace before it starts
        raise ParseError(f"unexpected character {bad.group()!r}", position)
    return text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()


def _read(text: str, names: Mapping[str, Letter]) -> list[Letter]:
    """The one reader of ``name`` and ``name(t1,...,tn)`` for the letters
    (a ``VarLetter`` for a variable) that ``names`` maps names to: the
    preorder word of the text.  A variable ends a term: no ``(`` may follow
    it.  One iterator walks the tokens, a loop turn per term; an open node
    is the int of the commas it still expects, checked at its ``)`` (the
    innermost one's is ``left``, the others wait on a stack, so depth is
    unbounded).  A ParseError names the token it stopped at (worked out only
    then) by position: where the token starts, or the length of the text at
    its end.  A character that is not a name character, whitespace or
    ``(),`` is reported first; see ``tokenize``."""
    tokens = tokenize(text)
    tokens.append("")  # the end of the input
    if not names.keys().isdisjoint(_NOT_NAMES):
        names = {name: entry for name, entry in names.items() if name not in _NOT_NAMES}
    get, word, outer, left = names.get, [], [], None  # left is None outside every node
    add, push, pop = word.append, outer.append, outer.pop
    tokens_left = iter(tokens)
    read = tokens_left.__next__
    for name in tokens_left:  # a term starts here
        letter = get(name)
        if letter is None:
            wanted = "expected a name, got" if name in _NOT_NAMES else "unknown letter"
            raise _error(text, tokens, tokens_left, f"{wanted} {name!r}")
        add(letter)
        token = read()
        if token == "(" and letter.__class__ is not VarLetter:
            push(left)
            left = letter.arity - 1
            continue
        if letter.arity:
            message = f"arity mismatch: {name} expects {letter.arity}, got 0"
            raise _error(text, tokens, tokens_left, message, 1)
        # the term is complete: a ',' starts a sibling, a ')' ends the parent
        while left is not None:
            if token == ",":
                left -= 1
                break
            if token != ")":
                raise _error(text, tokens, tokens_left, f"expected ',' or ')', got {token!r}")
            if left:  # the parent is named before the '(' that this ')' closes
                close, back, depth = len(tokens) - operator.length_hint(tokens_left) - 1, 1, 1
                while depth:
                    depth += {")": 1, "(": -1}.get(tokens[close - back], 0)
                    back += 1
                name, arity = tokens[close - back], names[tokens[close - back]].arity
                message = f"arity mismatch: {name} expects {arity}, got {arity - left}"
                raise _error(text, tokens, tokens_left, message, back)
            left = pop()
            token = read()
        else:
            if token:
                raise _error(text, tokens, tokens_left, f"trailing input {token!r}")
            return word


def tree_of(word: list[Letter]) -> Tree:
    """The tree, or term body, whose preorder word is ``word``: one pass over
    the reversed word with a stack of the subtrees built, a node's first
    child on top, checked as in ``children_first``."""
    stack: list[Tree] = []
    push, pop = stack.append, stack.pop
    try:
        for letter in reversed(word):
            arity = letter.arity
            if not arity:
                push(letter.var if letter.__class__ is VarLetter else Tree(letter))
            elif arity == 1:
                push(Tree(letter, (pop(),)))
            elif arity == 2:
                push(Tree(letter, (pop(), pop())))
            else:
                push(Tree(letter, tuple([pop() for _ in range(arity)])))
        (root,) = stack  # ValueError unless one tree is left
    except (IndexError, ValueError):  # or a pop from the empty stack
        raise ValueError(NOT_A_WORD) from None
    return root


def _error(
    text: str, tokens: list[str], tokens_left: Iterator[str], message: str, back: int = 0
) -> ParseError:
    """A ParseError where the token ``back`` before the last one that ``tokens_left``
    gave starts; at the end of the input, "unexpected end of input" there."""
    token, at = len(tokens) - operator.length_hint(tokens_left) - 1 - back, 0
    for name in tokens[:token]:
        at = text.index(name, at) + len(name)
    if tokens[token]:
        return ParseError(message, text.index(tokens[token], at))
    return ParseError("unexpected end of input", len(text))


def parse_tree(text: str, alphabet: RankedAlphabet) -> Tree:
    """Parse ``name`` or ``name(t1,...,tn)``; whitespace is insignificant.

    Built from its word (see ``_read``) without recursion, so depth is
    unbounded.  A ParseError gives the position of the token it stopped at
    (the length of the text at its end); a character that may not occur in
    a tree is reported first, at the start of the whitespace before it.
    """
    return tree_of(_read(text, alphabet._by_name))


def parse_word(text: str, alphabet: RankedAlphabet) -> list[Letter]:
    """The preorder word of what ``parse_tree`` reads, with its checks and
    ParseErrors, without building the tree: ``automata.evaluate`` takes it for
    the tree."""
    return _read(text, alphabet._by_name)


def parse_term(
    text: str,
    alphabet: RankedAlphabet,
    nvars: int,
    var_map: Mapping[str, int] | None = None,
) -> Term:
    """Like parse_tree but variable names map to indices; default names
    x1..xN.  Only the default names that the text holds are made, so the
    work is bounded by the text, not by ``nvars``."""
    if var_map is None:
        var_map = {
            name: int(name[1:]) for name in tokenize(text)
            if _VAR_NAME.fullmatch(name) and int(name[1:]) <= nvars
        }
    variables = {name: Var(index).label for name, index in var_map.items()}
    return Term(nvars, tree_of(_read(text, {**alphabet._by_name, **variables})))


def render_tree(tree: Tree | list[Letter]) -> str:
    """Canonical text of a tree or its preorder word; constants carry no
    parentheses.  parse o render = id.  Only the letters' arities are read,
    so a word is written without building its tree.  A list that is no
    tree's word raises ValueError."""
    out: list[str] = []
    left: list[int] = []  # children still to render, per open node
    letters = iter([node.label for node in preorder(tree)] if isinstance(tree, Tree) else tree)
    for letter in letters:
        out.append(letter.name)
        if letter.arity:
            out.append("(")
            left.append(letter.arity)
            continue
        while left:
            if left[-1] > 1:
                left[-1] -= 1
                out.append(",")
                break
            left.pop()
            out.append(")")
        else:  # the root is complete
            if next(letters, None) is None:
                return "".join(out)
            break
    raise ValueError(NOT_A_WORD)


# --- bounded enumeration ----------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers with the given sum, lexicographic."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _shapes(alphabet: RankedAlphabet, size: int) -> Iterator[tuple[Letter, tuple[int, ...]]]:
    """The root letter and the children's sizes of the trees of ``size``
    nodes, root letter in alphabet order, then sizes lexicographic."""
    for letter in alphabet.letters:
        for comp in _compositions(size - 1, letter.arity):
            yield letter, comp


def tree_corpus(alphabet: RankedAlphabet, max_nodes: int) -> NodeList:
    """All trees with <= max_nodes nodes, each exactly once, as one
    children-first node list: entry k is the tree with root ``letters[k]``
    whose children are the earlier entries at ``kids[k]``.  No ``Tree`` is
    made; ``tree_at`` builds one entry's.

    Order: by node count, then root letter in alphabet order, then child size
    composition (lexicographic), then recursively the same order per child.
    ``automata.corpus_values`` folds the list, each distinct subtree once.

    The trees are counted per size before any is listed; more than
    ``MAX_TREE_CORPUS`` raises CapExceededError (stage ``tree corpus``).
    """
    arities = {letter.arity for letter in alphabet.letters}
    if 0 not in arities:
        return [], []  # no tree at all
    if arities == {0}:
        max_nodes = min(max_nodes, 1)  # no tree of two nodes or more
    by_size = [range(0)]  # the positions of the trees of each size
    for size in range(1, max_nodes + 1):
        end = by_size[-1].stop + sum(
            math.prod(len(by_size[part]) for part in comp) for _, comp in _shapes(alphabet, size)
        )
        if end > MAX_TREE_CORPUS:
            message = f"tree corpus exceeds {MAX_TREE_CORPUS}"
            raise CapExceededError(message, "tree corpus", end, MAX_TREE_CORPUS)
        by_size.append(range(by_size[-1].stop, end))
    letters, kids = [], []  # a NodeList
    for size in range(1, max_nodes + 1):
        for letter, comp in _shapes(alphabet, size):
            listed = len(kids)
            kids += itertools.product(*(by_size[part] for part in comp))
            letters += itertools.repeat(letter, len(kids) - listed)
    return letters, kids


def enumerate_trees(alphabet: RankedAlphabet, max_nodes: int) -> list[Tree]:
    """The trees of ``tree_corpus``'s entries, in its order and under its
    cap, each child the earlier entry itself: children-first, shared."""
    trees: list[Tree] = []
    for letter, children in zip(*tree_corpus(alphabet, max_nodes)):
        trees.append(Tree(letter, tuple([trees[k] for k in children])))
    return trees


def enumerate_contexts(alphabet: RankedAlphabet, max_nodes: int) -> list[Context]:
    """All one-hole contexts with <= max_nodes letter nodes (the hole is free).

    Order: by letter-node count, then root letter, then hole position, then
    sub-sizes lexicographically.
    """
    trees = enumerate_trees(alphabet, max_nodes)
    trees_by_size: dict[int, list[Tree]] = {}
    for tree in trees:
        trees_by_size.setdefault(tree.size(), []).append(tree)

    by_size: list[list[Tree]] = [[Var(1)]]
    out: list[Context] = [Context.hole()]
    for size in range(1, max_nodes + 1):
        level: list[Tree] = []
        for letter in alphabet.letters:
            for hole_at in range(letter.arity):
                # size-1 nodes split over children; the hole child may use 0
                for ctx_size in range(0, size):
                    for comp in _compositions(size - 1 - ctx_size, letter.arity - 1):
                        sib_lists = [trees_by_size.get(part, []) for part in comp]
                        for ctx_body in by_size[ctx_size]:
                            for sibs in itertools.product(*sib_lists):
                                children = list(sibs)
                                children.insert(hole_at, ctx_body)
                                level.append(Tree(letter, tuple(children)))
        by_size.append(level)
        out.extend(Context(Term(1, body)) for body in level)
    return out
