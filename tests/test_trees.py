import itertools
import random
import re

import pytest
from test_acceptance import budget
from test_transduce import identity_dtop

from treelab.errors import CapExceededError, ParseError
from treelab.fixtures import HOM_DUP, SIG_BOOL, SIG_GCD, SIG_LINE, SIG_MONO, SIG_POTT, SIG_POTT_K
from treelab.transduce import Dtop, dtop_apply
from treelab.trees import (
    MAX_TREE_CORPUS,
    Context,
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    Var,
    apply_context,
    children_first,
    enumerate_contexts,
    enumerate_trees,
    parse_term,
    parse_tree,
    parse_word,
    path_words,
    preorder,
    render_tree,
    substitute,
    tokenize,
    tree_at,
    tree_corpus,
    var_occurrences,
)


def count_trees_oracle(alphabet, max_nodes):
    """Independent counting recursion: c[s] = sum over letters of the number of
    ways to split s-1 nodes among the children."""
    counts = [0] * (max_nodes + 1)
    for s in range(1, max_nodes + 1):
        total = 0
        for letter in alphabet.letters:
            if letter.arity == 0:
                total += 1 if s == 1 else 0
                continue

            def splits(budget, parts):
                if parts == 0:
                    return 1 if budget == 0 else 0
                return sum(counts[k] * splits(budget - k, parts - 1) for k in range(1, budget + 1))

            total += splits(s - 1, letter.arity)
        counts[s] = total
    return sum(counts)


def test_parse_single_constant():
    tree = parse_tree("f0", SIG_POTT)
    assert tree == Tree(SIG_POTT["f0"])


def test_parse_nested():
    tree = parse_tree("f2(f1(f0),f0)", SIG_POTT)
    assert tree.size() == 4
    assert tree.label.name == "f2"
    assert tree.children[0].label.name == "f1"


def test_parse_arity_mismatch():
    with pytest.raises(ParseError, match="arity mismatch: f1 expects 1"):
        parse_tree("f1(f0,f0)", SIG_POTT)


def test_parse_unknown_letter_has_position():
    with pytest.raises(ParseError, match="unknown letter"):
        parse_tree("f2(f0,nope)", SIG_POTT)


def test_parse_whitespace_insignificant():
    assert parse_tree(" f2 ( f0 , f0 ) ", SIG_POTT) == parse_tree("f2(f0,f0)", SIG_POTT)


def test_render_constant_and_binary():
    assert render_tree(parse_tree("f0", SIG_POTT)) == "f0"
    assert render_tree(parse_tree("f2(f0,f0)", SIG_POTT)) == "f2(f0,f0)"


def test_roundtrip_on_enumerated_trees():
    trees = enumerate_trees(SIG_POTT, 10)
    assert len(trees) >= 1000
    for tree in trees[:1000]:
        assert parse_tree(render_tree(tree), SIG_POTT) == tree


def test_enumerate_unary_chain():
    trees = enumerate_trees(SIG_MONO, 3)
    assert [render_tree(t) for t in trees] == ["z", "s(z)", "s(s(z))"]


def test_enumerate_gcd_small():
    trees = enumerate_trees(SIG_GCD, 3)
    assert [render_tree(t) for t in trees] == [
        "c",
        "d",
        "g(c,c)",
        "g(c,d)",
        "g(d,c)",
        "g(d,d)",
    ]


@pytest.mark.parametrize("alphabet", [SIG_POTT, SIG_GCD, SIG_MONO, SIG_POTT_K])
def test_enumerate_count_matches_recursion(alphabet):
    for bound in (3, 5):
        assert len(enumerate_trees(alphabet, bound)) == count_trees_oracle(alphabet, bound)


def test_tree_corpus_is_counted_before_any_tree_is_built(monkeypatch):
    made = [0]
    check = Tree.__post_init__

    def counting(self):
        made[0] += 1
        check(self)

    monkeypatch.setattr(Tree, "__post_init__", counting)
    with budget(1.0):
        with pytest.raises(CapExceededError) as caught:
            enumerate_trees(SIG_BOOL, 16)
    error = caught.value
    assert (str(error), error.stage, error.cap) == (
        f"tree corpus exceeds {MAX_TREE_CORPUS}", "tree corpus", MAX_TREE_CORPUS
    )
    # the trees of at most 12 nodes fit, those of at most 13 do not
    assert count_trees_oracle(SIG_BOOL, 12) <= MAX_TREE_CORPUS < count_trees_oracle(SIG_BOOL, 13)
    assert error.reached == count_trees_oracle(SIG_BOOL, 13)
    assert made[0] == 0
    # without a constant or without a letter above arity 0, any bound ends at once
    with budget(1.0):
        constants = RankedAlphabet.of(("a", 0), ("b", 0))
        assert [render_tree(t) for t in enumerate_trees(constants, 10**9)] == ["a", "b"]
        assert enumerate_trees(RankedAlphabet.of(("g", 1), ("f", 2)), 10**9) == []
        assert enumerate_trees(constants, 0) == []


def test_enumerate_no_duplicates_and_bound():
    trees = enumerate_trees(SIG_POTT, 6)
    assert len(set(trees)) == len(trees)
    assert all(t.size() <= 6 for t in trees)


def child_positions(nodes):
    """Reference: for a children-first list of ``Tree`` nodes, the positions
    of each node's children, found by id; a node listed twice is found at its
    first position.  A parents-first list raises KeyError."""
    at, out = {}, []
    for k, node in enumerate(nodes):
        out.append(tuple([at[id(child)] for child in node.children]))
        at.setdefault(id(node), k)
    return out


def trees_by_size(alphabet, max_nodes):
    """Reference: every tree of at most ``max_nodes`` nodes, one ``Tree``
    each, built size by size from the trees of the smaller sizes: root letter
    in alphabet order, then the children's sizes lexicographic."""
    by_size, out = [[]], []
    for size in range(1, max_nodes + 1):
        level = [
            Tree(letter, kids)
            for letter in alphabet.letters
            for sizes in itertools.product(range(1, size), repeat=letter.arity)
            if sum(sizes) == size - 1
            for kids in itertools.product(*(by_size[part] for part in sizes))
        ]
        by_size.append(level)
        out.extend(level)
    return out


@pytest.mark.parametrize("alphabet", [SIG_POTT, SIG_GCD, SIG_BOOL, SIG_MONO, SIG_POTT_K])
def test_tree_corpus_is_the_node_list_of_the_trees_built_by_size(alphabet):
    reference = trees_by_size(alphabet, 7)
    letters, kids = tree_corpus(alphabet, 7)
    assert letters == [tree.label for tree in reference]
    assert kids == child_positions(reference)
    trees = enumerate_trees(alphabet, 7)
    assert trees == reference
    assert all(trees[c] is child for tree, children in zip(trees, kids)
               for c, child in zip(children, tree.children))
    assert [tree_at(letters, kids, k) for k in range(len(letters))] == reference


@pytest.mark.parametrize("alphabet", [SIG_POTT, SIG_GCD, SIG_MONO, SIG_POTT_K])
def test_enumerate_is_children_first_with_shared_children(alphabet):
    trees = enumerate_trees(alphabet, 7)
    seen: dict[int, int] = {}  # id -> position
    for k, tree in enumerate(trees):
        # every child is an earlier entry, the very same object
        assert all(seen.get(id(child), k) < k for child in tree.children), render_tree(tree)
        seen[id(tree)] = k
    letters, kids = tree_corpus(alphabet, 7)
    assert len(kids) == len(trees)
    for tree, letter, children in zip(trees, letters, kids):
        assert tree.label is letter
        assert tuple(trees[c] for c in children) == tree.children
        assert all(trees[c] is child for c, child in zip(children, tree.children))


def test_child_positions_of_a_reversed_preorder():
    shared = parse_tree("f2(f0,f1(f0))", SIG_POTT)
    tree = Tree(SIG_POTT["f2"], (shared, Tree(SIG_POTT["f1"], (shared,))))
    letters, stacked = children_first(tree)
    nodes = preorder(tree)[::-1]
    assert letters == [node.label for node in nodes]
    kids = child_positions(nodes)
    for positions in (kids, stacked):
        for k, (node, children) in enumerate(zip(nodes, positions)):
            assert all(c < k for c in children)
            assert all(nodes[c] is child for c, child in zip(children, node.children))
    # the shared subtree is listed twice; child_positions finds it at its first position
    first = next(k for k, node in enumerate(nodes) if node is shared)
    assert kids[-1][0] == kids[kids[-1][1]][0] == first
    assert stacked[-1][0] != stacked[stacked[-1][1]][0]
    assert tree_at(letters, stacked, len(letters) - 1) == tree
    with pytest.raises(KeyError):
        child_positions(preorder(tree))  # parents first: not children-first
    for tree in enumerate_trees(SIG_POTT_K, 6):
        # parsed afresh, no node is shared: the same positions, from the word too
        fresh = parse_tree(render_tree(tree), SIG_POTT_K)
        letters, stacked = children_first(fresh)
        assert stacked == child_positions(preorder(fresh)[::-1])
        assert children_first(parse_word(render_tree(tree), SIG_POTT_K)) == (letters, stacked)


def test_path_words_examples():
    g, c, d = SIG_GCD["g"], SIG_GCD["c"], SIG_GCD["d"]
    assert path_words(parse_tree("g(c,d)", SIG_GCD)) == frozenset(
        {((g, 1), c), ((g, 2), d)}
    )
    assert path_words(Tree(c)) == frozenset({(c,)})
    f2, f1, f0 = SIG_POTT["f2"], SIG_POTT["f1"], SIG_POTT["f0"]
    assert path_words(parse_tree("f2(f1(f0),f0)", SIG_POTT)) == frozenset(
        {((f2, 1), (f1, 1), f0), ((f2, 2), f0)}
    )


def test_path_word_count_equals_leaves():
    for tree in enumerate_trees(SIG_POTT, 6):
        assert len(path_words(tree)) == tree.leaf_count()


def test_apply_context():
    hole = Context.hole()
    t = parse_tree("f1(f0)", SIG_POTT)
    assert apply_context(hole, t) == t
    ctx = Context(Term(1, Tree(SIG_POTT["f1"], (Var(1),))))
    assert apply_context(ctx, parse_tree("f0", SIG_POTT)) == parse_tree("f1(f0)", SIG_POTT)
    ctx2 = Context(
        Term(1, Tree(SIG_POTT["f2"], (Var(1), Tree(SIG_POTT["f0"]))))
    )
    assert apply_context(ctx2, parse_tree("f1(f0)", SIG_POTT)) == parse_tree(
        "f2(f1(f0),f0)", SIG_POTT
    )


def test_context_requires_single_occurrence():
    with pytest.raises(ValueError):
        Context(Term(1, Tree(SIG_POTT["f2"], (Var(1), Var(1)))))


def test_hom_dup_balances_lines():
    line = parse_tree("f1(f1(f0))", SIG_LINE)
    image = dtop_apply(HOM_DUP, line)
    assert render_tree(image) == "f2(f2(f0,f0),f2(f0,f0))"


def test_identity_hom():
    ident = identity_dtop(SIG_POTT)
    for tree in enumerate_trees(SIG_POTT, 5):
        assert dtop_apply(ident, tree) == tree


def test_constant_dropping_hom():
    sig_ac = RankedAlphabet.of(("a", 1), ("c", 0))
    dropper = Dtop(
        sig_ac,
        sig_ac,
        1,
        1,
        {("c", 1): Term(0, Tree(Letter("c", 0))), ("a", 1): Term(1, Tree(Letter("c", 0)))},
    )
    assert dtop_apply(dropper, parse_tree("a(a(c))", sig_ac)) == parse_tree("c", sig_ac)


def test_hom_commutes_with_context_substitution():
    contexts = [c for c in enumerate_contexts(SIG_LINE, 3)]
    trees = [t for t in enumerate_trees(SIG_LINE, 3)]
    for ctx in contexts:
        image_ctx = Term(1, dtop_apply(HOM_DUP, ctx.term.body))
        for tree in trees:
            left = dtop_apply(HOM_DUP, apply_context(ctx, tree))
            right = substitute(image_ctx, [dtop_apply(HOM_DUP, tree)])
            assert left == right


def test_enumerate_contexts_counts_and_shape():
    contexts = enumerate_contexts(SIG_POTT, 2)
    assert contexts[0] == Context.hole()
    assert len(set(c.term for c in contexts)) == len(contexts)
    for ctx in contexts:
        assert var_occurrences(ctx.term.body) == [1]


def test_alphabet_invariants():
    with pytest.raises(ValueError, match="duplicate"):
        RankedAlphabet.of(("a", 1), ("a", 0))
    with pytest.raises(ValueError, match="arity"):
        RankedAlphabet.of(("a", 9), ("c", 0))


# --- the reader against the recursive reader it replaced ----------------------

_SEED_TOKEN = re.compile(r"\s*([A-Za-z0-9_@.|']+|[(),])")


def _seed_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _SEED_TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
            break
        tokens.append((match.group(1), match.start(1)))
        pos = match.end()
    return tokens


class _SeedReader:
    """The recursive reader that parse_tree and parse_term used before, kept
    as the reference for their results and error messages."""

    def __init__(self, text, alphabet, var_map):
        self.tokens = _seed_tokenize(text)
        self.alphabet = alphabet
        self.var_map = var_map
        self.at = 0
        self.length = len(text)

    def _peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.at += 1
        return tok

    def read(self):
        name, pos = self._next()
        if name in "(),":
            raise ParseError(f"expected a name, got {name!r}", pos)
        if name in self.var_map:
            return Var(self.var_map[name])
        letter = self.alphabet.get(name)
        if letter is None:
            raise ParseError(f"unknown letter {name!r}", pos)
        children = []
        tok = self._peek()
        if tok is not None and tok[0] == "(":
            self._next()
            children.append(self.read())
            while True:
                tok = self._next()
                if tok[0] == ")":
                    break
                if tok[0] != ",":
                    raise ParseError(f"expected ',' or ')', got {tok[0]!r}", tok[1])
                children.append(self.read())
        if len(children) != letter.arity:
            raise ParseError(
                f"arity mismatch: {name} expects {letter.arity}, got {len(children)}", pos
            )
        return Tree(letter, tuple(children))

    def finish(self):
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[0]!r}", tok[1])


def _seed_parse_tree(text, alphabet):
    reader = _SeedReader(text, alphabet, {})
    body = reader.read()
    reader.finish()

    def to_tree(node):
        return Tree(node.label, tuple(to_tree(child) for child in node.children))

    return to_tree(body)


def _seed_parse_term(text, alphabet, nvars):
    reader = _SeedReader(text, alphabet, {f"x{i}": i for i in range(1, nvars + 1)})
    body = reader.read()
    reader.finish()
    return Term(nvars, body)


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as error:
        return "error", str(error)


def _random_text(rng, alphabet, nodes, variables=()):
    """The rendering of a random tree of about ``nodes`` nodes, some of whose
    leaves are variable names."""
    constants = alphabet.constants
    operators = [letter for letter in alphabet.letters if letter.arity]

    def grow(budget):
        if budget <= 1 or rng.random() < 0.15:
            if variables and rng.random() < 0.3:
                return rng.choice(variables)
            return rng.choice(constants).name
        letter = rng.choice(operators)
        shares = [max(1, (budget - 1) // letter.arity)] * letter.arity
        return f"{letter.name}({','.join(grow(share) for share in shares)})"

    return grow(nodes)


_INSERTS = list("(),#$") + list("fgcdx012") + [" ", "  ", "\t", "\n"]


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        if rng.random() < 0.4 and text:
            at = min(at, len(text) - 1)
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(_INSERTS) + text[at:]
    return text


def test_reader_matches_recursive_reader_on_mutated_text():
    rng = random.Random(17)
    errors = 0
    for trial in range(5000):
        alphabet = SIG_POTT if trial % 2 else SIG_GCD
        variables = ("x1", "x2") if trial % 3 == 0 else ()
        text = _random_text(rng, alphabet, rng.randint(1, 16), variables)
        if trial % 7:
            text = _mutate(rng, text)
        expected = _outcome(_seed_parse_term, text, alphabet, 2)
        assert _outcome(parse_term, text, alphabet, 2) == expected, text
        expected = _outcome(_seed_parse_tree, text, alphabet)
        assert _outcome(parse_tree, text, alphabet) == expected, text
        # the word reader stops at the same token with the same message, or
        # reads the labels of the same tree in preorder
        word = _outcome(parse_word, text, alphabet)
        if expected[0] == "ok":
            assert word == ("ok", [node.label for node in preorder(expected[1])]), text
        else:
            assert word == expected, text
        errors += expected[0] == "error"
    assert 2000 < errors < 4800  # both outcomes are well represented


def test_tokenize_matches_the_token_pattern():
    # names are runs of name characters; any Unicode whitespace separates
    pattern = re.compile(r"[A-Za-z0-9_@.|']+|[(),]")
    rng = random.Random(5)
    pieces = list("(),") + ["f2", "x1", "a.b", "q1.x2", "'|@_"] + list(" \t\n\r\x0b\x0c")
    pieces += ["\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"]
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        assert tokenize(text) == pattern.findall(text), repr(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of input (at position 0)"),
        ("  ", "unexpected end of input (at position 2)"),
        ("f2(f0,", "unexpected end of input (at position 6)"),
        ("f2(f0 ", "unexpected end of input (at position 6)"),
        ("f2(f0,f0) #", "unexpected character '#' (at position 9)"),
        ("f2(nope, f0 \t$)", "unexpected character '$' (at position 11)"),
        ("f2(f0,f0) f0", "trailing input 'f0' (at position 10)"),
        ("f2()", "expected a name, got ')' (at position 3)"),
        ("f2(f0 f0)", "expected ',' or ')', got 'f0' (at position 6)"),
        ("f1", "arity mismatch: f1 expects 1, got 0 (at position 0)"),
        (" f2(f0,f1(f0,f0))", "arity mismatch: f1 expects 1, got 2 (at position 7)"),
        ("f0(nope)", "unknown letter 'nope' (at position 3)"),
    ],
)
def test_reader_error_positions(text, message):
    assert _outcome(parse_tree, text, SIG_POTT) == ("error", message)
    assert _outcome(_seed_parse_tree, text, SIG_POTT) == ("error", message)


def test_reader_variables_end_a_term():
    for text in ("x1(f0)", "f2(x1(f0),f0)"):
        assert _outcome(parse_term, text, SIG_POTT, 1) == _outcome(
            _seed_parse_term, text, SIG_POTT, 1
        )
        assert _outcome(parse_term, text, SIG_POTT, 1)[0] == "error"
    assert parse_term("f2(x2,x1)", SIG_POTT, 2) == Term(
        2, Tree(SIG_POTT["f2"], (Var(2), Var(1)))
    )


def test_alphabet_lookup_by_name():
    alphabet = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0))
    assert alphabet.get("g") == Letter("g", 1) and alphabet.get("h") is None
    assert alphabet["a"] == Letter("a", 0)
    with pytest.raises(KeyError):
        alphabet["h"]
    assert Letter("g", 1) in alphabet and Letter("g", 2) not in alphabet
    assert alphabet == RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0))
    assert hash(alphabet) == hash(RankedAlphabet(alphabet.letters))
    assert repr(alphabet) == f"RankedAlphabet(letters={alphabet.letters!r})"
