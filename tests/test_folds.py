"""The tree folds against the recursive code they replaced, the folds of a
tree's preorder word against those of the tree, trees and terms too deep for
recursion, a check that no function of the tree, automaton, transducer,
path, oracle, structure, CLI or cascade modules calls itself, and one that no
library or test module imports a name it never reads.

``automata.evaluate`` is the one fold of a tree: one stack of values over the
reversed ``preorder(tree)``, one branch per arity.  The ``recursive_*``
functions below are recursive forms of the folds, kept as references: on
random trees both must give equal results, and with letters outside the
alphabet both must raise the same error.  ``dtop_apply`` is no fold: it
builds the tree of the word that ``dtop_word`` writes top-down, and is held
to its recursive form all the same.  The cascade and matrix-power semantics
keep their one recursive reference each in ``test_acceptance``; deep trees
reach them through ``cascade_flatten`` and ``matrix_power_language``.
"""

import ast
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import budget
from test_automata import random_algebra
from test_transduce import SIG_FGA, fga, identity_dtop
from test_trees import child_positions

import treelab
from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    corpus_values,
    eval_term_in_algebra,
    evaluate,
)
from treelab.cascade import (
    ann_name,
    annotate,
    cascade_flatten,
    ctl_compile,
    ctl_eval,
    ctl_parse,
    random_formula,
)
from treelab.errors import AlphabetMismatchError
from treelab.fixtures import ALG_POTT, SIG_LINE, SIG_POTT, SIG_POTT_K
from treelab.paths import Dtta, dtta_accepts
from treelab.transduce import (
    Dtop,
    MatrixHom,
    dtop_apply,
    dtop_word,
    matrix_power_language,
)
from treelab.trees import (
    MAX_ARITY,
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    Var,
    children_first,
    parse_term,
    parse_tree,
    parse_word,
    path_words,
    preorder,
    render_tree,
    substitute,
    tree_of,
)

FGAB = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0))
F, G, A, B = FGAB.letters


# --- the recursive forms ---------------------------------------------------------


def recursive_substitute(term, args):
    def go(body):
        if isinstance(body, Var):
            return args[body.index - 1]
        return Tree(body.label, tuple(go(child) for child in body.children))

    return go(term.body)


def recursive_evaluate(algebra, tree):
    if tree.label not in algebra.alphabet:
        raise AlphabetMismatchError(f"letter {tree.label.name} not in the algebra's alphabet")
    return algebra.op(tree.label.name, [recursive_evaluate(algebra, c) for c in tree.children])


def recursive_dtop_apply(dtop, tree):
    states = range(1, dtop.n_states + 1)

    def run(node):
        if node.label not in dtop.input_alphabet:
            raise AlphabetMismatchError(f"letter {node.label.name} not in the input alphabet")
        env = []
        for child in node.children:
            env += run(child)
        return [recursive_substitute(dtop.rules[(node.label.name, q)], env) for q in states]

    return run(tree)[dtop.initial - 1]


def recursive_render_tree(tree):
    if not tree.children:
        return tree.label.name
    return f"{tree.label.name}({','.join(recursive_render_tree(c) for c in tree.children)})"


def recursive_annotate(langs, tree):
    def go(node):  # the annotated subtree and its values in each of langs
        for lang in langs:
            if node.label not in lang.alphabet:
                raise AlphabetMismatchError("annotation languages must read the tree's alphabet")
        kids = [go(child) for child in node.children]
        values = [
            lang.algebra.op(node.label.name, [kid[1][i] for kid in kids])
            for i, lang in enumerate(langs)
        ]
        bits = tuple(int(value in lang.accepting) for value, lang in zip(values, langs))
        label = Letter(ann_name(node.label.name, bits), node.label.arity)
        return Tree(label, tuple(kid[0] for kid in kids)), values

    return go(tree)[0]


@dataclass(frozen=True)
class DataclassTree:
    """A tree with the dataclass-generated ==, hash and repr, which recurse."""

    label: Letter
    children: tuple = ()


DataclassTree.__qualname__ = "Tree"  # so that both reprs name the same class


def recursive_dataclass_tree(tree):
    return DataclassTree(tree.label, tuple(recursive_dataclass_tree(c) for c in tree.children))


# --- random inputs -----------------------------------------------------------------


def random_tree(rng, alphabet, nodes):
    """A tree of exactly ``nodes`` nodes when the alphabet allows it, its node
    budget split at random among the children."""
    constants = alphabet.constants
    operators = [letter for letter in alphabet.letters if letter.arity]

    def grow(budget):
        fits = [letter for letter in operators if letter.arity < budget]
        if not fits:
            return Tree(rng.choice(constants))
        letter = rng.choice(fits)
        cuts = sorted(rng.sample(range(1, budget - 1), letter.arity - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [budget - 1])]
        return Tree(letter, tuple(grow(size) for size in sizes))

    return grow(nodes)


def random_linear_term(rng, nvars):
    """A term over FGAB of depth <= 2 using each of its variables at most once."""
    pool = list(range(1, nvars + 1))
    rng.shuffle(pool)

    def go(depth):
        if depth == 0 or rng.random() < 0.4:
            if pool and rng.random() < 0.8:
                return Var(pool.pop())
            return Tree(rng.choice(FGAB.constants))
        letter = rng.choice([F, G])
        return Tree(letter, tuple(go(depth - 1) for _ in range(letter.arity)))

    return go(2)


def random_dtop(rng, n):
    rules = {
        (letter.name, q): Term(n * letter.arity, random_linear_term(rng, n * letter.arity))
        for letter in FGAB.letters
        for q in range(1, n + 1)
    }
    return Dtop(FGAB, FGAB, n, rng.randint(1, n), rules)


def random_hom(rng):
    """A tree homomorphism: a one-state DTOP."""
    rules = {
        (letter.name, 1): Term(letter.arity, random_linear_term(rng, letter.arity))
        for letter in FGAB.letters
    }
    return Dtop(FGAB, FGAB, 1, 1, rules)


def with_foreign_letters(rng, tree, count):
    """The tree with ``count`` nodes relabelled by letters outside FGAB: an
    unknown name, or a known name with another arity."""
    nodes = preorder(tree)
    chosen = set(rng.sample(range(len(nodes)), count))
    replace = {}
    for k in chosen:
        label = nodes[k].label
        name = rng.choice([f"u{k}", next(x.name for x in FGAB.letters if x.arity != label.arity)])
        replace[id(nodes[k])] = Letter(name, label.arity)

    def go(node):
        children = tuple(go(child) for child in node.children)
        return Tree(replace.get(id(node), node.label), children)

    return go(tree)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except AlphabetMismatchError as error:
        return "error", str(error)


# --- folds against the recursive forms ----------------------------------------------


def test_folds_match_recursive_forms():
    rng = random.Random(23)
    more = random.Random(29)  # draws the models added later, leaving rng's stream as it was
    for trial in range(60):
        tree = random_tree(rng, FGAB, rng.randint(1, 200))
        algebra = random_algebra(rng, FGAB, rng.randint(1, 6))
        dtops = [random_dtop(rng, 1), random_dtop(rng, 2)]
        hom = random_hom(rng)
        langs = []  # zero, one or two annotation languages
        for _ in range(trial % 3):
            size = more.randint(1, 4)
            accepting = frozenset(e for e in range(size) if more.random() < 0.5)
            langs.append(Dbta(random_algebra(more, FGAB, size), accepting))
        assert render_tree(tree) == recursive_render_tree(tree)
        for subject in (tree, with_foreign_letters(rng, tree, min(2, tree.size()))):
            pairs = [
                (evaluate, recursive_evaluate, algebra),
                (dtop_apply, recursive_dtop_apply, dtops[0]),
                (dtop_apply, recursive_dtop_apply, dtops[1]),
                (dtop_apply, recursive_dtop_apply, hom),
                (lambda ls, t: annotate(t, ls), recursive_annotate, langs),
            ]
            for fold, reference, model in pairs:
                assert outcome(fold, model, subject) == outcome(reference, model, subject)


def test_tree_eq_hash_repr_match_dataclass_forms():
    rng = random.Random(13)
    trees = [random_tree(rng, FGAB, rng.randint(1, 12)) for _ in range(300)]
    for tree, other in zip(trees, trees[1:] + trees[:1]):
        reference = recursive_dataclass_tree(tree)
        assert repr(tree) == repr(reference)
        copy = parse_tree(render_tree(tree), FGAB)
        assert copy is not tree and copy == tree and hash(copy) == hash(tree)
        assert (tree == other) == (reference == recursive_dataclass_tree(other))
        assert (tree != other) == (reference != recursive_dataclass_tree(other))
    assert Tree(A) != reference and Tree(A).__eq__("a") is NotImplemented
    assert len({parse_tree("f(a,g(b))", FGAB), parse_tree("f(a,g(b))", FGAB), Tree(A)}) == 2


def test_foreign_letter_errors_name_the_first_in_preorder():
    # the folds meet g/2 (a known name with another arity) before u, which comes first in preorder
    tree = Tree(F, (Tree(G, (Tree(Letter("u", 0)),)), Tree(Letter("g", 2), (Tree(A), Tree(B)))))
    algebra = random_algebra(random.Random(1), FGAB, 3)
    with pytest.raises(AlphabetMismatchError, match="^letter u not in the algebra's alphabet$"):
        evaluate(algebra, tree)
    with pytest.raises(AlphabetMismatchError, match="^letter u not in the input alphabet$"):
        dtop_apply(random_dtop(random.Random(2), 2), tree)
    with pytest.raises(AlphabetMismatchError, match="^letter g not in the input alphabet$"):
        dtop_apply(random_dtop(random.Random(2), 2), Tree(F, (Tree(A), tree.children[1])))
    assert recursive_render_tree(tree) == render_tree(tree) == "f(g(u),g(a,b))"


ALGEBRA = random_algebra(random.Random(1), FGAB, 3)
DTOP = random_dtop(random.Random(2), 2)
VARIABLE_LEAF_FOLDS = {
    "evaluate": (evaluate, ALGEBRA, "the algebra's alphabet"),
    "corpus_values": (
        lambda algebra, tree: corpus_values(algebra, *children_first(tree)),
        ALGEBRA,
        "the algebra's alphabet",
    ),
}


@pytest.mark.parametrize("name", VARIABLE_LEAF_FOLDS)
def test_a_variable_leaf_is_a_foreign_letter(name):
    # the body of the term f(x1, a): a tree fold takes no variables
    fold, model, alphabet = VARIABLE_LEAF_FOLDS[name]
    with pytest.raises(AlphabetMismatchError, match=f"^letter x1 not in {alphabet}$"):
        fold(model, Tree(F, (Var(1), Tree(A))))


def test_a_variable_leaf_is_a_state_variable_of_dtop_apply():
    # the body of the term f(x1, a): out of state q, x1 is the variable q.x1,
    # flat index q with two states; a letter outside the alphabet still fails
    constants = [substitute(DTOP.rules["a", q], []) for q in (1, 2)]
    image = recursive_substitute(DTOP.rules["f", DTOP.initial], [Var(1), Var(2), *constants])
    assert dtop_apply(DTOP, Tree(F, (Var(1), Tree(A)))) == image
    with pytest.raises(AlphabetMismatchError, match="^letter u not in the input alphabet$"):
        dtop_apply(DTOP, Tree(F, (Var(1), Tree(Letter("u", 0)))))


def test_a_variable_leaf_named_like_a_letter_is_foreign():
    # over f/1, x1/0 the leaf Var(1) is still no letter: only Tree(x1) is
    alphabet = RankedAlphabet.of(("f", 1), ("x1", 0))
    algebra = FiniteAlgebra(alphabet, 2, {"f": (1, 0), "x1": (0,)})
    tree = Tree(alphabet["f"], (Var(1),))
    assert Var(1).label != alphabet["x1"] and alphabet["x1"] != Var(1).label
    assert evaluate(algebra, Tree(alphabet["f"], (Tree(alphabet["x1"]),))) == 1
    for fold in (evaluate, lambda a, t: corpus_values(a, *children_first(t))):
        with pytest.raises(AlphabetMismatchError, match="^letter x1 not in the algebra's alphabet$"):
            fold(algebra, tree)


# --- the transduction kernel against the recursive form ---------------------------------


def recursive_term_dtop_apply(dtop, body):
    """``recursive_dtop_apply`` on a tree or a term body: out of state q, a
    variable leaf x_i is the variable q.x_i, whose flat index is n*(i-1) + q."""
    n, states = dtop.n_states, range(1, dtop.n_states + 1)

    def run(node):
        if node.__class__ is Var:
            return [Var(n * (node.index - 1) + q) for q in states]
        if node.label not in dtop.input_alphabet:
            raise AlphabetMismatchError(f"letter {node.label.name} not in the input alphabet")
        env = []
        for child in node.children:
            env += run(child)
        return [recursive_substitute(dtop.rules[(node.label.name, q)], env) for q in states]

    return run(body)[dtop.initial - 1]


def output_size(dtop, body):
    """The number of nodes of the transduction, counted bottom-up per state."""
    states = range(1, dtop.n_states + 1)

    def run(node):
        if node.__class__ is Var:
            return [1 for _ in states]
        env = []
        for child in node.children:
            env += run(child)
        rules = [dtop.rules[(node.label.name, q)].body for q in states]
        return [sum(env[x.index - 1] if x.__class__ is Var else 1 for x in preorder(body))
                for body in rules]

    return run(body)[dtop.initial - 1]


def random_rule_body(rng, nvars, depth=2):
    """A term body over FGAB of depth at most ``depth``, mostly a letter at
    the root, whose leaves are mostly variables of 1..nvars, drawn with
    replacement: a rule that copies, drops and permutes its variables."""
    if depth == 0 or rng.random() < (0.1 if depth == 2 else 0.3):
        if nvars and rng.random() < 0.8:
            return Var(rng.randint(1, nvars))
        return Tree(rng.choice((A, B)))
    letter = rng.choice((F, G))
    return Tree(letter, tuple(random_rule_body(rng, nvars, depth - 1) for _ in range(letter.arity)))


def test_dtop_word_matches_the_recursive_form():
    # on trees, and on term bodies with variable leaves; outputs of at most 5,000 nodes
    rng = random.Random(31)
    compared = copying = deleting = permuting = bare = 0
    for trial in range(300):
        n = rng.randint(1, 3)
        rules = {
            (x.name, q): Term(n * x.arity, random_rule_body(rng, n * x.arity))
            for x in FGAB.letters
            for q in range(1, n + 1)
        }
        dtop = Dtop(FGAB, FGAB, n, rng.randint(1, n), rules)
        if trial % 2:
            subject = random_rule_body(rng, rng.randint(1, 3), rng.randint(2, 9))
        else:
            subject = random_tree(rng, FGAB, rng.randint(1, 60))
        if output_size(dtop, subject) > 5000:
            continue
        compared += 1
        used = [
            [x.index for x in preorder(rule.body) if x.__class__ is Var] for rule in rules.values()
        ]
        copying += any(len(set(v)) < len(v) for v in used)
        deleting += any(len(set(v)) < rule.nvars for v, rule in zip(used, rules.values()))
        permuting += any(a > b for v in used for a, b in zip(v, v[1:]))
        bare += any(rule.body.__class__ is Var for rule in rules.values())
        expected = recursive_term_dtop_apply(dtop, subject)
        word = dtop_word(dtop, subject)
        assert word == [node.label for node in preorder(expected)]
        assert dtop_word(dtop, [node.label for node in preorder(subject)]) == word
        assert dtop_apply(dtop, subject) == expected
        assert render_tree(word) == render_tree(tree_of(word)) == render_tree(expected)
    assert compared >= 250 and min(copying, deleting, permuting) >= 100 and bare >= 50


# state 1 writes f2(q1.x1, q2.x1) at each f1; state 2's f1 rule is the bare
# variable q2.x1, so every pair state 1 asks for heads a chain to the leaf
BARE_CHAIN = Dtop(SIG_LINE, SIG_POTT_K, 2, 1, {
    ("f1", 1): Term(2, Tree(SIG_POTT_K["f2"], (Var(1), Var(2)))),
    ("f1", 2): Term(2, Var(2)),
    ("f0", 1): Term(0, Tree(SIG_POTT_K["f0"])),
    ("f0", 2): Term(0, Tree(SIG_POTT_K["f0"])),
})


def test_a_chain_of_bare_variables_is_followed_once():
    # 2*depth + 1 letters out; walking each chain anew takes depth**2 / 2 steps
    for depth in range(40):
        line = parse_tree("f1(" * depth + "f0" + ")" * depth, SIG_LINE)
        expected = recursive_dtop_apply(BARE_CHAIN, line)
        assert dtop_word(BARE_CHAIN, line) == [node.label for node in preorder(expected)]
    depth = 10_000
    line = parse_word("f1(" * depth + "f0" + ")" * depth, SIG_LINE)
    with budget(2.0):
        word = dtop_word(BARE_CHAIN, line)
    assert render_tree(word) == "f2(" * depth + "f0" + ",f0)" * depth


def test_a_foreign_letter_only_in_a_deleted_subtree_is_reported():
    # the walk never visits the second child that f(x1, x2) -> x1 drops, and
    # f(x2, x1) meets the later foreign letter v first: the letter check
    # still names the first foreign letter in preorder
    f, g, a, b = FGAB.letters
    rules = {("g", 1): Term(1, Tree(g, (Var(1),))), ("a", 1): Term(0, Tree(a)),
             ("b", 1): Term(0, Tree(b))}
    drop = Dtop(FGAB, FGAB, 1, 1, {**rules, ("f", 1): Term(2, Var(1))})
    swap = Dtop(FGAB, FGAB, 1, 1, {**rules, ("f", 1): Term(2, Tree(f, (Var(2), Var(1))))})
    v = Tree(g, (Tree(Letter("v", 0)),))
    g2 = Tree(Letter("g", 2), (Tree(a), Tree(b)))
    for foreign, name in ((Tree(Letter("u", 0)), "u"), (g2, "g")):
        for hom, tree in (
            (drop, Tree(f, (Tree(a), Tree(g, (foreign,))))),
            (swap, Tree(f, (Tree(g, (foreign,)), v))),
        ):
            error = ("error", f"letter {name} not in the input alphabet")
            assert outcome(recursive_dtop_apply, hom, tree) == error
            for subject in (tree, [node.label for node in preorder(tree)]):
                assert outcome(dtop_word, hom, subject) == error
                assert outcome(dtop_apply, hom, subject) == error


# state 1 copies the tree; state 2, which state 1 never asks for, doubles each g
UNCALLED_STATE = Dtop(
    SIG_FGA,
    SIG_FGA,
    2,
    1,
    {
        ("f", 1): Term(4, fga("f", Dtop.flat_var(1, 1, 2), Dtop.flat_var(1, 2, 2))),
        ("f", 2): Term(4, fga("f", Dtop.flat_var(2, 1, 2), Dtop.flat_var(2, 2, 2))),
        ("g", 1): Term(2, fga("g", Dtop.flat_var(1, 1, 2))),
        ("g", 2): Term(2, Tree(SIG_FGA["g"], (fga("g", Dtop.flat_var(2, 1, 2)),))),
        ("a", 1): Term(0, fga("a")),
        ("a", 2): Term(0, fga("a")),
    },
)


# f with two g-chains, 1,002 nodes: running state 2 as well would make 2,999 Trees
UNCALLED_STATE_INPUT = f"f({'g(' * 500}a{')' * 500},{'g(' * 499}a{')' * 499})"


def test_dtop_apply_makes_one_tree_per_output_node(monkeypatch):
    tree = parse_tree(UNCALLED_STATE_INPUT, SIG_FGA)
    word = parse_word(UNCALLED_STATE_INPUT, SIG_FGA)
    built = []  # one entry per Tree made from here on
    check = Tree.__post_init__
    monkeypatch.setattr(Tree, "__post_init__", lambda tree: built.append(check(tree)))
    for subject in (tree, word):
        built.clear()
        assert dtop_apply(UNCALLED_STATE, subject) == tree
        assert len(built) == tree.size() == 1002
        built.clear()
        assert dtop_word(UNCALLED_STATE, subject) == word and not built


# --- a tree's word folds as the tree does ------------------------------------------------


@st.composite
def alphabets(draw):
    """A constant c, then one to four letters of arities 0 to 3."""
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    return RankedAlphabet.of(("c", 0), *((f"l{i}", arity) for i, arity in enumerate(arities)))


def linear_body(rng, alphabet, nvars):
    """A term body of one to four nodes over ``alphabet`` some of whose
    leaves are variables of 1..nvars, each at most once."""
    pool = list(range(1, nvars + 1))
    rng.shuffle(pool)

    def go(node):
        if not node.children and pool and rng.random() < 0.7:
            return Var(pool.pop())
        return Tree(node.label, tuple(go(child) for child in node.children))

    return go(random_tree(rng, alphabet, rng.randint(1, 4)))


@settings(max_examples=80)
@given(alphabets(), st.integers(1, 40), st.integers(1, 2), st.integers(0, 2**16))
def test_a_word_folds_as_its_tree(alphabet, nodes, n_states, seed):
    rng = random.Random(seed)
    tree = random_tree(rng, alphabet, nodes)
    word = parse_word(render_tree(tree), alphabet)
    algebra = random_algebra(rng, alphabet, rng.randint(1, 4))
    dbta = Dbta(algebra, frozenset(e for e in range(algebra.size) if rng.random() < 0.5))
    assert evaluate(algebra, word) == evaluate(algebra, tree)
    assert accepts(dbta, word) == accepts(dbta, tree)

    def term(nvars):
        return Term(nvars, linear_body(rng, alphabet, nvars))

    rules = {
        (letter.name, q): term(n_states * letter.arity)
        for letter in alphabet.letters
        for q in range(1, n_states + 1)
    }
    dtop = Dtop(alphabet, alphabet, n_states, rng.randint(1, n_states), rules)
    assert dtop_apply(dtop, word) == dtop_apply(dtop, tree)
    formula = random_formula(rng, alphabet, rng.randint(0, 3))
    assert ctl_eval(formula, word) == ctl_eval(formula, tree)
    hom = Dtop(alphabet, alphabet, 1, 1, {
        (letter.name, 1): term(letter.arity) for letter in alphabet.letters
    })
    assert dtop_apply(hom, word) == dtop_apply(hom, tree)

    def image(node):  # the image of a term body, whose variables map to themselves
        if node.__class__ is Var:
            return node
        return substitute(hom.rules[node.label.name, 1], [image(child) for child in node.children])

    body = linear_body(rng, alphabet, 3)
    assert dtop_apply(hom, [node.label for node in preorder(body)]) == image(body)


WIDE = RankedAlphabet.of(("w", MAX_ARITY), ("h", 3), ("f", 2), ("g", 1), ("a", 0), ("b", 0))


def test_wide_letters_fold_and_list_as_their_references():
    # arities 3 and MAX_ARITY take the generic branch of evaluate, children_first and tree_of
    rng = random.Random(37)
    wide = set()
    for _ in range(24):
        tree = random_tree(rng, WIDE, rng.randint(1, 60))
        word = [node.label for node in preorder(tree)]
        wide.update(letter.name for letter in word if letter.arity >= 3)
        algebra = random_algebra(rng, WIDE, rng.randint(2, 3))
        assert evaluate(algebra, tree) == evaluate(algebra, word) == recursive_evaluate(algebra, tree)
        positions = child_positions(preorder(tree)[::-1])  # no node is shared
        assert children_first(tree)[1] == children_first(word)[1] == positions
        assert tree_of(word) == tree
    assert wide == {"w", "h"}


F2, F1, F0 = SIG_POTT.letters
NOT_WORDS = [[F2], [F0, F0], [F2, F0], []]  # each ends too soon or goes on past its root
WORD_FUNCTIONS = {
    "evaluate": lambda word: evaluate(ALG_POTT, word),
    "children_first": children_first,
    "dtop_word": lambda word: dtop_word(identity_dtop(SIG_POTT), word),
    "ctl_eval": lambda word: ctl_eval(ctl_parse("lbl(f0)", SIG_POTT), word),
    "tree_of": tree_of,
    "render_tree": render_tree,
}


@pytest.mark.parametrize("name", WORD_FUNCTIONS)
def test_a_list_that_is_no_trees_word_raises_value_error(name):
    for word in NOT_WORDS:
        with pytest.raises(ValueError, match="^the list is no tree's preorder word$"):
            WORD_FUNCTIONS[name](word)


def test_a_foreign_letter_is_reported_before_a_list_that_is_no_word():
    # reversed, the word runs out at f2 before the fold reaches u
    word = [Letter("u", 0), F2]
    with pytest.raises(AlphabetMismatchError, match="^letter u not in the algebra's alphabet$"):
        evaluate(ALG_POTT, word)
    with pytest.raises(AlphabetMismatchError, match="^letter u not in the input alphabet$"):
        dtop_word(identity_dtop(SIG_POTT), word)


# --- trees too deep for recursion -----------------------------------------------------

DEPTH = 100_000
SPINE = "g(" * DEPTH + "a" + ")" * DEPTH


@pytest.fixture(scope="module")
def spine():
    """g(g(...g(a)...)) with DEPTH g's, parsed."""
    return parse_tree(SPINE, FGAB)


def test_deep_tree_parse_render_and_walks(spine):
    assert render_tree(spine) == SPINE
    nodes = preorder(spine)
    assert [node.label for node in nodes] == [G] * DEPTH + [A]
    assert all(node.children == (child,) for node, child in zip(nodes, nodes[1:]))
    assert spine.size() == DEPTH + 1
    assert spine.leaf_count() == 1
    assert nodes[0] is spine and len(nodes) == DEPTH + 1
    assert path_words(spine) == frozenset({((G, 1),) * DEPTH + (A,)})
    assert repr(spine) == (
        "Tree(label=Letter(name='g', arity=1), children=(" * DEPTH
        + "Tree(label=Letter(name='a', arity=0), children=())"
        + ",))" * DEPTH
    )


def test_deep_tree_folds(spine):
    rng = random.Random(5)
    base = random_algebra(rng, FGAB, 5)
    values = [base.tables["a"][0]]  # values[k]: the value of the subtree of height k
    for _ in range(DEPTH):
        values.append(base.tables["g"][values[-1]])
    assert evaluate(base, spine) == values[-1]
    mh = MatrixHom(base, FGAB, 1, {
        "f": (Term(2, Tree(F, (Var(1), Var(2)))),),
        "g": (Term(1, Tree(G, (Var(1),))),),
        "a": (Term(0, Tree(A)),),
        "b": (Term(0, Tree(B)),),
    })
    assert accepts(matrix_power_language(mh, {(values[-1],)}), spine)
    lang = Dbta(base, frozenset({0, 2}))
    bits = [int(value in lang.accepting) for value in values]
    assert render_tree(annotate(spine, [lang])) == "".join(
        f"g|{bits[k]}(" for k in range(DEPTH, 0, -1)
    ) + f"a|{bits[0]}" + ")" * DEPTH
    flat = cascade_flatten(ctl_compile(ctl_parse("DU[g.1 ; a]", FGAB), FGAB))
    state = flat.algebra.tables["a"][0]
    for _ in range(DEPTH):
        state = flat.algebra.tables["g"][state]
    assert evaluate(flat.algebra, spine) == state and accepts(flat, spine)


def test_deep_tree_ctl_eval(spine):
    holds = {
        "E[lbl(g) U lbl(a)]": True,  # every node strictly between is a g
        "E[lbl(f) U lbl(a)]": False,  # ...and none is an f
        "DU[g.1 ; a]": True,
    }
    for text, expected in holds.items():
        assert ctl_eval(ctl_parse(text, FGAB), spine) is expected, text


def test_deep_tree_transductions(spine):
    # g -> g(x1), a -> b
    rules = {"f": "f(x2,x1)", "g": "g(x1)", "a": "b", "b": "a"}
    terms = {
        letter.name: parse_term(rules[letter.name], FGAB, letter.arity) for letter in FGAB.letters
    }
    image = "g(" * DEPTH + "b" + ")" * DEPTH
    dtop = Dtop(FGAB, FGAB, 1, 1, {(name, 1): term for name, term in terms.items()})
    by_dtop = dtop_apply(dtop, spine)
    built = Tree(B)
    for _ in range(DEPTH):
        built = Tree(G, (built,))
    assert render_tree(by_dtop) == image
    # two deep trees built apart: equal, with equal hashes; the spine differs at the leaf
    assert by_dtop is not built and by_dtop == built and hash(by_dtop) == hash(built)
    assert by_dtop != spine and not by_dtop == spine


def test_deep_tree_dtta_accepts(spine):
    # each g swaps states 0 and 1; a leaf a is accepted from state 0 only
    delta = {(q, name): (1 - q,) * arity for q in (0, 1) for name, arity in (("f", 2), ("g", 1))}
    leaf_ok = frozenset({(0, "a")})
    assert dtta_accepts(Dtta(FGAB, 2, 0, delta, leaf_ok), spine)  # DEPTH is even
    assert not dtta_accepts(Dtta(FGAB, 2, 1, delta, leaf_ok), spine)


TERM_DEPTH = 10_000


def test_deep_terms():
    text = "g(" * TERM_DEPTH + "f(x2,a)" + ")" * TERM_DEPTH
    term = parse_term(text, FGAB, 2)
    assert render_tree(term.body) == text
    again = parse_term(text, FGAB, 2)
    assert again is not term and again == term and hash(again) == hash(term)
    assert term != parse_term(text.replace("x2", "x1"), FGAB, 2)
    algebra = random_algebra(random.Random(7), FGAB, 4)
    tables = algebra.tables
    tower = list(range(4))  # tower[v]: the value of g(...g(v)...) with TERM_DEPTH g's
    for _ in range(TERM_DEPTH):
        tower = [tables["g"][v] for v in tower]
    for env in itertools.product(range(4), repeat=2):
        value = tower[tables["f"][4 * env[1] + tables["a"][0]]]
        assert eval_term_in_algebra(algebra, term, env) == value
    assert render_tree(substitute(term, [Tree(A), Tree(B)])) == text.replace("x2", "b")
    # f -> f(x2,x1), g -> g(x1), a <-> b; the variables map to themselves
    rules = {"f": "f(x2,x1)", "g": "g(x1)", "a": "b", "b": "a"}
    hom = Dtop(FGAB, FGAB, 1, 1, {
        (letter.name, 1): parse_term(rules[letter.name], FGAB, letter.arity)
        for letter in FGAB.letters
    })
    image = "g(" * TERM_DEPTH + "f(b,x2)" + ")" * TERM_DEPTH
    assert Term(2, dtop_apply(hom, term.body)) == parse_term(image, FGAB, 2)


# --- no function calls itself ----------------------------------------------------------

# the recursion each allows, with its bound
RECURSION_ALLOWED = {
    "trees._compositions": "at most MAX_ARITY + 1 deep: one level per part, one for the end",
    "automata._fresh_tuples": "at most MAX_ARITY deep: one level per argument",
}


def self_calls(module):
    """The functions of ``treelab.<module>``, nested ones included, that call
    themselves by bare name, as ``module.outer.inner``.  Method calls such as
    ``self.get(...)`` do not count."""
    found = []
    pending = [(module, ast.parse((Path(treelab.__file__).parent / f"{module}.py").read_text()))]
    while pending:
        prefix, node = pending.pop()
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == child.name
                    for call in ast.walk(child)
                ):
                    found.append(name)
            pending.append((name, child))
    return found


GUARDED_MODULES = (
    "trees", "automata", "transduce", "paths", "oracle", "structure", "cli", "cascade", "syntactic"
)


def test_no_tree_or_term_walk_calls_itself():
    found = [name for module in GUARDED_MODULES for name in self_calls(module)]
    assert sorted(found) == sorted(RECURSION_ALLOWED)


# --- no module imports a name it never reads -------------------------------------------


def unused_imports(path):
    """The names that the top-level imports of the module at ``path`` bind
    and that no name in it reads.  ``from __future__`` imports bind none."""
    module = ast.parse(path.read_text())
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in module.body
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # the package's __init__ imports its exports, which it never reads itself
    sources = sorted(Path(treelab.__file__).parent.glob("*.py"))
    paths = [path for path in sources if path.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = {path.name: unused_imports(path) for path in paths}
    assert {name: names for name, names in found.items() if names} == {}
