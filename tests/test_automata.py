import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_transduce import identity_dtop

from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    are_equivalent,
    boolean_combine,
    complement,
    corpus_values,
    evaluate,
    is_empty,
    product_algebra,
    product_witness,
    reachable,
    reachable_elements,
    smallest_trees,
    subset_counterexample,
)
from treelab.errors import AlphabetMismatchError
from treelab.fixtures import (
    ALG_POTT,
    DBTA_POTT,
    L_PAIR,
    L_TWO,
    SIG_GCD,
    SIG_LINE,
    SIG_POTT,
)
from treelab.transduce import dtop_preimage
from treelab.trees import (
    Letter,
    RankedAlphabet,
    children_first,
    enumerate_trees,
    parse_tree,
    preorder,
    render_tree,
    tree_corpus,
)


def leaf_depths(tree, depth=0):
    if not tree.children:
        yield depth
    for child in tree.children:
        yield from leaf_depths(child, depth + 1)


def every_leaf_even(tree):
    return all(d % 2 == 0 for d in leaf_depths(tree))


def test_evaluate_pott_printed_tables():
    assert evaluate(ALG_POTT, parse_tree("f0", SIG_POTT)) == 0
    assert evaluate(ALG_POTT, parse_tree("f1(f0)", SIG_POTT)) == 1
    assert evaluate(ALG_POTT, parse_tree("f2(f1(f0),f0)", SIG_POTT)) == 2  # bot


def test_evaluate_compositional():
    for tree in enumerate_trees(SIG_POTT, 5):
        args = [evaluate(ALG_POTT, child) for child in tree.children]
        assert evaluate(ALG_POTT, tree) == ALG_POTT.op(tree.label.name, args)


def test_accepts_pott():
    assert accepts(DBTA_POTT, parse_tree("f0", SIG_POTT))
    assert not accepts(DBTA_POTT, parse_tree("f1(f0)", SIG_POTT))


def test_pott_language_is_every_leaf_even():
    for tree in enumerate_trees(SIG_POTT, 7):
        assert accepts(DBTA_POTT, tree) == every_leaf_even(tree)


def test_empty_accepting_rejects_all():
    dead = Dbta(ALG_POTT, frozenset())
    assert all(not accepts(dead, t) for t in enumerate_trees(SIG_POTT, 5))


def test_complement():
    assert accepts(complement(DBTA_POTT), parse_tree("f1(f0)", SIG_POTT))
    twice = complement(complement(DBTA_POTT))
    for tree in enumerate_trees(SIG_POTT, 6):
        assert accepts(twice, tree) == accepts(DBTA_POTT, tree)
    full = Dbta(ALG_POTT, frozenset(range(3)))
    assert all(not accepts(complement(full), t) for t in enumerate_trees(SIG_POTT, 5))


def test_boolean_combine_pointwise():
    for kind, op in (
        ("union", lambda a, b: a or b),
        ("intersection", lambda a, b: a and b),
        ("difference", lambda a, b: a and not b),
    ):
        combined = boolean_combine(kind, L_PAIR, L_TWO)
        for tree in enumerate_trees(SIG_GCD, 7):
            assert accepts(combined, tree) == op(accepts(L_PAIR, tree), accepts(L_TWO, tree))


def test_union_with_complement_is_full():
    union = boolean_combine("union", DBTA_POTT, complement(DBTA_POTT))
    assert all(accepts(union, t) for t in enumerate_trees(SIG_POTT, 6))


def test_intersection_pair_two_empty():
    inter = boolean_combine("intersection", L_PAIR, L_TWO)
    assert is_empty(inter) is None
    assert all(not accepts(inter, t) for t in enumerate_trees(SIG_GCD, 5))


def test_difference_self_empty():
    assert is_empty(boolean_combine("difference", L_PAIR, L_PAIR)) is None


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatchError):
        boolean_combine("union", L_PAIR, DBTA_POTT)


def test_are_equivalent_reflexive():
    equal, witness = are_equivalent(DBTA_POTT, DBTA_POTT)
    assert equal and witness is None


def test_are_equivalent_pair_vs_two_witness():
    equal, witness = are_equivalent(L_PAIR, L_TWO)
    assert not equal
    assert witness.size() == 3  # a smallest distinguishing tree
    assert accepts(L_PAIR, witness) != accepts(L_TWO, witness)
    assert render_tree(witness) in ("g(c,d)", "g(c,c)", "g(d,d)", "g(d,c)")


def test_are_equivalent_vs_complement():
    equal, witness = are_equivalent(L_PAIR, complement(L_PAIR))
    assert not equal
    # smallest tree over the alphabet distinguishes a language from its complement
    assert witness.size() == min(t.size() for t in enumerate_trees(SIG_GCD, 3))


def test_is_empty_witness_minimal():
    assert is_empty(Dbta(ALG_POTT, frozenset())) is None
    witness = is_empty(DBTA_POTT)
    assert render_tree(witness) == "f0"
    witness = is_empty(L_PAIR)
    assert render_tree(witness) == "g(c,d)"
    # minimality vs brute force
    accepted = [t for t in enumerate_trees(SIG_GCD, 5) if accepts(L_PAIR, t)]
    assert witness.size() == min(t.size() for t in accepted)


def test_reachable_pott_all_three():
    result = reachable(DBTA_POTT)
    assert result.elements == frozenset({0, 1, 2})


def test_reachable_excludes_junk():
    # add an unreachable junk element 3 on top of the Pott algebra
    tables = {
        "f0": (0,),
        "f1": (1, 0, 2, 3),
        "f2": tuple(
            ALG_POTT.op("f2", (a, b)) if a < 3 and b < 3 else 3
            for a in range(4)
            for b in range(4)
        ),
    }
    padded = Dbta(FiniteAlgebra(SIG_POTT, 4, tables), frozenset({0}))
    result = reachable(padded)
    assert result.elements == frozenset({0, 1, 2})
    equal, _ = are_equivalent(result.dbta, DBTA_POTT)
    assert equal
    # restriction recognises the same language as the padded original
    for tree in enumerate_trees(SIG_POTT, 6):
        assert accepts(result.dbta, tree) == accepts(padded, tree)


def test_preimage_identity_hom():
    ident = identity_dtop(SIG_POTT)
    pre = dtop_preimage(DBTA_POTT, ident)
    equal, _ = are_equivalent(pre, DBTA_POTT)
    assert equal


def test_subset_counterexample():
    assert subset_counterexample(L_PAIR, L_PAIR) is None
    witness = subset_counterexample(L_PAIR, L_TWO)
    assert accepts(L_PAIR, witness) and not accepts(L_TWO, witness)


def test_table_row_major_convention():
    # op() indexing must match itertools.product enumeration order
    for letter in SIG_GCD.letters:
        for i, args in enumerate(itertools.product(range(4), repeat=letter.arity)):
            assert L_PAIR.algebra.tables[letter.name][i] == L_PAIR.algebra.op(letter.name, args)


# --- witness order and agreement with brute force ----------------------------------

SIG_GAB = RankedAlphabet.of(("g", 1), ("a", 0), ("b", 0))
# a -> 1, b -> 0, g -> 2: g(a) and g(b) tie on node count, and g(a) renders first.
ALG_GAB = FiniteAlgebra(SIG_GAB, 3, {"g": (2, 2, 2), "a": (1,), "b": (0,)})


def test_is_empty_ties_break_on_rendering():
    witness = is_empty(Dbta(ALG_GAB, frozenset({2})))
    assert render_tree(witness) == "g(a)"


def test_are_equivalent_ties_break_on_rendering():
    equal, witness = are_equivalent(
        Dbta(ALG_GAB, frozenset({2})), Dbta(ALG_GAB, frozenset())
    )
    assert not equal and render_tree(witness) == "g(a)"


# Alphabet order differs from rendering order in each; the third has a name
# that is a proper prefix of another.
RANDOM_ALPHABETS = (
    RankedAlphabet.of(("g", 1), ("f", 2), ("b", 0), ("a", 0)),
    RankedAlphabet.of(("h", 3), ("g", 1), ("d", 0), ("c", 0)),
    RankedAlphabet.of(("f", 2), ("ab", 0), ("a", 0), ("g", 1)),
)
BRUTE_NODES = 7


def random_algebra(rng, alphabet, size):
    """Tables drawn cell by cell, letters in alphabet order: the one seeded
    draw of the test modules."""
    tables = {
        letter.name: tuple(rng.randrange(size) for _ in range(size**letter.arity))
        for letter in alphabet.letters
    }
    return FiniteAlgebra(alphabet, size, tables)


def random_dbta(rng, alphabet):
    size = rng.randint(1, 7)
    accepting = frozenset(e for e in range(size) if rng.random() < 0.4)
    return Dbta(random_algebra(rng, alphabet, size), accepting)


def permuted_copy(rng, dbta):
    """An isomorphic copy under a random renumbering, with one acceptance bit
    flipped half of the time."""
    algebra = dbta.algebra
    perm = list(range(algebra.size))
    rng.shuffle(perm)
    inverse = {new: old for old, new in enumerate(perm)}
    tables = {
        letter.name: tuple(
            perm[algebra.op(letter.name, [inverse[y] for y in args])]
            for args in algebra.arg_tuples(letter.arity)
        )
        for letter in algebra.alphabet.letters
    }
    accepting = {perm[e] for e in dbta.accepting}
    if rng.random() < 0.5:
        accepting ^= {rng.randrange(algebra.size)}
    return Dbta(FiniteAlgebra(algebra.alphabet, algebra.size, tables), frozenset(accepting))


def values_of(algebra, trees):
    """The value of every tree; children come before parents in ``trees``."""
    value: dict[int, int] = {}
    for tree in trees:
        value[id(tree)] = algebra.op(tree.label.name, [value[id(c)] for c in tree.children])
    return [value[id(tree)] for tree in trees]


def assert_least(found, ranked, holds, tree_holds):
    """``found`` is the first tree of ``ranked`` that ``holds``; when none up to
    BRUTE_NODES nodes does, it is None or a larger tree that holds."""
    expected = next((tree for index, tree in ranked if holds(index)), None)
    if expected is not None:
        assert found == expected, (render_tree(found) if found else None, render_tree(expected))
    else:
        assert found is None or (found.size() > BRUTE_NODES and tree_holds(found))


def test_witnesses_are_least_against_brute_force():
    rng = random.Random(20171)
    pairs = 0
    for alphabet in RANDOM_ALPHABETS:
        trees = enumerate_trees(alphabet, BRUTE_NODES)
        ranked = sorted(enumerate(trees), key=lambda item: (item[1].size(), render_tree(item[1])))
        for _ in range(110):
            d1 = random_dbta(rng, alphabet)
            d2 = permuted_copy(rng, d1) if rng.random() < 0.3 else random_dbta(rng, alphabet)
            v1, v2 = values_of(d1.algebra, trees), values_of(d2.algebra, trees)
            in1 = [v in d1.accepting for v in v1]
            in2 = [v in d2.accepting for v in v2]

            equal, witness = are_equivalent(d1, d2)
            assert equal == (witness is None)
            assert_least(
                witness, ranked, lambda i: in1[i] != in2[i],
                lambda t: accepts(d1, t) != accepts(d2, t),
            )
            assert_least(
                subset_counterexample(d1, d2), ranked, lambda i: in1[i] and not in2[i],
                lambda t: accepts(d1, t) and not accepts(d2, t),
            )
            assert_least(
                product_witness(d1, d2, operator.and_), ranked, lambda i: in1[i] and in2[i],
                lambda t: accepts(d1, t) and accepts(d2, t),
            )
            assert_least(is_empty(d1), ranked, lambda i: in1[i], lambda t: accepts(d1, t))
            least = smallest_trees(d1.algebra)
            for element, tree in least.items():
                assert evaluate(d1.algebra, tree) == element
                assert_least(tree, ranked, lambda i: v1[i] == element, lambda t: True)
            assert set(least) == reachable_elements(d1.algebra)
            pairs += 1
    assert pairs >= 300


def test_product_algebra_matches_reference_fill():
    rng = random.Random(1703)
    alphabet = RankedAlphabet.of(("k", 3), ("f", 2), ("g", 1), ("a", 0))
    for _ in range(40):
        n1, n2 = rng.sample(range(1, 5), 2)
        a, b = random_algebra(rng, alphabet, n1), random_algebra(rng, alphabet, n2)
        product = product_algebra(a, b)
        assert product.size == n1 * n2
        for letter in alphabet.letters:
            reference = tuple(
                a.op(letter.name, [p // n2 for p in args]) * n2
                + b.op(letter.name, [p % n2 for p in args])
                for args in product.arg_tuples(letter.arity)
            )
            assert product.tables[letter.name] == reference


def test_table_entries_must_lie_in_the_carrier():
    def tables(f2=(0, 1, 2, 2, 1, 0, 0, 0, 2)):
        return {"f2": f2, "f1": (2, 0, 1), "f0": (1,)}

    assert FiniteAlgebra(SIG_POTT, 3, tables()).tables["f2"][2] == 2
    for bad in (-1, 3, 10**9):
        for at in (0, 4, 8):
            row = list(tables()["f2"])
            row[at] = bad
            with pytest.raises(ValueError, match="^table for f2 has out-of-range entries$"):
                FiniteAlgebra(SIG_POTT, 3, tables(tuple(row)))
    # the length is checked before the range, per letter in alphabet order
    with pytest.raises(ValueError, match="^table for f2 has wrong length$"):
        FiniteAlgebra(SIG_POTT, 3, tables((5,) * 8))
    with pytest.raises(ValueError, match="^table for f1 has out-of-range entries$"):
        FiniteAlgebra(SIG_POTT, 3, {**tables(), "f1": (0, 3, 0), "f0": (7,)})


@st.composite
def algebras(draw):
    alphabet = draw(st.sampled_from([SIG_POTT, SIG_GCD, SIG_LINE, RANDOM_ALPHABETS[1]]))
    size = draw(st.integers(1, 5))
    entries = st.integers(0, size - 1)
    tables = {
        letter.name: tuple(draw(st.lists(entries, min_size=n, max_size=n)))
        for letter in alphabet.letters
        for n in [size**letter.arity]
    }
    return FiniteAlgebra(alphabet, size, tables)


@settings(max_examples=25)
@given(algebras())
def test_corpus_fold_agrees_with_evaluate(algebra):
    trees = enumerate_trees(algebra.alphabet, 6)
    values = corpus_values(algebra, *tree_corpus(algebra.alphabet, 6))
    assert values == [evaluate(algebra, tree) for tree in trees]
    nodes = preorder(trees[-1])
    nodes.reverse()
    assert corpus_values(algebra, *children_first(trees[-1])) == [
        evaluate(algebra, node) for node in nodes
    ]


def test_corpus_fold_looks_up_once_per_tree():
    lookups = [0]

    class CountingTable(tuple):
        def __getitem__(self, index):
            lookups[0] += 1
            return tuple.__getitem__(self, index)

    rng = random.Random(4)
    for alphabet in (SIG_POTT, SIG_GCD, RANDOM_ALPHABETS[1]):
        letters, kids = tree_corpus(alphabet, 7)
        for size in (1, 3, 6):
            plain = random_algebra(rng, alphabet, size)
            counting = FiniteAlgebra(alphabet, size, {
                name: CountingTable(table) for name, table in plain.tables.items()
            })
            lookups[0] = 0
            values = corpus_values(counting, letters, kids)
            assert lookups[0] == len(letters)
            assert values == corpus_values(plain, letters, kids)


def test_corpus_fold_names_the_first_foreign_letter():
    algebra = random_algebra(random.Random(2), SIG_POTT, 3)
    f0 = SIG_POTT["f0"]
    letters, kids = [f0, f0, Letter("f1", 2), Letter("u", 0)], [(), (), (1, 1), ()]
    with pytest.raises(AlphabetMismatchError, match="^letter f1 not in the algebra's alphabet$"):
        corpus_values(algebra, letters, kids)
