"""Round trips through the text forms: parse∘render = id for trees and terms,
and save∘load = id for the two file formats that carry terms, on drawn
alphabets, algebras and terms.  A dtop file writes its variables as qP.xJ,
and a matrix file its element constants as @E."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.automata import FiniteAlgebra, with_constants
from treelab.cli import load_dtop, load_matrix, save_dtop, save_matrix
from treelab.transduce import Dtop, MatrixHom
from treelab.trees import (
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    Var,
    parse_term,
    parse_tree,
    render_tree,
)

# names a term or file reads as a variable or an element constant
RESERVED = re.compile(r"x[0-9]+|q[0-9]+\.x[0-9]+|@[0-9]+")
NAMES = st.text("abfgqx01_@.|'", min_size=1, max_size=3).filter(
    lambda name: not RESERVED.fullmatch(name)
)
SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


@st.composite
def alphabets(draw, max_arity=3, max_letters=5):
    """Two to ``max_letters`` letters with drawn names; the first is a constant."""
    names = draw(st.lists(NAMES, min_size=2, max_size=max_letters, unique=True))
    arities = [0] + [draw(st.integers(0, max_arity)) for _ in names[1:]]
    return RankedAlphabet(tuple(map(Letter, names, arities)))


def bodies(alphabet, nvars=0):
    """Terms over ``alphabet`` whose leaves are its constants or x1..x{nvars}."""
    leaves = [Tree(letter) for letter in alphabet.constants] + [
        Var(i) for i in range(1, nvars + 1)
    ]
    inner = [letter for letter in alphabet.letters if letter.arity]

    def extend(sub):
        return st.one_of(*(
            st.tuples(*[sub] * letter.arity).map(lambda kids, letter=letter: Tree(letter, kids))
            for letter in inner
        ))

    leaf = st.sampled_from(leaves)
    return st.recursive(leaf, extend, max_leaves=10) if inner else leaf


@st.composite
def trees_and_terms(draw):
    alphabet = draw(alphabets())
    nvars = draw(st.integers(1, 3))
    return alphabet, draw(bodies(alphabet)), Term(nvars, draw(bodies(alphabet, nvars)))


@SETTINGS
@given(trees_and_terms())
def test_parse_render_trees_and_terms(case):
    alphabet, tree, term = case
    assert parse_tree(render_tree(tree), alphabet) == tree
    assert parse_term(render_tree(term.body), alphabet, term.nvars) == term


@st.composite
def algebras(draw):
    alphabet = draw(alphabets(max_arity=2, max_letters=3))
    size = draw(st.integers(1, 3))
    tables = {
        letter.name: tuple(draw(st.lists(
            st.integers(0, size - 1), min_size=size**letter.arity, max_size=size**letter.arity
        )))
        for letter in alphabet.letters
    }
    names = draw(st.none() | st.lists(NAMES, min_size=size, max_size=size, unique=True))
    return FiniteAlgebra(alphabet, size, tables, names and tuple(names))


@st.composite
def dtops(draw):
    inputs, outputs = draw(alphabets(max_arity=2, max_letters=3)), draw(alphabets())
    n = draw(st.integers(1, 2))
    rules = {
        (letter.name, q): Term(n * letter.arity, draw(bodies(outputs, n * letter.arity)))
        for letter in inputs.letters
        for q in range(1, n + 1)
    }
    return Dtop(inputs, outputs, n, draw(st.integers(1, n)), rules)


@SETTINGS
@given(dtops())
def test_dtop_files_round_trip(dtop):
    text = save_dtop(dtop)
    assert load_dtop(text) == dtop
    assert save_dtop(load_dtop(text)) == text


@st.composite
def matrix_homs(draw):
    base, inputs = draw(algebras()), draw(alphabets(max_arity=2, max_letters=3))
    extended = with_constants(base).alphabet
    width = draw(st.integers(1, 2))
    tuples = {
        letter.name: tuple(
            Term(width * letter.arity, draw(bodies(extended, width * letter.arity)))
            for _ in range(width)
        )
        for letter in inputs.letters
    }
    return MatrixHom(base, inputs, width, tuples)


@SETTINGS
@given(matrix_homs())
def test_matrix_files_round_trip(mh):
    text = save_matrix(mh)
    assert load_matrix(text) == mh
    assert save_matrix(load_matrix(text)) == text
