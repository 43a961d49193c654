"""Round trips through the text forms, and a fuzz of the file formats.

parse∘render = id for trees and terms, and save∘load = id for all five file
formats, on drawn alphabets, algebras, automata and terms.  A dtop file
writes its variables as qP.xJ, and a matrix file its element constants as @E.
Files that save_* writes, then mutated line by line, make a command end in
exit 0, 2 or 3, never in a traceback.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.automata import Dbta, FiniteAlgebra, with_constants
from treelab.cli import (
    load_alphabet,
    load_dbta,
    load_dtop,
    load_dtta,
    load_matrix,
    main,
    save_alphabet,
    save_dbta,
    save_dtop,
    save_dtta,
    save_matrix,
)
from treelab.errors import ParseError
from treelab.paths import Dtta
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
SETTINGS = settings(max_examples=12)


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


def assert_round_trip(save, load, value):
    text = save(value)
    assert load(text) == value
    assert save(load(text)) == text


@SETTINGS
@given(alphabets())
def test_alphabet_files_round_trip(alphabet):
    assert_round_trip(save_alphabet, load_alphabet, alphabet)


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
def dbtas(draw, named):
    algebra = draw(algebras())
    names = st.lists(NAMES, min_size=algebra.size, max_size=algebra.size, unique=True)
    named_algebra = FiniteAlgebra(
        algebra.alphabet, algebra.size, algebra.tables, tuple(draw(names)) if named else None
    )
    return Dbta(named_algebra, draw(st.frozensets(st.integers(0, algebra.size - 1))))


@pytest.mark.parametrize("named", (False, True), ids=("plain", "names"))
def test_dbta_files_round_trip(named):
    @SETTINGS
    @given(dbtas(named))
    def check(dbta):
        assert_round_trip(save_dbta, load_dbta, dbta)

    check()


@st.composite
def dttas(draw):
    alphabet = draw(alphabets())
    n = draw(st.integers(1, 3))
    states = st.integers(0, n - 1)
    delta = {
        (q, letter.name): tuple(draw(st.tuples(*[states] * letter.arity)))
        for q in range(n)
        for letter in alphabet.letters
        if letter.arity
    }
    leaves = [(q, letter.name) for q in range(n) for letter in alphabet.constants]
    leaf_ok = draw(st.frozensets(st.sampled_from(leaves)))
    return Dtta(alphabet, n, draw(states), delta, leaf_ok)


@SETTINGS
@given(dttas())
def test_dtta_files_round_trip(dtta):
    assert_round_trip(save_dtta, load_dtta, dtta)


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
    assert_round_trip(save_dtop, load_dtop, dtop)


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
    assert_round_trip(save_matrix, load_matrix, mh)


# --- fuzz ----------------------------------------------------------------------------

# one command that reads each format; a dtta file is only written (by `separate`)
FORMATS = {
    "alphabet": (alphabets(), save_alphabet, lambda path, value: (
        "ctl", "verify", "--alphabet", path, "--count", "1", "--max-nodes", "3"
    )),
    "dbta": (dbtas(False) | dbtas(True), save_dbta, lambda path, value: (
        "minimize", "--lang", path
    )),
    "dtta": (dttas(), save_dtta, None),
    "dtop": (dtops(), save_dtop, lambda path, value: (
        "dtop", "apply", "--dtop", path, "--tree", value.input_alphabet.letters[0].name
    )),
    "matrix": (matrix_homs(), save_matrix, lambda path, value: (
        "matrix", "flatten", "--matrix", path
    )),
}
# integers up to a billion too: no loader builds a structure as large as a
# file's `width`, `states` or `carrier` before its rows bound it
TOKENS = (
    st.sampled_from(["->", "x1", "@0", "q1.x1", "f(a,", "#", "accept", "op"])
    | st.integers(-2, 40).map(str)
    | st.integers(-2, 10**9).map(str)
    | st.text(min_size=1, max_size=3)
)


@st.composite
def mutations(draw, text):
    """The text with one line dropped, doubled or swapped with another, or
    one field of a line replaced by a drawn token."""
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["drop", "double", "swap", "replace"]))
    if how == "drop":
        del lines[i]
    elif how == "double":
        lines.insert(i, lines[i])
    elif how == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].split()
        fields[draw(st.integers(0, len(fields) - 1))] = draw(TOKENS)
        lines[i] = " ".join(fields) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("kind", FORMATS)
def test_mutated_files_end_in_an_exit_code(kind, tmp_path_factory):
    values, save, command = FORMATS[kind]
    path = str(tmp_path_factory.mktemp(kind) / f"fuzz.{kind}")

    @settings(max_examples=12)
    @given(values.flatmap(lambda value: st.tuples(st.just(value), mutations(save(value)))))
    def check(case):
        value, text = case
        if command is None:
            with contextlib.suppress(ParseError):
                load_dtta(text)
            return
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(command(path, value)))
        assert code in (0, 2, 3) and "Traceback" not in err.getvalue()

    check()
