"""Round trips through the text forms, and a fuzz of the file formats.

parse∘render = id for trees and terms, and save∘load = id for all five file
formats, on drawn alphabets, algebras, automata and terms.  A dtop file
writes its variables as qP.xJ, and a matrix file its element constants as @E.
Files that save_* writes, then mutated line by line, make a command end in
exit 0, 2 or 3, never in a traceback.
"""

import contextlib
import io
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab import cli
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
from treelab.fixtures import CORPUS
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
def algebras(draw, max_size=3, max_arity=2):
    alphabet = draw(alphabets(max_arity=max_arity, max_letters=3))
    size = draw(st.integers(1, max_size))
    tables = {
        letter.name: tuple(draw(st.lists(
            st.integers(0, size - 1), min_size=size**letter.arity, max_size=size**letter.arity
        )))
        for letter in alphabet.letters
    }
    names = draw(st.none() | st.lists(NAMES, min_size=size, max_size=size, unique=True))
    return FiniteAlgebra(alphabet, size, tables, names and tuple(names))


@st.composite
def dbtas(draw, named, bases=algebras()):
    algebra = draw(bases)
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
def matrix_homs(draw, bases=algebras()):
    base, inputs = draw(bases), draw(alphabets(max_arity=2, max_letters=3))
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


# --- the op-row reader and the algebra writer against the forms they replaced --------
#
# ``row_by_row_doc`` and ``row_by_row_ops`` are the earlier readers of a file's
# lines and of its `op` rows: every row went through each check in turn, and
# every field through ``cli._int``.  ``formatted_algebra_rows`` is the earlier
# writer of an algebra block, which formatted every entry.  All are kept as
# references.


def row_by_row_doc(doc, text, kind, keywords):
    doc.rows = {}
    for number, line in enumerate(text.splitlines(), start=1):
        fields = line.split("#", 1)[0].split()
        if fields:
            doc.rows.setdefault(fields[0], []).append((number, fields[1:]))
    unknown = doc.rows.keys() - set(keywords)
    if unknown:
        raise ParseError(f"unexpected keyword {sorted(unknown)[0]!r} in {kind} file")


def row_by_row_ops(doc, alphabet, size):
    cells = {letter.name: (letter.arity, {}) for letter in alphabet.letters}
    for number, row in doc.take("op"):
        if len(row) < 3 or row[-2] != "->":
            cli._fail(number, "expected `op NAME e1 .. en -> e`")
        name = row[0]
        entry = cells.get(name)
        if entry is None:
            cli._fail(number, f"unknown letter {name!r}")
        arity, table = entry
        values = [cli._int(number, x, "carrier element") for x in row[1:-2]]
        value = cli._int(number, row[-1], "carrier element")
        if len(values) != arity:
            cli._fail(number, f"{name} takes {arity} arguments")
        if not all(0 <= x < size for x in (*values, value)):
            cli._fail(number, "element out of carrier range")
        index = 0
        for x in values:
            index = index * size + x
        if index in table:
            cli._fail(number, f"duplicate op row for {name} {tuple(values)}")
        table[index] = value
    out = {}
    for letter in alphabet.letters:
        table = cells[letter.name][1]
        expected = size**letter.arity
        if len(table) != expected:
            raise ParseError(
                f"letter {letter.name} needs {expected} op rows, found {len(table)}"
            )
        out[letter.name] = tuple(map(table.__getitem__, range(expected)))
    return out


def formatted_algebra_rows(algebra, letter_keyword):
    out = [save_alphabet(algebra.alphabet, letter_keyword), f"carrier {algebra.size}\n"]
    if algebra.element_names is not None:
        out.append("names " + " ".join(algebra.element_names) + "\n")
    numbers = [str(e) for e in range(algebra.size)]
    arguments = {}
    for letter in algebra.alphabet.letters:
        texts = arguments.get(letter.arity)
        if texts is None:
            texts = arguments[letter.arity] = [
                " ".join(("",) + args)
                for args in itertools.product(numbers, repeat=letter.arity)
            ]
        head = f"op {letter.name}"
        out += [
            f"{head}{args} -> {value}\n"
            for args, value in zip(texts, algebra.tables[letter.name])
        ]
    return out


def read_or_refuse(load, text):
    """``load(text)``, or the text of the ParseError that it raises."""
    try:
        return load(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def read_row_by_row(load, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli._Doc, "__init__", row_by_row_doc)
        patch.setattr(cli, "_parse_ops", row_by_row_ops)
        return read_or_refuse(load, text)


# besides TOKENS, fields that `int` reads, though no save writes them
OP_TOKENS = TOKENS | st.sampled_from(["+1", "1_0", "00", "-0", "\u0663", str(10**9 + 7)])


@st.composite
def op_row_edits(draw, text):
    """The text with its `op` rows shuffled, then up to three of them dropped,
    doubled, given one field drawn from OP_TOKENS, or given the letter of
    another `op` row."""
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith("op ")]
    rows = draw(st.permutations([lines[i] for i in at]))
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        how = draw(st.sampled_from(["drop", "double", "replace", "rename"]))
        if how == "drop":
            del rows[i]
        elif how == "double":
            rows.insert(i, rows[i])
        else:
            fields = rows[i].split()
            if how == "rename":  # a letter that may take another number of arguments
                fields[1] = draw(st.sampled_from(rows)).split()[1]
            else:
                fields[draw(st.integers(0, len(fields) - 1))] = draw(OP_TOKENS)
            rows[i] = " ".join(fields) + "\n"
    lines[at[0] : at[-1] + 1] = rows
    return "".join(lines)


@pytest.mark.parametrize("kind, load, examples", [
    ("dbta", load_dbta, 150), ("matrix", load_matrix, 30),
])
def test_op_rows_read_as_the_row_by_row_reader_reads_them(kind, load, examples):
    values, save, _ = FORMATS[kind]

    @settings(max_examples=examples)
    @given(values.flatmap(lambda value: op_row_edits(save(value))))
    def check(text):
        assert read_or_refuse(load, text) == read_row_by_row(load, text)

    check()


@pytest.mark.parametrize("rows, message", [
    ("op g 1 -> 2\nop a 0\n", "line 5: element out of carrier range"),
    ("op a 0\nop g 1 -> 2\n", "line 5: expected `op NAME e1 .. en -> e`"),
])
def test_the_earlier_of_two_faulty_op_rows_is_reported(rows, message):
    # line 6's fault comes first among a row's checks in the first case
    text = f"letter g 1\nletter a 0\ncarrier 2\nop g 0 -> 1\n{rows}accept 0\n"
    assert read_or_refuse(load_dbta, text) == f"ParseError: {message}"
    assert read_row_by_row(load_dbta, text) == f"ParseError: {message}"


def identity_matrix(algebra):
    """The width-1 matrix form whose tuple for each letter is that letter."""
    def term(letter):
        return Term(letter.arity, Tree(letter, tuple(map(Var, range(1, letter.arity + 1)))))

    return MatrixHom(algebra, algebra.alphabet, 1, {
        letter.name: (term(letter),) for letter in algebra.alphabet.letters
    })


LARGER = algebras(max_size=5, max_arity=3)
SAVES = {
    "dbta": (dbtas(False, LARGER) | dbtas(True, LARGER), save_dbta, lambda dbta: dbta),
    "matrix": (matrix_homs(LARGER), save_matrix, lambda dbta: identity_matrix(dbta.algebra)),
}


@pytest.mark.parametrize("kind", SAVES)
def test_saves_are_the_bytes_the_formatted_writer_wrote(kind):
    values, save, from_corpus = SAVES[kind]

    def assert_same_bytes(value):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_algebra_rows", formatted_algebra_rows)
            expected = save(value)
        assert save(value) == expected

    settings(max_examples=25)(given(values)(assert_same_bytes))()
    for _, dbta in CORPUS:
        assert_same_bytes(from_corpus(dbta))
