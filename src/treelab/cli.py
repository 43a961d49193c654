"""Command-line front end and the line-oriented text formats.

Formats (all: `#` starts a comment, blank lines ignored, save order canonical):

  alphabet   letter NAME ARITY
  dbta       letter lines; carrier M; optional `names ...`;
             `op NAME e1 .. en -> e` for every tuple (saved in lexicographic
             order, read in any order; of faulty rows, the first is reported);
             `accept e1 e2 ...`
  dtta       letter lines; states N; init Q;
             `delta Q NAME -> q1 .. qn` per state and non-constant letter;
             `leaf Q NAME -> accept|reject` per state and constant
  dtop       `input NAME ARITY` / `output NAME ARITY` lines; states N; init Q;
             `rule Q NAME -> term` with variables written qP.xI
  matrix     `input NAME ARITY` / `base NAME ARITY` lines; carrier M;
             `op ...` for the base; width W;
             `tuple NAME i -> term`, a term over the base letters and a
             constant @E per element E, with variables xK; no base letter
             may be named xK or @E

A letter NAME holds only the characters A-Za-z0-9_@.|' (the ones the tree
syntax spells), so every tree a command prints reads back.

`--lang`-style options take a file path, or `@name` for a builtin fixture
(e.g. @l_pott, @l_true_and, @sig_gcd).  --max-width, --arity-bound and
--depth-bound must be >= 1, --count, --max-nodes and --max-states >= 0.  Exit
codes: 0 ok (negative verdicts included), 1 usage, 2 parse, 3 cap.  Identical
inputs produce byte-identical reports; TREELAB_SEED fixes the formula corpus.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import dataclass, field

from . import fixtures
from .automata import (
    DEFAULT_CARRIER_CAP,
    Dbta,
    FiniteAlgebra,
    accepts,
    are_equivalent,
    evaluate,
    boolean_combine,
    with_constants,
)
from .cascade import (
    DEFAULT_WIDTH_CAP,
    ctl_compile,
    ctl_eval,
    ctl_parse,
    ctl_render,
    nest,
    random_formula_corpus,
    sequential_compose,
)
from .errors import CapExceededError, ParseError, TreelabError
from .oracle import Mismatch, ctl_disagreement, suites as oracle_suites
from .paths import (
    Dtta,
    is_doubly_deterministic,
    is_universal_path,
    mixes,
    separate_topdown,
)
from .structure import (
    Congruence,
    all_congruences,
    lattice_divides,
    minimal_nontrivial_congruences,
    or_pairs,
    orpair_separation,
    strongly_abelian_check,
)
from .syntactic import syntactic_algebra
from .transduce import (
    Dtop,
    MatrixHom,
    dtop_preimage,
    dtop_to_matrix_hom,
    dtop_word,
    matrix_hom_to_dtops,
    matrix_power_language,
)
from .trees import (
    MAX_ARITY,
    _NAME_CHARS,
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    instantiate,
    parse_term,
    parse_word,
    render_tree,
    tokenize,
    tree_at,
    tree_corpus,
)

# --- text formats -------------------------------------------------------------


def _fail(number: int, message: str) -> None:
    raise ParseError(f"line {number}: {message}")


class _Doc:
    """One file of a ``kind``, its lines grouped by keyword in one pass; a
    keyword outside ``keywords`` is refused.  A row is a line's fields after
    its keyword, `#` comments and blank lines dropped, in file order."""

    def __init__(self, text: str, kind: str, keywords: tuple[str, ...]):
        self.rows: dict[str, list[tuple[int, list[str]]]] = {key: [] for key in keywords}
        unknown = set()
        lines = text.splitlines()
        if "#" in text:
            lines = [line.split("#", 1)[0] for line in lines]
        for number, line in enumerate(lines, start=1):
            fields = line.split()
            if fields:
                try:
                    self.rows[fields[0]].append((number, fields[1:]))
                except KeyError:
                    unknown.add(fields[0])
        if unknown:
            raise ParseError(f"unexpected keyword {min(unknown)!r} in {kind} file")

    def take(self, keyword: str) -> list[tuple[int, list[str]]]:
        return self.rows.get(keyword, [])


def _int(number: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        _fail(number, f"{what} must be an integer, got {text!r}")


def _single_int(doc: _Doc, keyword: str) -> int:
    rows = doc.take(keyword)
    if len(rows) != 1 or len(rows[0][1]) != 1:
        raise ParseError(f"expected exactly one `{keyword} N` line")
    return _int(rows[0][0], rows[0][1][0], keyword)


def _checked(make, *args):
    """Build a loaded object; its own consistency checks fail as ParseErrors."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_DTOP_OUTPUT_RESERVED = (re.compile("q[0-9]+[.]x[0-9]+"), "a variable")
_MATRIX_BASE_RESERVED = (re.compile("x[0-9]+|@[0-9]+"), "a variable or a constant")


def _parse_letters(
    doc: _Doc, keyword: str, reserved: tuple[re.Pattern, str] | None = None
) -> RankedAlphabet:
    """The `keyword NAME ARITY` rows; ``reserved`` is a pattern of names a
    term would read as something else, and what it reads them as.  A name
    must be one that the tree syntax can spell (see ``trees.tokenize``):
    that check comes last in a row."""
    letters: dict[str, Letter] = {}
    for number, row in doc.take(keyword):
        if len(row) != 2 or not row[1].isdecimal():
            _fail(number, f"expected `{keyword} NAME ARITY`")
        if row[0] in letters:
            _fail(number, f"duplicate letter {row[0]!r}")
        if int(row[1]) > MAX_ARITY:
            _fail(number, f"arity of {row[0]} out of range 0..{MAX_ARITY}")
        if reserved is not None and reserved[0].fullmatch(row[0]):
            _fail(number, f"{keyword} letter {row[0]!r} reads as {reserved[1]}")
        if not re.fullmatch(f"[{_NAME_CHARS}]+", row[0]):
            _fail(number, f"letter name {row[0]!r} has a character outside [{_NAME_CHARS}]")
        letters[row[0]] = Letter(row[0], int(row[1]))
    if not letters:
        raise ParseError(f"no `{keyword}` lines found")
    return RankedAlphabet(tuple(letters.values()))


def _op_row_fault(number: int, row: list[str], cells: dict, size: int) -> None:
    """Raise the error of an `op` row that ``_parse_ops`` refused, checked in
    the order: shape, letter, integers, argument count, range, duplicate (a
    row that passes the other checks is a duplicate)."""
    if len(row) < 3 or row[-2] != "->":
        _fail(number, "expected `op NAME e1 .. en -> e`")
    if row[0] not in cells:
        _fail(number, f"unknown letter {row[0]!r}")
    arity = cells[row[0]][0]
    elements = [_int(number, x, "carrier element") for x in (*row[1:-2], row[-1])]
    if len(elements) != arity + 1:
        _fail(number, f"{row[0]} takes {arity} arguments")
    if not all(0 <= x < size for x in elements):
        _fail(number, "element out of carrier range")
    _fail(number, f"duplicate op row for {row[0]} {tuple(elements[:-1])}")


def _parse_ops(
    doc: _Doc, alphabet: RankedAlphabet, size: int
) -> dict[str, tuple[int, ...]]:
    """Each letter's table from the `op` rows, filled by index: the row
    `op f e1 .. en -> e` is entry e1·size^(n-1) + .. + en of f's table.

    The rows may come in any order.  They are read in file order, and the
    first faulty one is reported, with the first check it fails of: shape,
    letter, integers, argument count, range, duplicate.  Then each letter, in
    alphabet order, must have all of its size^arity rows.
    """
    cells: dict[str, tuple[int, dict[int, int]]] = {
        letter.name: (letter.arity, {}) for letter in alphabet.letters
    }
    for number, row in doc.take("op"):
        try:  # every check at once; _op_row_fault words the first one failed
            arity, table = cells[row[0]]
            if len(row) != arity + 3 or row[-2] != "->":
                raise ValueError
            index = 0
            for x in row[1:-2]:
                x = int(x)
                if not 0 <= x < size:
                    raise ValueError
                index = index * size + x
            value = int(row[-1])
            if not 0 <= value < size or index in table:
                raise ValueError
            table[index] = value
        except (LookupError, ValueError):
            _op_row_fault(number, row, cells, size)
    out: dict[str, tuple[int, ...]] = {}
    for letter in alphabet.letters:
        table = cells[letter.name][1]
        expected = size**letter.arity
        if len(table) != expected:
            raise ParseError(
                f"letter {letter.name} needs {expected} op rows, found {len(table)}"
            )
        out[letter.name] = tuple(map(table.__getitem__, range(expected)))
    return out


def _parse_algebra(
    doc: _Doc, letter_keyword: str, reserved: tuple[re.Pattern, str] | None = None
) -> FiniteAlgebra:
    """The algebra block of a dbta file, or the base of a matrix file: its
    letters, `carrier M` (M >= 1), at most one `names` line, and `op` rows.
    Without operations, no op row bounds the carrier, so it is at most
    DEFAULT_CARRIER_CAP."""
    alphabet = _parse_letters(doc, letter_keyword, reserved)
    size = _single_int(doc, "carrier")
    if size < 1:
        raise ParseError("carrier must be >= 1")
    names = None
    name_rows = doc.take("names")
    if len(name_rows) > 1:
        raise ParseError("at most one `names` line")
    if name_rows:
        number, row = name_rows[0]
        if len(row) != size:
            _fail(number, f"`names` must list {size} names")
        names = tuple(row)
    tables = _parse_ops(doc, alphabet, size)
    if size > DEFAULT_CARRIER_CAP and not any(letter.arity for letter in alphabet.letters):
        owner = "a base" if letter_keyword == "base" else "an algebra"
        raise ParseError(f"{owner} without operations has at most {DEFAULT_CARRIER_CAP} "
                         f"elements, got {size}")
    return FiniteAlgebra(alphabet, size, tables, names)


def _arrow_rows(doc: _Doc, keyword: str, usage: str, read) -> dict:
    """The `keyword A B -> ..` rows, each made a (key, value) entry by
    ``read(number, A, B, fields after ->)``; a key read twice is a duplicate."""
    out = {}
    for number, row in doc.take(keyword):
        if len(row) < 4 or row[2] != "->":
            _fail(number, f"expected `{keyword} {usage}`")
        key, value = read(number, row[0], row[1], row[3:])
        if key in out:
            _fail(number, f"duplicate {keyword} row for {row[0]} {row[1]}")
        out[key] = value
    return out


def load_alphabet(text: str) -> RankedAlphabet:
    return _parse_letters(_Doc(text, "alphabet", ("letter",)), "letter")


def save_alphabet(alphabet: RankedAlphabet, keyword: str = "letter") -> str:
    return "".join(f"{keyword} {l.name} {l.arity}\n" for l in alphabet.letters)


def load_dbta(text: str) -> Dbta:
    doc = _Doc(text, "dbta", ("letter", "carrier", "names", "op", "accept"))
    algebra = _parse_algebra(doc, "letter")
    accept_rows = doc.take("accept")
    if len(accept_rows) != 1:
        raise ParseError("expected exactly one `accept` line")
    number, row = accept_rows[0]
    accepting = frozenset(_int(number, x, "accepting element") for x in row)
    if any(not 0 <= e < algebra.size for e in accepting):
        _fail(number, "accepting element out of range")
    return Dbta(algebra, accepting)


def _algebra_rows(algebra: FiniteAlgebra, letter_keyword: str) -> list[str]:
    """The lines of an algebra block: letters, carrier, names if any, then
    the `op` lines of every table, in alphabet order, then table order."""
    out = [save_alphabet(algebra.alphabet, letter_keyword), f"carrier {algebra.size}\n"]
    if algebra.element_names is not None:
        out.append("names " + " ".join(algebra.element_names) + "\n")
    numbers = [str(e) for e in range(algebra.size)]
    values = [f"{e}\n" for e in numbers]
    arguments = [[" -> "]]  # by arity: each " e1 .. en -> ", in table order
    for letter in algebra.alphabet.letters:
        while len(arguments) <= letter.arity:
            arguments.append([f" {e}{args}" for e in numbers for args in arguments[-1]])
        head = f"op {letter.name}"
        out += [
            f"{head}{args}{values[value]}"
            for args, value in zip(arguments[letter.arity], algebra.tables[letter.name])
        ]
    return out


def save_algebra(algebra: FiniteAlgebra, accepting: frozenset[int] | None = None) -> str:
    out = _algebra_rows(algebra, "letter")
    if accepting is not None:
        out.append("accept" + "".join(f" {e}" for e in sorted(accepting)) + "\n")
    return "".join(out)


def save_dbta(dbta: Dbta) -> str:
    return save_algebra(dbta.algebra, dbta.accepting)


def load_dtta(text: str) -> Dtta:
    doc = _Doc(text, "dtta", ("letter", "states", "init", "delta", "leaf"))
    alphabet = _parse_letters(doc, "letter")
    n_states = _single_int(doc, "states")
    initial = _single_int(doc, "init")
    if not 0 <= initial < n_states:
        raise ParseError("init out of range")

    def delta(number: int, state: str, name: str, rest: list[str]):
        state = _int(number, state, "state")
        letter = alphabet.get(name)
        if letter is None or letter.arity == 0:
            _fail(number, f"{name} is not a non-constant letter")
        successors = tuple(_int(number, x, "state") for x in rest)
        if len(successors) != letter.arity:
            _fail(number, f"{name} needs {letter.arity} successors")
        if any(not 0 <= q < n_states for q in (state,) + successors):
            _fail(number, "state out of range")
        return (state, name), successors

    leaf_usage = "Q NAME -> accept|reject"

    def leaf(number: int, state: str, name: str, rest: list[str]):
        if rest != ["accept"] and rest != ["reject"]:
            _fail(number, f"expected `leaf {leaf_usage}`")
        state = _int(number, state, "state")
        letter = alphabet.get(name)
        if letter is None or letter.arity != 0:
            _fail(number, f"{name} is not a constant")
        if not 0 <= state < n_states:
            _fail(number, "state out of range")
        return (state, name), rest == ["accept"]

    transitions = _arrow_rows(doc, "delta", "Q NAME -> q1 .. qn", delta)
    leaves = _arrow_rows(doc, "leaf", leaf_usage, leaf)
    leaf_ok = frozenset(key for key, accepted in leaves.items() if accepted)
    return _checked(Dtta, alphabet, n_states, initial, transitions, leaf_ok)


def save_dtta(dtta: Dtta) -> str:
    out = [save_alphabet(dtta.alphabet), f"states {dtta.n_states}\n", f"init {dtta.initial}\n"]
    inner = [letter for letter in dtta.alphabet.letters if letter.arity]
    for state in range(dtta.n_states):
        for letter in inner:
            successors = " ".join(map(str, dtta.delta[(state, letter.name)]))
            out.append(f"delta {state} {letter.name} -> {successors}\n")
    for state in range(dtta.n_states):
        for letter in dtta.alphabet.constants:
            verdict = "accept" if (state, letter.name) in dtta.leaf_ok else "reject"
            out.append(f"leaf {state} {letter.name} -> {verdict}\n")
    return "".join(out)


_DTOP_VAR = re.compile(r"q([1-9][0-9]*)\.x([1-9][0-9]*)")


def _dtop_var_map(text: str, n_states: int, arity: int) -> dict[str, int]:
    """The variables qP.xJ of a rule for a letter of ``arity`` that ``text``
    names, with their flat indices: as many as the text has names, at most."""
    out = {}
    for name in tokenize(text):
        match = _DTOP_VAR.fullmatch(name)
        if match and int(match[1]) <= n_states and int(match[2]) <= arity:
            out[name] = Dtop.flat_var(int(match[1]), int(match[2]), n_states)
    return out


def load_dtop(text: str) -> Dtop:
    doc = _Doc(text, "dtop", ("input", "output", "states", "init", "rule"))
    input_alphabet = _parse_letters(doc, "input")
    output_alphabet = _parse_letters(doc, "output", _DTOP_OUTPUT_RESERVED)
    n_states = _single_int(doc, "states")
    initial = _single_int(doc, "init")

    def rule(number: int, state: str, name: str, rest: list[str]):
        state = _int(number, state, "state")
        letter = input_alphabet.get(name)
        if letter is None:
            _fail(number, f"unknown input letter {name!r}")
        if not 1 <= state <= n_states:
            _fail(number, "state out of range (states are 1..N)")
        text = " ".join(rest)
        var_map = _dtop_var_map(text, n_states, letter.arity)
        term = parse_term(text, output_alphabet, n_states * letter.arity, var_map)
        return (name, state), term

    rules = _arrow_rows(doc, "rule", "Q NAME -> term", rule)
    return _checked(Dtop, input_alphabet, output_alphabet, n_states, initial, rules)


def save_dtop(dtop: Dtop) -> str:
    out = [save_alphabet(dtop.input_alphabet, "input")]
    out.append(save_alphabet(dtop.output_alphabet, "output"))
    out.append(f"states {dtop.n_states}\n")
    out.append(f"init {dtop.initial}\n")
    for letter in dtop.input_alphabet.letters:
        # variable i becomes a leaf with the name that `_dtop_var_map` reads as i
        pairs = map(dtop.var_pair, range(1, dtop.n_states * letter.arity + 1))
        named = [Tree(Letter(f"q{p}.x{j}", 0)) for p, j in pairs]
        for state in range(1, dtop.n_states + 1):
            body = instantiate(dtop.rules[(letter.name, state)].body, named)
            out.append(f"rule {state} {letter.name} -> {render_tree(body)}\n")
    return "".join(out)


def load_matrix(text: str) -> MatrixHom:
    doc = _Doc(text, "matrix", ("input", "base", "carrier", "names", "op", "width", "tuple"))
    input_alphabet = _parse_letters(doc, "input")
    base = _parse_algebra(doc, "base", _MATRIX_BASE_RESERVED)
    term_alphabet = with_constants(base).alphabet
    width = _single_int(doc, "width")

    def coordinate_term(number: int, name: str, coordinate: str, rest: list[str]):
        letter = input_alphabet.get(name)
        if letter is None:
            _fail(number, f"unknown input letter {name!r}")
        coordinate = _int(number, coordinate, "coordinate")
        if not 1 <= coordinate <= width:
            _fail(number, "coordinate out of range")
        term = parse_term(" ".join(rest), term_alphabet, width * letter.arity)
        return (name, coordinate), term

    rows = _arrow_rows(doc, "tuple", "NAME i -> term", coordinate_term)
    tuples: dict[str, tuple[Term, ...]] = {}
    for letter in input_alphabet.letters:
        try:
            tuples[letter.name] = tuple(rows[(letter.name, i)] for i in range(1, width + 1))
        except KeyError:
            raise ParseError(f"letter {letter.name} needs {width} tuple rows") from None
    return _checked(MatrixHom, base, input_alphabet, width, tuples)


def save_matrix(mh: MatrixHom) -> str:
    out = [save_alphabet(mh.alphabet, "input"), *_algebra_rows(mh.base, "base")]
    out.append(f"width {mh.width}\n")
    for letter in mh.alphabet.letters:
        for i, term in enumerate(mh.tuples[letter.name], start=1):
            out.append(f"tuple {letter.name} {i} -> {render_tree(term.body)}\n")
    return "".join(out)


# --- workspace -----------------------------------------------------------------


_BUILTIN_ALPHABETS = {
    "sig_mono": fixtures.SIG_MONO,
    "sig_pott": fixtures.SIG_POTT,
    "sig_pott_k": fixtures.SIG_POTT_K,
    "sig_line": fixtures.SIG_LINE,
    "sig_and": fixtures.SIG_AND,
    "sig_or": fixtures.SIG_OR,
    "sig_bool": fixtures.SIG_BOOL,
    "sig_gcd": fixtures.SIG_GCD,
}


@dataclass
class Workspace:
    """Named bindings from identifiers to loaded artifacts (per kind)."""

    alphabets: dict[str, RankedAlphabet] = field(default_factory=dict)
    dbtas: dict[str, Dbta] = field(default_factory=dict)
    dtops: dict[str, Dtop] = field(default_factory=dict)
    matrices: dict[str, MatrixHom] = field(default_factory=dict)

    def __post_init__(self):
        for name, dbta in fixtures.CORPUS:
            self.dbtas[f"@{name}"] = dbta
        for name, alphabet in _BUILTIN_ALPHABETS.items():
            self.alphabets[f"@{name}"] = alphabet

    def _read(self, ref: str) -> str:
        try:
            with open(ref, "r", encoding="utf-8") as handle:
                return handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {ref}: {exc}") from exc

    def _load(self, bound: dict, ref: str, load, builtin: str = ""):
        """``bound[ref]``, loaded from the file ``ref`` on first use; for a kind
        with builtins (named by ``builtin``), an unbound `@name` is refused."""
        if ref not in bound:
            if builtin and ref.startswith("@"):
                raise ParseError(f"unknown builtin {builtin} {ref}")
            bound[ref] = load(self._read(ref))
        return bound[ref]

    def dbta(self, ref: str) -> Dbta:
        return self._load(self.dbtas, ref, load_dbta, "language")

    def alphabet(self, ref: str) -> RankedAlphabet:
        return self._load(self.alphabets, ref, load_alphabet, "alphabet")

    def dtop(self, ref: str) -> Dtop:
        return self._load(self.dtops, ref, load_dtop)

    def matrix(self, ref: str) -> MatrixHom:
        return self._load(self.matrices, ref, load_matrix)


# --- reports ---------------------------------------------------------------------


class Report:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.rows: list[tuple[str, ...]] = []
        self.blobs: list[str] = []

    def line(self, *cells) -> None:
        self.rows.append(tuple(str(c) for c in cells))

    def blob(self, text: str) -> None:
        self.blobs.append(text)

    def emit(self) -> None:
        sep = "\t" if self.fmt == "tsv" else " "
        for row in self.rows:
            print(sep.join(row))
        for blob in self.blobs:
            sys.stdout.write(blob)


# --- commands --------------------------------------------------------------------


def _cmd_eval(ws: Workspace, args, report: Report) -> None:
    dbta = ws.dbta(args.lang)
    value = evaluate(dbta.algebra, parse_word(args.tree, dbta.alphabet))
    report.line("value", dbta.algebra.name_of(value))


def _cmd_accepts(ws: Workspace, args, report: Report) -> None:
    dbta = ws.dbta(args.lang)
    report.line("yes" if accepts(dbta, parse_word(args.tree, dbta.alphabet)) else "no")


def _cmd_minimize(ws: Workspace, args, report: Report) -> None:
    result = syntactic_algebra(ws.dbta(args.lang))
    report.line("carrier", result.minimal.algebra.size)
    report.blob(save_dbta(result.minimal))


def _cmd_equiv(ws: Workspace, args, report: Report) -> None:
    equal, witness = are_equivalent(ws.dbta(args.lang), ws.dbta(args.other))
    if equal:
        report.line("equivalent")
    else:
        report.line("different", render_tree(witness))


def _cmd_bool(ws: Workspace, args, report: Report) -> None:
    combined = boolean_combine(args.kind, ws.dbta(args.lang), ws.dbta(args.other))
    report.blob(save_dbta(combined))


def _cmd_universal_path(ws: Workspace, args, report: Report) -> None:
    verdict, witness = is_universal_path(ws.dbta(args.lang), args.max_states)
    if verdict:
        report.line("yes")
    else:
        report.line("no", "witness", render_tree(witness))


def _cmd_doubly_det(ws: Workspace, args, report: Report) -> None:
    verdict = is_doubly_deterministic(ws.dbta(args.lang), args.max_states)
    report.line("yes" if verdict else "no")


def _cmd_mixes(ws: Workspace, args, report: Report) -> None:
    closure = mixes(ws.dbta(args.lang), args.max_states)
    report.blob(save_dbta(closure))


def _cmd_separate(ws: Workspace, args, report: Report) -> None:
    separator = separate_topdown(ws.dbta(args.lang), ws.dbta(args.other), args.max_states)
    if separator is None:
        report.line("none")
    else:
        report.line("separator", "accepts-side", separator.accepts_side)
        report.blob(save_dtta(separator.dtta))


def _cmd_dtop_apply(ws: Workspace, args, report: Report) -> None:
    dtop = ws.dtop(args.dtop)
    report.line(render_tree(dtop_word(dtop, parse_word(args.tree, dtop.input_alphabet))))


def _cmd_dtop_preimage(ws: Workspace, args, report: Report) -> None:
    result = dtop_preimage(ws.dbta(args.lang), ws.dtop(args.dtop), args.max_states)
    report.blob(save_dbta(result))


def _cmd_matrix_from_dtop(ws: Workspace, args, report: Report) -> None:
    base = ws.dbta(args.base).algebra
    report.blob(save_matrix(dtop_to_matrix_hom(ws.dtop(args.dtop), base)))


def _cmd_matrix_to_dtops(ws: Workspace, args, report: Report) -> None:
    dtop, extended = matrix_hom_to_dtops(ws.matrix(args.matrix))
    report.blob("# dtop template (choose init 1..width for each coordinate)\n")
    report.blob(save_dtop(dtop))
    report.blob("# base evaluation algebra\n")
    report.blob(save_algebra(extended, frozenset()))


def _groups(text: str, what: str) -> list[tuple[str, tuple[int, ...]]]:
    """Each nonempty chunk of an `a,b;c,d` option value, stripped, with its
    integers; a chunk that is not integers is a bad ``what``."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            try:
                out.append((chunk, tuple(int(x) for x in chunk.split(","))))
            except ValueError:
                raise ParseError(f"bad {what} {chunk!r}") from None
    return out


def _cmd_matrix_flatten(ws: Workspace, args, report: Report) -> None:
    mh = ws.matrix(args.matrix)
    accepting = set()
    for chunk, row in _groups(args.accept, "accepting tuple"):
        if len(row) != mh.width:
            raise ParseError(f"accepting tuple {chunk!r} must have width {mh.width}")
        if any(not 0 <= e < mh.base.size for e in row):
            raise ParseError(
                f"accepting tuple {chunk!r} has an entry outside 0..{mh.base.size - 1}"
            )
        accepting.add(row)
    report.blob(save_dbta(matrix_power_language(mh, accepting, args.max_states)))


def _cmd_nest(ws: Workspace, args, report: Report) -> None:
    langs = [ws.dbta(ref) for ref in args.langs.split(",") if ref] if args.langs else []
    top = ws.dbta(args.top)
    report.blob(save_dbta(nest(langs, top, args.max_states)))


def _cmd_wreath_compose(ws: Workspace, args, report: Report) -> None:
    inner = ws.dbta(args.inner).algebra
    outer = ws.dbta(args.outer).algebra
    report.blob(save_algebra(sequential_compose(inner, outer), frozenset()))


def _cmd_ctl_eval(ws: Workspace, args, report: Report) -> None:
    alphabet = ws.alphabet(args.alphabet)
    formula = ctl_parse(args.formula, alphabet)
    report.line("yes" if ctl_eval(formula, parse_word(args.tree, alphabet)) else "no")


def _seed() -> int:
    """TREELAB_SEED, 0 when unset; a value that is not an integer is a ParseError."""
    text = os.environ.get("TREELAB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"TREELAB_SEED must be an integer, got {text!r}") from None


def _cmd_ctl_compile(ws: Workspace, args, report: Report) -> None:
    alphabet = ws.alphabet(args.alphabet)
    cascade = ctl_compile(ctl_parse(args.formula, alphabet), alphabet, args.max_width)
    report.line("layers", len(cascade.layers))
    report.line("total-width", cascade.total_width)
    for index, layer in enumerate(cascade.layers):
        letters = len(layer.base.letters) << layer.nbits
        report.line("layer", index, "width", layer.width, "letters", letters)
    report.line("output", cascade.output[0], cascade.output[1])


def _cmd_ctl_verify(ws: Workspace, args, report: Report) -> None:
    alphabet = ws.alphabet(args.alphabet)
    if args.formula:
        formula = ctl_parse(args.formula, alphabet)
        corpus = [(formula, ctl_compile(formula, alphabet, args.max_width))]
    else:
        corpus = random_formula_corpus(_seed(), alphabet, args.count, max_width=args.max_width)
    letters, kids = tree_corpus(alphabet, args.max_nodes)
    found = ctl_disagreement(corpus, letters, kids)
    if found is not None:
        formula, at = found
        report.line("MISMATCH", ctl_render(formula), render_tree(tree_at(letters, kids, at)))
        return
    checked = len(corpus) * len(letters)
    report.line("agree", "on", checked, "checks", f"({len(corpus)} formulas, {len(letters)} trees)")


def _parse_congruence(text: str, size: int) -> Congruence:
    if text == "full":
        return Congruence.full(size)
    if text == "identity":
        return Congruence.identity(size)
    blocks = [block for _, block in _groups(text, "congruence block")]
    return _checked(Congruence.from_blocks, size, blocks)


def _cmd_structure_congruences(ws: Workspace, args, report: Report) -> None:
    algebra = ws.dbta(args.lang).algebra
    congruences = all_congruences(algebra)
    report.line("congruences", len(congruences))
    minimal = minimal_nontrivial_congruences(algebra)
    report.line("minimal-nontrivial", len(minimal))
    for congruence in congruences:
        blocks = ";".join(",".join(map(str, sorted(b))) for b in congruence.blocks)
        report.line("congruence", blocks)


def _cmd_structure_orpairs(ws: Workspace, args, report: Report) -> None:
    result = or_pairs(ws.dbta(args.lang).algebra)
    if result.capped:
        report.line("capped", "under-approximation")
    report.line("orpairs", len(result.pairs))
    for a0, a1, _table in result.pairs:
        report.line("orpair", a0, a1)


def _cmd_structure_strongly_abelian(ws: Workspace, args, report: Report) -> None:
    algebra = ws.dbta(args.lang).algebra
    congruence = _parse_congruence(args.congruence, algebra.size)
    verdict = strongly_abelian_check(algebra, congruence, args.arity_bound, args.depth_bound)
    if verdict.passed_bounded:
        report.line("passed-bounded", "arity", verdict.arity_bound, "depth", verdict.depth_bound)
    else:
        violation = verdict.violation
        report.line(
            "violated",
            "arity",
            violation.arity,
            "left",
            ",".join(map(str, violation.left)),
            "right",
            ",".join(map(str, violation.right)),
            "tail",
            ",".join(map(str, violation.tail)),
        )


def _cmd_structure_lattice_divides(ws: Workspace, args, report: Report) -> None:
    witness = lattice_divides(ws.dbta(args.lang).algebra, args.polynomials)
    report.line("yes" if witness is not None else "no")


def _cmd_structure_orpair_separation(ws: Workspace, args, report: Report) -> None:
    result = orpair_separation(ws.dbta(args.lang))
    if result.capped:
        report.line("capped", "under-approximation")
    for entry in result.entries:
        report.line(
            "pair", entry.a0, entry.a1, "separable" if entry.separable else "inseparable"
        )
    report.line("all-separable" if result.all_separable else "has-inseparable")


def _cmd_oracle_verify(ws: Workspace, args, report: Report) -> None:
    for suite, checks in oracle_suites(args.max_nodes, args.count, _seed()):
        report.line("suite", f"{suite}:", checks, "checks")
    report.line("ok")


# --- argument parsing ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Every command: its words (a group's subcommands follow the group), its
# handler (None for a group), its help, and its options.  An option is a
# required name, or (name, default): an int default is typed, False is a
# flag; or (name, add_argument's keyword arguments).
_MAX_STATES = ("--max-states", DEFAULT_CARRIER_CAP)
_MAX_WIDTH = ("--max-width", DEFAULT_WIDTH_CAP)
_COMMANDS = (
    ("eval", _cmd_eval, "evaluate a tree in an algebra", ("--lang", "--tree")),
    ("accepts", _cmd_accepts, "membership test", ("--lang", "--tree")),
    ("minimize", _cmd_minimize, "syntactic algebra; prints tables", ("--lang",)),
    ("equiv", _cmd_equiv, "language equality with counterexample", ("--lang", "--other")),
    ("bool", _cmd_bool, "union/intersection/difference", (
        ("--kind", {"choices": ("union", "intersection", "difference"), "required": True}),
        "--lang", "--other",
    )),
    ("universal-path", _cmd_universal_path, "universal-path decision", ("--lang", _MAX_STATES)),
    ("doubly-det", _cmd_doubly_det, "doubly-det decision", ("--lang", _MAX_STATES)),
    ("mixes", _cmd_mixes, "mixes decision", ("--lang", _MAX_STATES)),
    ("separate", _cmd_separate, "deterministic top-down separator",
     ("--lang", "--other", _MAX_STATES)),
    ("dtop", None, "transducer operations", ()),
    ("dtop apply", _cmd_dtop_apply, None, ("--dtop", "--tree")),
    ("dtop preimage", _cmd_dtop_preimage, None, ("--dtop", "--lang", _MAX_STATES)),
    ("matrix", None, "matrix-power homomorphisms", ()),
    ("matrix from-dtop", _cmd_matrix_from_dtop, None, ("--dtop", "--base")),
    ("matrix to-dtops", _cmd_matrix_to_dtops, None, ("--matrix",)),
    ("matrix flatten", _cmd_matrix_flatten, None, ("--matrix", ("--accept", ""), _MAX_STATES)),
    ("nest", _cmd_nest, "nesting: annotate then run the top language",
     ("--top", ("--langs", ""), _MAX_STATES)),
    ("wreath", None, "wreath products", ()),
    ("wreath compose", _cmd_wreath_compose, None, (
        ("--inner", {"required": True, "help": "h: algebra over the base alphabet"}),
        ("--outer", {"required": True, "help": "g: algebra over the value-annotated alphabet"}),
    )),
    ("ctl", None, "CTL on finite trees", ()),
    ("ctl eval", _cmd_ctl_eval, None, ("--alphabet", "--formula", "--tree")),
    ("ctl compile", _cmd_ctl_compile, None, ("--alphabet", "--formula", _MAX_WIDTH)),
    ("ctl verify", _cmd_ctl_verify, None, (
        "--alphabet", ("--formula", ""), ("--count", 25), ("--max-nodes", 8), _MAX_WIDTH,
    )),
    ("structure", None, "finite-algebra structure checks", ()),
    ("structure congruences", _cmd_structure_congruences, None, ("--lang",)),
    ("structure orpairs", _cmd_structure_orpairs, None, ("--lang",)),
    ("structure strongly-abelian", _cmd_structure_strongly_abelian, None, (
        "--lang", ("--congruence", "full"), ("--arity-bound", 2), ("--depth-bound", 3),
    )),
    ("structure lattice-divides", _cmd_structure_lattice_divides, None,
     ("--lang", ("--polynomials", False))),
    ("structure orpair-separation", _cmd_structure_orpair_separation, None, ("--lang",)),
    ("oracle", None, "brute-force agreement suites", ()),
    ("oracle verify", _cmd_oracle_verify, None, (("--max-nodes", 6), ("--count", 10))),
)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it."""
    parser = _Parser(prog="treelab", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for words, fn, text, options in _COMMANDS:
        group, _, name = words.rpartition(" ")
        command = groups[group].add_parser(name, **({} if text is None else {"help": text}))
        command.set_defaults(fn=fn)
        if fn is None:
            groups[name] = command.add_subparsers(dest="subcommand", required=True)
        for option in options:
            if isinstance(option, str):
                command.add_argument(option, required=True)
            elif isinstance(option[1], dict):
                command.add_argument(option[0], **option[1])
            elif option[1] is False:
                command.add_argument(option[0], action="store_true")
            elif isinstance(option[1], int):
                command.add_argument(option[0], type=int, default=option[1])
            else:
                command.add_argument(option[0], default=option[1])
    return parser


# The least value of each integer option, checked in this order before any command runs.
_LEAST = {"--max-width": 1, "--count": 0, "--max-nodes": 0, "--max-states": 0,
          "--arity-bound": 1, "--depth-bound": 1}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring).

    Repeated calls in one process share one argument parser, built on the
    first call; parsing keeps no state between calls.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    report = Report(args.format)
    try:
        for option, least in _LEAST.items():
            value = getattr(args, option[2:].replace("-", "_"), least)
            if value < least:
                raise ParseError(f"{option} must be >= {least}, got {value}")
        args.fn(Workspace(), args, report)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except Mismatch as exc:
        print(f"mismatch {exc}", file=sys.stderr)
        return 1
    except (ParseError, TreelabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
