"""Command-line front end and the line-oriented text formats.

Formats (all: `#` starts a comment, blank lines ignored, save order canonical):

  alphabet   letter NAME ARITY
  dbta       letter lines; carrier M; optional `names ...`;
             `op NAME e1 .. en -> e` for every tuple (lexicographic);
             `accept e1 e2 ...`
  dtta       letter lines; states N; init Q;
             `delta Q NAME -> q1 .. qn` per state and non-constant letter;
             `leaf Q NAME -> accept|reject` per state and constant
  dtop       `input NAME ARITY` / `output NAME ARITY` lines; states N; init Q;
             `rule Q NAME -> term` with variables written qP.xI
  matrix     `input NAME ARITY` / `base NAME ARITY` lines; carrier M;
             `op ...` for the base; width W;
             `tuple NAME i -> polyterm` with variables xK and constants @E

`--lang`-style options take a file path, or `@name` for a builtin fixture
(e.g. @l_pott, @l_true_and, @sig_gcd).  Exit codes: 0 ok (negative verdicts
included), 1 usage, 2 parse, 3 cap.  Identical inputs produce byte-identical
reports; TREELAB_SEED fixes the randomized formula corpus.
"""

from __future__ import annotations

import argparse
import itertools
import os
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
    preimage_tree_hom,
    reachable_elements,
    subset_counterexample,
)
from .cascade import (
    DEFAULT_WIDTH_CAP,
    annotate,
    annotated_alphabet,
    cascade_flatten,
    ctl_compile,
    ctl_eval,
    ctl_parse,
    ctl_render,
    nest,
    random_formula_corpus,
    sequential_compose,
)
from .errors import CapExceededError, ParseError, TreelabError
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
    PApp,
    PConst,
    PolyBody,
    PolyTerm,
    PVar,
    dtop_apply,
    dtop_preimage,
    dtop_to_matrix_hom,
    matrix_hom_to_dtops,
    matrix_power_language,
)
from .trees import (
    MAX_ARITY,
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    enumerate_trees,
    hom_apply,
    parse_term,
    parse_tree,
    path_words,
    render_term,
    render_tree,
    tokenize,
)

# --- text formats -------------------------------------------------------------


def _lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((number, line.split()))
    return out


def _fail(number: int, message: str) -> None:
    raise ParseError(f"line {number}: {message}")


class _Doc:
    """One parsed file: keyword lines grouped for the format loaders."""

    def __init__(self, text: str):
        self.rows = _lines(text)

    def take(self, keyword: str) -> list[tuple[int, list[str]]]:
        return [(n, row[1:]) for n, row in self.rows if row[0] == keyword]

    def keywords(self) -> set[str]:
        return {row[0] for _, row in self.rows}


def _int(number: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        _fail(number, f"{what} must be an integer, got {text!r}")


def _checked(make, *args):
    """Build a loaded object; its own consistency checks fail as ParseErrors."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_letters(doc: _Doc, keyword: str) -> RankedAlphabet:
    letters: dict[str, Letter] = {}
    for number, row in doc.take(keyword):
        if len(row) != 2 or not row[1].isdecimal():
            _fail(number, f"expected `{keyword} NAME ARITY`")
        if row[0] in letters:
            _fail(number, f"duplicate letter {row[0]!r}")
        if int(row[1]) > MAX_ARITY:
            _fail(number, f"arity of {row[0]} out of range 0..{MAX_ARITY}")
        letters[row[0]] = Letter(row[0], int(row[1]))
    if not letters:
        raise ParseError(f"no `{keyword}` lines found")
    return RankedAlphabet(tuple(letters.values()))


def load_alphabet(text: str) -> RankedAlphabet:
    doc = _Doc(text)
    unknown = doc.keywords() - {"letter"}
    if unknown:
        raise ParseError(f"unexpected keyword {sorted(unknown)[0]!r} in alphabet file")
    return _parse_letters(doc, "letter")


def save_alphabet(alphabet: RankedAlphabet) -> str:
    return "".join(f"letter {l.name} {l.arity}\n" for l in alphabet.letters)


def _parse_ops(
    doc: _Doc, alphabet: RankedAlphabet, size: int
) -> dict[str, tuple[int, ...]]:
    tables: dict[str, dict[tuple[int, ...], int]] = {
        letter.name: {} for letter in alphabet.letters
    }
    for number, row in doc.take("op"):
        if len(row) < 3 or row[-2] != "->":
            _fail(number, "expected `op NAME e1 .. en -> e`")
        name = row[0]
        letter = alphabet.get(name)
        if letter is None:
            _fail(number, f"unknown letter {name!r}")
        args = tuple(_int(number, x, "carrier element") for x in row[1:-2])
        result = _int(number, row[-1], "carrier element")
        if len(args) != letter.arity:
            _fail(number, f"{name} takes {letter.arity} arguments")
        if any(not 0 <= x < size for x in args + (result,)):
            _fail(number, "element out of carrier range")
        if args in tables[name]:
            _fail(number, f"duplicate op row for {name} {args}")
        tables[name][args] = result
    out: dict[str, tuple[int, ...]] = {}
    for letter in alphabet.letters:
        rows = tables[letter.name]
        expected = size**letter.arity
        if len(rows) != expected:
            raise ParseError(
                f"letter {letter.name} needs {expected} op rows, found {len(rows)}"
            )
        out[letter.name] = tuple(
            rows[args] for args in itertools.product(range(size), repeat=letter.arity)
        )
    return out


def _single_int(doc: _Doc, keyword: str) -> int:
    rows = doc.take(keyword)
    if len(rows) != 1 or len(rows[0][1]) != 1:
        raise ParseError(f"expected exactly one `{keyword} N` line")
    return _int(rows[0][0], rows[0][1][0], keyword)


def load_dbta(text: str) -> Dbta:
    doc = _Doc(text)
    unknown = doc.keywords() - {"letter", "carrier", "names", "op", "accept"}
    if unknown:
        raise ParseError(f"unexpected keyword {sorted(unknown)[0]!r} in dbta file")
    alphabet = _parse_letters(doc, "letter")
    size = _single_int(doc, "carrier")
    if size < 1:
        raise ParseError("carrier must be >= 1")
    names = None
    name_rows = doc.take("names")
    if len(name_rows) > 1:
        raise ParseError("at most one `names` line")
    if name_rows:
        if len(name_rows[0][1]) != size:
            _fail(name_rows[0][0], f"`names` must list {size} names")
        names = tuple(name_rows[0][1])
    tables = _parse_ops(doc, alphabet, size)
    accept_rows = doc.take("accept")
    if len(accept_rows) != 1:
        raise ParseError("expected exactly one `accept` line")
    number, row = accept_rows[0]
    accepting = frozenset(_int(number, x, "accepting element") for x in row)
    if any(not 0 <= e < size for e in accepting):
        _fail(number, "accepting element out of range")
    return Dbta(FiniteAlgebra(alphabet, size, tables, names), accepting)


def save_algebra(algebra: FiniteAlgebra, accepting: frozenset[int] | None = None) -> str:
    out = [save_alphabet(algebra.alphabet)]
    out.append(f"carrier {algebra.size}\n")
    if algebra.element_names is not None:
        out.append("names " + " ".join(algebra.element_names) + "\n")
    for letter in algebra.alphabet.letters:
        for args in itertools.product(range(algebra.size), repeat=letter.arity):
            value = algebra.op(letter.name, args)
            middle = (" " + " ".join(map(str, args))) if args else ""
            out.append(f"op {letter.name}{middle} -> {value}\n")
    if accepting is not None:
        out.append("accept" + "".join(f" {e}" for e in sorted(accepting)) + "\n")
    return "".join(out)


def save_dbta(dbta: Dbta) -> str:
    return save_algebra(dbta.algebra, dbta.accepting)


def load_dtta(text: str) -> Dtta:
    doc = _Doc(text)
    unknown = doc.keywords() - {"letter", "states", "init", "delta", "leaf"}
    if unknown:
        raise ParseError(f"unexpected keyword {sorted(unknown)[0]!r} in dtta file")
    alphabet = _parse_letters(doc, "letter")
    n_states = _single_int(doc, "states")
    initial = _single_int(doc, "init")
    if not 0 <= initial < n_states:
        raise ParseError("init out of range")
    delta: dict[tuple[int, str], tuple[int, ...]] = {}
    for number, row in doc.take("delta"):
        if len(row) < 4 or row[2] != "->":
            _fail(number, "expected `delta Q NAME -> q1 .. qn`")
        state = _int(number, row[0], "state")
        letter = alphabet.get(row[1])
        if letter is None or letter.arity == 0:
            _fail(number, f"{row[1]} is not a non-constant letter")
        successors = tuple(_int(number, x, "state") for x in row[3:])
        if len(successors) != letter.arity:
            _fail(number, f"{row[1]} needs {letter.arity} successors")
        if any(not 0 <= q < n_states for q in (state,) + successors):
            _fail(number, "state out of range")
        delta[(state, letter.name)] = successors
    leaf_ok = set()
    for number, row in doc.take("leaf"):
        if len(row) != 4 or row[2] != "->" or row[3] not in ("accept", "reject"):
            _fail(number, "expected `leaf Q NAME -> accept|reject`")
        state = _int(number, row[0], "state")
        letter = alphabet.get(row[1])
        if letter is None or letter.arity != 0:
            _fail(number, f"{row[1]} is not a constant")
        if not 0 <= state < n_states:
            _fail(number, "state out of range")
        if row[3] == "accept":
            leaf_ok.add((state, row[1]))
    return _checked(Dtta, alphabet, n_states, initial, delta, frozenset(leaf_ok))


def save_dtta(dtta: Dtta) -> str:
    out = [save_alphabet(dtta.alphabet)]
    out.append(f"states {dtta.n_states}\n")
    out.append(f"init {dtta.initial}\n")
    for state in range(dtta.n_states):
        for letter in dtta.alphabet.letters:
            if letter.arity == 0:
                continue
            successors = dtta.delta[(state, letter.name)]
            out.append(
                f"delta {state} {letter.name} -> " + " ".join(map(str, successors)) + "\n"
            )
    for state in range(dtta.n_states):
        for letter in dtta.alphabet.letters:
            if letter.arity != 0:
                continue
            verdict = "accept" if (state, letter.name) in dtta.leaf_ok else "reject"
            out.append(f"leaf {state} {letter.name} -> {verdict}\n")
    return "".join(out)


def _dtop_var_map(n_states: int, arity: int) -> dict[str, int]:
    return {
        f"q{p}.x{j}": Dtop.flat_var(p, j, n_states)
        for p in range(1, n_states + 1)
        for j in range(1, arity + 1)
    }


def load_dtop(text: str) -> Dtop:
    doc = _Doc(text)
    unknown = doc.keywords() - {"input", "output", "states", "init", "rule"}
    if unknown:
        raise ParseError(f"unexpected keyword {sorted(unknown)[0]!r} in dtop file")
    input_alphabet = _parse_letters(doc, "input")
    output_alphabet = _parse_letters(doc, "output")
    n_states = _single_int(doc, "states")
    initial = _single_int(doc, "init")
    rules: dict[tuple[str, int], Term] = {}
    for number, row in doc.take("rule"):
        if len(row) < 4 or row[2] != "->":
            _fail(number, "expected `rule Q NAME -> term`")
        state = _int(number, row[0], "state")
        letter = input_alphabet.get(row[1])
        if letter is None:
            _fail(number, f"unknown input letter {row[1]!r}")
        if not 1 <= state <= n_states:
            _fail(number, "state out of range (states are 1..N)")
        term_text = " ".join(row[3:])
        term = parse_term(
            term_text,
            output_alphabet,
            n_states * letter.arity,
            _dtop_var_map(n_states, letter.arity),
        )
        rules[(row[1], state)] = term
    return _checked(Dtop, input_alphabet, output_alphabet, n_states, initial, rules)


def save_dtop(dtop: Dtop) -> str:
    out = []
    for letter in dtop.input_alphabet.letters:
        out.append(f"input {letter.name} {letter.arity}\n")
    for letter in dtop.output_alphabet.letters:
        out.append(f"output {letter.name} {letter.arity}\n")
    out.append(f"states {dtop.n_states}\n")
    out.append(f"init {dtop.initial}\n")
    for letter in dtop.input_alphabet.letters:
        for state in range(1, dtop.n_states + 1):
            term = dtop.rules[(letter.name, state)]
            var_names = {
                Dtop.flat_var(p, j, dtop.n_states): f"q{p}.x{j}"
                for p in range(1, dtop.n_states + 1)
                for j in range(1, letter.arity + 1)
            }
            out.append(f"rule {state} {letter.name} -> {render_term(term, var_names)}\n")
    return "".join(out)


def _parse_polyterm(text: str, base: RankedAlphabet, nvars: int) -> PolyTerm:
    tokens = tokenize(text)[::-1]  # the next token last

    def take() -> tuple[str, int]:
        if not tokens:
            raise ParseError("unexpected end of input", len(text))
        return tokens.pop()

    def read() -> PolyBody:
        if not tokens:
            raise ParseError("unexpected end of polynomial term", len(text))
        name, pos = tokens[-1]
        if name.startswith("@"):
            tokens.pop()
            if not name[1:].isdigit():
                raise ParseError(f"bad constant {name!r}", pos)
            return PConst(int(name[1:]))
        if name.startswith("x") and name[1:].isdigit():
            tokens.pop()
            index = int(name[1:])
            if not 1 <= index <= nvars:
                raise ParseError(f"variable {name} out of range 1..{nvars}", pos)
            return PVar(index)
        letter = base.get(name)
        if letter is None:
            raise ParseError(f"unknown base letter {name!r}", pos)
        tokens.pop()
        args: list[PolyBody] = []
        if tokens and tokens[-1][0] == "(":
            tokens.pop()
            args.append(read())
            while True:
                nxt = take()
                if nxt[0] == ")":
                    break
                if nxt[0] != ",":
                    raise ParseError(f"expected ',' or ')', got {nxt[0]!r}", nxt[1])
                args.append(read())
        if len(args) != letter.arity:
            raise ParseError(f"arity mismatch: {name} expects {letter.arity}", pos)
        return PApp(name, tuple(args))

    body = read()
    if tokens:
        raise ParseError(f"trailing input {tokens[-1][0]!r}", tokens[-1][1])
    return PolyTerm(nvars, body)


def _render_polybody(body: PolyBody) -> str:
    if isinstance(body, PVar):
        return f"x{body.index}"
    if isinstance(body, PConst):
        return f"@{body.element}"
    if not body.args:
        return body.name
    return f"{body.name}({','.join(_render_polybody(a) for a in body.args)})"


def load_matrix(text: str) -> MatrixHom:
    doc = _Doc(text)
    unknown = doc.keywords() - {"input", "base", "carrier", "names", "op", "width", "tuple"}
    if unknown:
        raise ParseError(f"unexpected keyword {sorted(unknown)[0]!r} in matrix file")
    input_alphabet = _parse_letters(doc, "input")
    base_alphabet = _parse_letters(doc, "base")
    size = _single_int(doc, "carrier")
    names = None
    name_rows = doc.take("names")
    if len(name_rows) > 1:
        raise ParseError("at most one `names` line")
    if name_rows:
        if len(name_rows[0][1]) != size:
            _fail(name_rows[0][0], f"`names` must list {size} names")
        names = tuple(name_rows[0][1])
    tables = _parse_ops(doc, base_alphabet, size)
    base = _checked(FiniteAlgebra, base_alphabet, size, tables, names)
    width = _single_int(doc, "width")
    tuples: dict[str, dict[int, PolyTerm]] = {letter.name: {} for letter in input_alphabet.letters}
    for number, row in doc.take("tuple"):
        if len(row) < 4 or row[2] != "->":
            _fail(number, "expected `tuple NAME i -> polyterm`")
        letter = input_alphabet.get(row[0])
        if letter is None:
            _fail(number, f"unknown input letter {row[0]!r}")
        coordinate = _int(number, row[1], "coordinate")
        if not 1 <= coordinate <= width:
            _fail(number, "coordinate out of range")
        pt = _parse_polyterm(" ".join(row[3:]), base_alphabet, width * letter.arity)
        if coordinate in tuples[row[0]]:
            _fail(number, f"duplicate tuple row for {row[0]} {coordinate}")
        tuples[row[0]][coordinate] = pt
    done: dict[str, tuple[PolyTerm, ...]] = {}
    for letter in input_alphabet.letters:
        rows = tuples[letter.name]
        if len(rows) != width:
            raise ParseError(f"letter {letter.name} needs {width} tuple rows")
        done[letter.name] = tuple(rows[i] for i in range(1, width + 1))
    return _checked(MatrixHom, base, input_alphabet, width, done)


def save_matrix(mh: MatrixHom) -> str:
    out = []
    for letter in mh.alphabet.letters:
        out.append(f"input {letter.name} {letter.arity}\n")
    for letter in mh.base.alphabet.letters:
        out.append(f"base {letter.name} {letter.arity}\n")
    out.append(f"carrier {mh.base.size}\n")
    if mh.base.element_names is not None:
        out.append("names " + " ".join(mh.base.element_names) + "\n")
    for letter in mh.base.alphabet.letters:
        for args in itertools.product(range(mh.base.size), repeat=letter.arity):
            middle = (" " + " ".join(map(str, args))) if args else ""
            out.append(f"op {letter.name}{middle} -> {mh.base.op(letter.name, args)}\n")
    out.append(f"width {mh.width}\n")
    for letter in mh.alphabet.letters:
        for i, pt in enumerate(mh.tuples[letter.name], start=1):
            out.append(f"tuple {letter.name} {i} -> {_render_polybody(pt.body)}\n")
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
        except OSError as exc:
            raise ParseError(f"cannot read {ref}: {exc}") from exc

    def dbta(self, ref: str) -> Dbta:
        if ref not in self.dbtas:
            if ref.startswith("@"):
                raise ParseError(f"unknown builtin language {ref}")
            self.dbtas[ref] = load_dbta(self._read(ref))
        return self.dbtas[ref]

    def alphabet(self, ref: str) -> RankedAlphabet:
        if ref not in self.alphabets:
            if ref.startswith("@"):
                raise ParseError(f"unknown builtin alphabet {ref}")
            self.alphabets[ref] = load_alphabet(self._read(ref))
        return self.alphabets[ref]

    def dtop(self, ref: str) -> Dtop:
        if ref not in self.dtops:
            self.dtops[ref] = load_dtop(self._read(ref))
        return self.dtops[ref]

    def matrix(self, ref: str) -> MatrixHom:
        if ref not in self.matrices:
            self.matrices[ref] = load_matrix(self._read(ref))
        return self.matrices[ref]


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
    tree = parse_tree(args.tree, dbta.alphabet)
    value = evaluate(dbta.algebra, tree)
    report.line("value", dbta.algebra.name_of(value))


def _cmd_accepts(ws: Workspace, args, report: Report) -> None:
    dbta = ws.dbta(args.lang)
    tree = parse_tree(args.tree, dbta.alphabet)
    report.line("yes" if accepts(dbta, tree) else "no")


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
    verdict, witness = is_universal_path(
        ws.dbta(args.lang), args.max_states, args.max_states
    )
    if verdict:
        report.line("yes")
    else:
        report.line("no", "witness", render_tree(witness))


def _cmd_doubly_det(ws: Workspace, args, report: Report) -> None:
    verdict = is_doubly_deterministic(ws.dbta(args.lang), args.max_states, args.max_states)
    report.line("yes" if verdict else "no")


def _cmd_mixes(ws: Workspace, args, report: Report) -> None:
    closure = mixes(ws.dbta(args.lang), args.max_states, args.max_states)
    report.blob(save_dbta(closure))


def _cmd_separate(ws: Workspace, args, report: Report) -> None:
    separator = separate_topdown(
        ws.dbta(args.lang), ws.dbta(args.other), args.max_states, args.max_states
    )
    if separator is None:
        report.line("none")
    else:
        report.line("separator", "accepts-side", separator.accepts_side)
        report.blob(save_dtta(separator.dtta))


def _cmd_dtop_apply(ws: Workspace, args, report: Report) -> None:
    dtop = ws.dtop(args.dtop)
    tree = parse_tree(args.tree, dtop.input_alphabet)
    report.line(render_tree(dtop_apply(dtop, tree)))


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


def _cmd_matrix_flatten(ws: Workspace, args, report: Report) -> None:
    mh = ws.matrix(args.matrix)
    accepting = set()
    if args.accept:
        for chunk in args.accept.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                row = tuple(int(x) for x in chunk.split(","))
            except ValueError:
                raise ParseError(f"bad accepting tuple {chunk!r}")
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
    tree = parse_tree(args.tree, alphabet)
    report.line("yes" if ctl_eval(formula, tree) else "no")


def _check_max_width(args) -> None:
    if args.max_width < 1:
        raise ParseError(f"--max-width must be >= 1, got {args.max_width}")


def _cmd_ctl_compile(ws: Workspace, args, report: Report) -> None:
    _check_max_width(args)
    alphabet = ws.alphabet(args.alphabet)
    cascade = ctl_compile(ctl_parse(args.formula, alphabet), alphabet, args.max_width)
    report.line("layers", len(cascade.layers))
    report.line("total-width", cascade.total_width)
    for index, layer in enumerate(cascade.layers):
        letters = len(layer.base.letters) << layer.nbits
        report.line("layer", index, "width", layer.width, "letters", letters)
    report.line("output", cascade.output[0], cascade.output[1])


def _cmd_ctl_verify(ws: Workspace, args, report: Report) -> None:
    _check_max_width(args)
    if args.count < 0:
        raise ParseError(f"--count must be >= 0, got {args.count}")
    alphabet = ws.alphabet(args.alphabet)
    if args.formula:
        formulas = [ctl_parse(args.formula, alphabet)]
    else:
        seed = int(os.environ.get("TREELAB_SEED", "0"))
        formulas = random_formula_corpus(seed, alphabet, args.count, max_width=args.max_width)
    trees = enumerate_trees(alphabet, args.max_nodes)
    checked = 0
    for formula in formulas:
        flat = cascade_flatten(ctl_compile(formula, alphabet, args.max_width))
        for tree in trees:
            if accepts(flat, tree) != ctl_eval(formula, tree):
                report.line("MISMATCH", ctl_render(formula), render_tree(tree))
                return
            checked += 1
    report.line("agree", "on", checked, "checks", f"({len(formulas)} formulas, {len(trees)} trees)")


def _parse_congruence(text: str, size: int) -> Congruence:
    if text == "full":
        return Congruence.full(size)
    if text == "identity":
        return Congruence.identity(size)
    blocks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            blocks.append({int(x) for x in chunk.split(",")})
        except ValueError:
            raise ParseError(f"bad congruence block {chunk!r}")
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


# --- oracle verify -----------------------------------------------------------------


class _Mismatch(Exception):
    """An oracle suite disagreed with the construction it checks."""


def _check(ok: bool, suite: str, *detail) -> None:
    """Raise _Mismatch unless ok; the detail parts are rendered only on failure."""
    if not ok:
        parts = (render_tree(p) if isinstance(p, Tree) else str(p) for p in detail)
        raise _Mismatch(f"{suite}: {' '.join(parts)}")


def _paths_oracle_word_in_language(dbta: Dbta, reach: list[int], word) -> bool:
    """Definitional check: some member tree realizes the path word.

    Dynamic programming from the leaf symbol upwards: the set of values an
    extension tree can take while showing the remaining word on the spine,
    with off-spine children filled by arbitrary values of ``reach``, the
    sorted reachable elements of the language's algebra.
    """
    algebra = dbta.algebra
    leaf = word[-1]
    possible = {algebra.op(leaf.name, ())}
    for symbol in reversed(word[:-1]):
        letter, position = symbol
        nxt = set()
        for spine in possible:
            for others in itertools.product(reach, repeat=letter.arity - 1):
                args = others[: position - 1] + (spine,) + others[position - 1 :]
                nxt.add(algebra.op(letter.name, args))
        possible = nxt
    return bool(possible & set(dbta.accepting))


def _word_key(word) -> tuple[str, ...]:
    """A rendering of a path word: steps as name.i, then the leaf name."""
    return tuple(f"{s[0].name}.{s[1]}" if isinstance(s, tuple) else s.name for s in word)


def _oracle_universal_path(report: Report, max_nodes: int) -> int:
    checks = 0
    for name in ("l_true_and", "l_true_or", "l_pott", "l_pair", "l_two"):
        dbta = fixtures.corpus_dbta(name)
        verdict, _witness = is_universal_path(dbta)
        trees = enumerate_trees(dbta.alphabet, max_nodes)
        reach = sorted(reachable_elements(dbta.algebra))
        # a fixed word order, so the short-circuit does the same work every run
        mix_members = [
            tree
            for tree in trees
            if all(
                _paths_oracle_word_in_language(dbta, reach, w)
                for w in sorted(path_words(tree), key=_word_key)
            )
        ]
        oracle = all(accepts(dbta, tree) for tree in mix_members)
        _check(verdict == oracle, "universal-path-oracle", "verdict disagrees on", name)
        checks += len(trees)
    return checks


def _oracle_suites(report: Report, max_nodes: int, count: int) -> None:
    checks = 0
    suite = "trees-roundtrip-paths"
    for name, dbta in fixtures.CORPUS:
        for tree in enumerate_trees(dbta.alphabet, max_nodes):
            _check(parse_tree(render_tree(tree), dbta.alphabet) == tree, suite, name, tree)
            _check(len(path_words(tree)) == tree.leaf_count(), suite, name, tree)
            checks += 1
    report.line("suite", "trees-roundtrip-paths:", checks, "checks")

    checks = 0
    for left, right in (("l_pair", "l_two"), ("l_true_and", "l_true_and")):
        d1, d2 = fixtures.corpus_dbta(left), fixtures.corpus_dbta(right)
        union = boolean_combine("union", d1, d2)
        inter = boolean_combine("intersection", d1, d2)
        diff = boolean_combine("difference", d1, d2)
        for tree in enumerate_trees(d1.alphabet, max_nodes):
            a, b = accepts(d1, tree), accepts(d2, tree)
            case = (left, right, tree)
            _check(accepts(union, tree) == (a or b), "boolean-ops", "union", *case)
            _check(accepts(inter, tree) == (a and b), "boolean-ops", "intersection", *case)
            _check(accepts(diff, tree) == (a and not b), "boolean-ops", "difference", *case)
            checks += 3
    report.line("suite", "boolean-ops:", checks, "checks")

    checks = 0
    pre = preimage_tree_hom(fixtures.K_POTT, fixtures.HOM_DUP)
    for tree in enumerate_trees(fixtures.SIG_LINE, max_nodes):
        image = hom_apply(fixtures.HOM_DUP, tree)
        _check(accepts(pre, tree) == accepts(fixtures.K_POTT, image), "hom-preimage", tree)
        checks += 1
    report.line("suite", "hom-preimage:", checks, "checks")

    checks = 0
    suite = "mixes-closure-laws"
    for name, dbta in fixtures.CORPUS:
        closure = mixes(dbta)
        _check(subset_counterexample(dbta, closure) is None, suite, f"L not within mixes({name})")
        _check(are_equivalent(mixes(closure), closure)[0], suite, f"mixes({name}) not idempotent")
        _check(is_universal_path(closure)[0], suite, f"mixes({name}) not universal-path")
        checks += 3
    report.line("suite", "mixes-closure-laws:", checks, "checks")

    checks = _oracle_universal_path(report, max_nodes)
    report.line("suite", "universal-path-oracle:", checks, "checks")

    checks = 0
    seed = int(os.environ.get("TREELAB_SEED", "0"))
    for alphabet in (fixtures.SIG_POTT, fixtures.SIG_GCD):
        trees = enumerate_trees(alphabet, max_nodes)
        for formula in random_formula_corpus(seed, alphabet, count):
            flat = cascade_flatten(ctl_compile(formula, alphabet))
            text = ctl_render(formula)
            for tree in trees:
                ok = accepts(flat, tree) == ctl_eval(formula, tree)
                _check(ok, "ctl-compile-vs-eval", text, tree)
                checks += 1
    report.line("suite", "ctl-compile-vs-eval:", checks, "checks")

    checks = 0
    langs = [fixtures.L_TRUE_AND]
    annotated = annotated_alphabet(fixtures.SIG_AND, 1)
    # top = "the root's own annotation bit is set"
    tables = {
        letter.name: tuple(
            int(letter.name.endswith("|1")) for _ in range(2**letter.arity)
        )
        for letter in annotated.letters
    }
    top = Dbta(FiniteAlgebra(annotated, 2, tables), frozenset({1}))
    nested = nest(langs, top)
    for tree in enumerate_trees(fixtures.SIG_AND, max_nodes):
        ok = accepts(nested, tree) == accepts(top, annotate(tree, langs))
        _check(ok, "nest-adjunction", tree)
        checks += 1
    report.line("suite", "nest-adjunction:", checks, "checks")

    report.line("ok")


def _cmd_oracle_verify(ws: Workspace, args, report: Report) -> None:
    _oracle_suites(report, args.max_nodes, args.count)


# --- argument parsing ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="treelab", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("eval", _cmd_eval, help="evaluate a tree in an algebra")
    p.add_argument("--lang", required=True)
    p.add_argument("--tree", required=True)

    p = add("accepts", _cmd_accepts, help="membership test")
    p.add_argument("--lang", required=True)
    p.add_argument("--tree", required=True)

    p = add("minimize", _cmd_minimize, help="syntactic algebra; prints tables")
    p.add_argument("--lang", required=True)

    p = add("equiv", _cmd_equiv, help="language equality with counterexample")
    p.add_argument("--lang", required=True)
    p.add_argument("--other", required=True)

    p = add("bool", _cmd_bool, help="union/intersection/difference")
    p.add_argument("--kind", choices=("union", "intersection", "difference"), required=True)
    p.add_argument("--lang", required=True)
    p.add_argument("--other", required=True)

    for name, fn in (
        ("universal-path", _cmd_universal_path),
        ("doubly-det", _cmd_doubly_det),
        ("mixes", _cmd_mixes),
    ):
        p = add(name, fn, help=f"{name} decision")
        p.add_argument("--lang", required=True)
        p.add_argument("--max-states", type=int, default=DEFAULT_CARRIER_CAP)

    p = add("separate", _cmd_separate, help="deterministic top-down separator")
    p.add_argument("--lang", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--max-states", type=int, default=DEFAULT_CARRIER_CAP)

    p = add("dtop", None, help="transducer operations")
    dtop_sub = p.add_subparsers(dest="subcommand", required=True)
    q = dtop_sub.add_parser("apply")
    q.set_defaults(fn=_cmd_dtop_apply)
    q.add_argument("--dtop", required=True)
    q.add_argument("--tree", required=True)
    q = dtop_sub.add_parser("preimage")
    q.set_defaults(fn=_cmd_dtop_preimage)
    q.add_argument("--dtop", required=True)
    q.add_argument("--lang", required=True)
    q.add_argument("--max-states", type=int, default=DEFAULT_CARRIER_CAP)

    p = add("matrix", None, help="matrix-power homomorphisms")
    matrix_sub = p.add_subparsers(dest="subcommand", required=True)
    q = matrix_sub.add_parser("from-dtop")
    q.set_defaults(fn=_cmd_matrix_from_dtop)
    q.add_argument("--dtop", required=True)
    q.add_argument("--base", required=True)
    q = matrix_sub.add_parser("to-dtops")
    q.set_defaults(fn=_cmd_matrix_to_dtops)
    q.add_argument("--matrix", required=True)
    q = matrix_sub.add_parser("flatten")
    q.set_defaults(fn=_cmd_matrix_flatten)
    q.add_argument("--matrix", required=True)
    q.add_argument("--accept", default="")
    q.add_argument("--max-states", type=int, default=DEFAULT_CARRIER_CAP)

    p = add("nest", _cmd_nest, help="nesting: annotate then run the top language")
    p.add_argument("--top", required=True)
    p.add_argument("--langs", default="")
    p.add_argument("--max-states", type=int, default=DEFAULT_CARRIER_CAP)

    p = add("wreath", None, help="wreath products")
    wreath_sub = p.add_subparsers(dest="subcommand", required=True)
    q = wreath_sub.add_parser("compose")
    q.set_defaults(fn=_cmd_wreath_compose)
    q.add_argument("--inner", required=True, help="h: algebra over the base alphabet")
    q.add_argument("--outer", required=True, help="g: algebra over the value-annotated alphabet")

    p = add("ctl", None, help="CTL on finite trees")
    ctl_sub = p.add_subparsers(dest="subcommand", required=True)
    q = ctl_sub.add_parser("eval")
    q.set_defaults(fn=_cmd_ctl_eval)
    q.add_argument("--alphabet", required=True)
    q.add_argument("--formula", required=True)
    q.add_argument("--tree", required=True)
    q = ctl_sub.add_parser("compile")
    q.set_defaults(fn=_cmd_ctl_compile)
    q.add_argument("--alphabet", required=True)
    q.add_argument("--formula", required=True)
    q.add_argument("--max-width", type=int, default=DEFAULT_WIDTH_CAP)
    q = ctl_sub.add_parser("verify")
    q.set_defaults(fn=_cmd_ctl_verify)
    q.add_argument("--alphabet", required=True)
    q.add_argument("--formula", default="")
    q.add_argument("--count", type=int, default=25)
    q.add_argument("--max-nodes", type=int, default=8)
    q.add_argument("--max-width", type=int, default=DEFAULT_WIDTH_CAP)

    p = add("structure", None, help="finite-algebra structure checks")
    structure_sub = p.add_subparsers(dest="subcommand", required=True)
    q = structure_sub.add_parser("congruences")
    q.set_defaults(fn=_cmd_structure_congruences)
    q.add_argument("--lang", required=True)
    q = structure_sub.add_parser("orpairs")
    q.set_defaults(fn=_cmd_structure_orpairs)
    q.add_argument("--lang", required=True)
    q = structure_sub.add_parser("strongly-abelian")
    q.set_defaults(fn=_cmd_structure_strongly_abelian)
    q.add_argument("--lang", required=True)
    q.add_argument("--congruence", default="full")
    q.add_argument("--arity-bound", type=int, default=2)
    q.add_argument("--depth-bound", type=int, default=3)
    q = structure_sub.add_parser("lattice-divides")
    q.set_defaults(fn=_cmd_structure_lattice_divides)
    q.add_argument("--lang", required=True)
    q.add_argument("--polynomials", action="store_true")
    q = structure_sub.add_parser("orpair-separation")
    q.set_defaults(fn=_cmd_structure_orpair_separation)
    q.add_argument("--lang", required=True)

    p = add("oracle", None, help="brute-force agreement suites")
    oracle_sub = p.add_subparsers(dest="subcommand", required=True)
    q = oracle_sub.add_parser("verify")
    q.set_defaults(fn=_cmd_oracle_verify)
    q.add_argument("--max-nodes", type=int, default=6)
    q.add_argument("--count", type=int, default=10)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    report = Report(args.format)
    try:
        args.fn(Workspace(), args, report)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except _Mismatch as exc:
        print(f"mismatch {exc}", file=sys.stderr)
        return 1
    except (ParseError, TreelabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
