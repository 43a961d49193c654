import itertools
import os
import random
import re
import subprocess
import sys
import time

import pytest
from test_acceptance import budget
from test_automata import random_algebra
from test_cascade import KEYWORD_NAMES
from test_folds import UNCALLED_STATE, UNCALLED_STATE_INPUT

import treelab
from treelab import cli, oracle
from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    boolean_combine,
    complement,
    with_constants,
)
from treelab.cascade import cascade_flatten, ctl_compile, ctl_parse
from treelab.cli import (
    Workspace,
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
from treelab.fixtures import CORPUS, DBTA_POTT, HOM_DUP, K_POTT, L_PAIR, SIG_GCD
from treelab.oracle import sweep_reachable
from treelab.paths import determinize, dtta_to_dbta, path_nfa
from treelab.syntactic import find_isomorphism
from treelab.transduce import (
    MAX_DTOP_OUTPUT,
    Dtop,
    MatrixHom,
    dtop_to_matrix_hom,
    matrix_power_language,
)
from treelab.trees import RankedAlphabet, Tree, enumerate_trees, parse_term, render_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dbta_roundtrip():
    text = save_dbta(DBTA_POTT)
    again = load_dbta(text)
    assert again == DBTA_POTT
    assert save_dbta(again) == text


def test_alphabet_roundtrip():
    text = save_alphabet(SIG_GCD)
    assert load_alphabet(text) == SIG_GCD
    assert save_alphabet(load_alphabet(text)) == text


def test_dtta_roundtrip():
    dtta = determinize(path_nfa(L_PAIR))
    text = save_dtta(dtta)
    again = load_dtta(text)
    assert again == dtta
    assert save_dtta(again) == text


def test_dtop_roundtrip():
    dtop = HOM_DUP
    text = save_dtop(dtop)
    again = load_dtop(text)
    assert again == dtop
    assert save_dtop(again) == text


def test_matrix_roundtrip():
    mh = dtop_to_matrix_hom(HOM_DUP, K_POTT.algebra)
    text = save_matrix(mh)
    again = load_matrix(text)
    assert again == mh
    assert save_matrix(again) == text


def reference_op_rows(algebra):
    """The op lines as one row per argument tuple, through `op` (the writer's spec)."""
    return "".join(
        f"op {letter.name}{''.join(f' {x}' for x in args)} -> {algebra.op(letter.name, args)}\n"
        for letter in algebra.alphabet.letters
        for args in itertools.product(range(algebra.size), repeat=letter.arity)
    )


def random_base(rng, size, named):
    alphabet = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0))
    tables = {
        letter.name: tuple(rng.randrange(size) for _ in range(size**letter.arity))
        for letter in alphabet.letters
    }
    names = tuple(f"e{rng.randrange(100)}_{e}" for e in range(size)) if named else None
    return FiniteAlgebra(alphabet, size, tables, names)


@pytest.mark.parametrize("named", (False, True), ids=("plain", "names"))
def test_op_tables_round_trip(named):
    rng = random.Random(24 + named)
    inputs = RankedAlphabet.of(("h", 2), ("u", 1), ("c", 0))
    for size in range(1, 25):
        base = random_base(rng, size, named)
        dbta = Dbta(base, frozenset(e for e in range(size) if rng.random() < 0.4))
        text = save_dbta(dbta)
        names = f"names {' '.join(base.element_names)}\n" if named else ""
        accept = "".join(f" {e}" for e in sorted(dbta.accepting))
        assert text == (
            f"letter f 2\nletter g 1\nletter a 0\nletter b 0\ncarrier {size}\n{names}"
            + reference_op_rows(base) + f"accept{accept}\n"
        )
        assert load_dbta(text) == dbta and save_dbta(load_dbta(text)) == text

        width = rng.randint(1, 2)
        constants = with_constants(base).alphabet
        pool = ["a", "b", f"@{size - 1}", f"@{rng.randrange(size)}"]
        tuples = {}
        for letter in inputs.letters:
            variables = [f"x{i}" for i in range(1, width * letter.arity + 1)]
            leaves = pool + variables
            tuples[letter.name] = tuple(
                parse_term(
                    rng.choice([
                        rng.choice(leaves),
                        f"g({rng.choice(leaves)})",
                        f"f({rng.choice(leaves)},g({rng.choice(leaves)}))",
                    ]),
                    constants,
                    width * letter.arity,
                )
                for _ in range(width)
            )
        matrix = MatrixHom(base, inputs, width, tuples)
        text = save_matrix(matrix)
        assert reference_op_rows(base) in text
        assert load_matrix(text) == matrix and save_matrix(load_matrix(text)) == text


def test_accepts_builtin(capsys):
    code, out, _ = run(capsys, "accepts", "--lang", "@l_pott", "--tree", "f0")
    assert code == 0 and out == "yes\n"
    code, out, _ = run(capsys, "accepts", "--lang", "@l_pott", "--tree", "f1(f0)")
    assert code == 0 and out == "no\n"


def test_eval_named_elements(capsys):
    code, out, _ = run(capsys, "eval", "--lang", "@l_pott", "--tree", "f2(f1(f0),f0)")
    assert code == 0 and out == "value bot\n"


def test_minimize_pott(capsys):
    code, out, _ = run(capsys, "minimize", "--lang", "@l_pott_redundant")
    assert code == 0
    assert out.startswith("carrier 3\n")
    body = out.split("\n", 1)[1]
    minimal = load_dbta(body)
    accepting = (minimal.accepting, DBTA_POTT.accepting)
    assert find_isomorphism(minimal.algebra, DBTA_POTT.algebra, accepting) is not None


def test_universal_path_verdicts(capsys):
    code, out, _ = run(capsys, "universal-path", "--lang", "@l_true_and")
    assert code == 0 and out == "yes\n"
    code, out, _ = run(capsys, "universal-path", "--lang", "@l_true_or")
    assert code == 0 and out.startswith("no witness ")


def test_doubly_det(capsys):
    code, out, _ = run(capsys, "doubly-det", "--lang", "@l_root_g")
    assert code == 0 and out == "yes\n"
    code, out, _ = run(capsys, "doubly-det", "--lang", "@l_true_and")
    assert code == 0 and out == "no\n"


def test_equiv_and_bool(capsys, tmp_path):
    code, out, _ = run(capsys, "equiv", "--lang", "@l_pair", "--other", "@l_pair")
    assert code == 0 and out == "equivalent\n"
    code, out, _ = run(capsys, "equiv", "--lang", "@l_pair", "--other", "@l_two")
    assert code == 0 and out.startswith("different ")
    code, out, _ = run(capsys, "bool", "--kind", "intersection", "--lang", "@l_pair", "--other", "@l_two")
    assert code == 0
    combined = load_dbta(out)
    assert combined.algebra.size == 16


def test_equiv_witness_ties_break_on_rendering(capsys, tmp_path):
    # a -> 1, b -> 0, g -> 2: g(a) and g(b) both reach the accepting 2.
    algebra = FiniteAlgebra(
        RankedAlphabet.of(("g", 1), ("a", 0), ("b", 0)),
        3,
        {"g": (2, 2, 2), "a": (1,), "b": (0,)},
    )
    lang, empty = tmp_path / "g.dbta", tmp_path / "empty.dbta"
    lang.write_text(save_dbta(Dbta(algebra, frozenset({2}))))
    empty.write_text(save_dbta(Dbta(algebra, frozenset())))
    code, out, _ = run(capsys, "equiv", "--lang", str(lang), "--other", str(empty))
    assert code == 0 and out == "different g(a)\n"


def test_separate(capsys):
    code, out, _ = run(capsys, "separate", "--lang", "@l_pair", "--other", "@l_two")
    assert code == 0
    assert out.startswith("separator accepts-side")
    code, out, _ = run(capsys, "separate", "--lang", "@l_pair", "--other", "@l_pair")
    assert code == 0 and out == "none\n"


def test_mixes_output_loads(capsys):
    code, out, _ = run(capsys, "mixes", "--lang", "@l_two")
    assert code == 0
    load_dbta(out)


def test_path_commands_without_constants(capsys, tmp_path):
    # over g/1, f/2 there are no trees: every decision holds vacuously
    algebra = FiniteAlgebra(
        RankedAlphabet.of(("g", 1), ("f", 2)), 2, {"g": (1, 0), "f": (0, 1, 1, 0)}
    )
    path = tmp_path / "noconst.dbta"
    path.write_text(save_dbta(Dbta(algebra, frozenset({1}))))
    for command in ("universal-path", "doubly-det"):
        code, out, err = run(capsys, command, "--lang", str(path))
        assert (code, out, err) == (0, "yes\n", "")
    code, out, _ = run(capsys, "mixes", "--lang", str(path))
    assert code == 0
    closure = load_dbta(out)
    assert closure.algebra.size == 1 and not closure.accepting


def test_dtop_apply_file(capsys, tmp_path):
    path = tmp_path / "dup.dtop"
    path.write_text(save_dtop(HOM_DUP))
    code, out, _ = run(capsys, "dtop", "apply", "--dtop", str(path), "--tree", "f1(f1(f0))")
    assert code == 0 and out == "f2(f2(f0,f0),f2(f0,f0))\n"


def test_deep_trees_on_the_command_line(capsys, tmp_path):
    depth = 10_000
    spine = "f1(" * depth + "f0" + ")" * depth
    tables = DBTA_POTT.algebra.tables
    value = tables["f0"][0]
    for _ in range(depth):
        value = tables["f1"][value]
    code, out, err = run(capsys, "eval", "--lang", "@l_pott", "--tree", spine)
    assert (code, out, err) == (0, f"value {DBTA_POTT.algebra.name_of(value)}\n", "")
    code, out, err = run(capsys, "accepts", "--lang", "@l_pott", "--tree", spine)
    assert (code, out, err) == (0, "yes\n" if value in DBTA_POTT.accepting else "no\n", "")
    sig = DBTA_POTT.alphabet
    rules = {"f2": "f2(x2,x1)", "f1": "f2(x1,f0)", "f0": "f0"}
    dtop = Dtop(sig, sig, 1, 1, {
        (letter.name, 1): parse_term(rules[letter.name], sig, letter.arity)
        for letter in sig.letters
    })
    path = tmp_path / "deep.dtop"
    path.write_text(save_dtop(dtop))
    code, out, err = run(capsys, "dtop", "apply", "--dtop", str(path), "--tree", spine)
    assert (code, out, err) == (0, "f2(" * depth + "f0" + ",f0)" * depth + "\n", "")
    for formula, verdict in (("E[lbl(f1) U lbl(f0)]", "yes"), ("DU[f2.1 ; f0]", "no")):
        code, out, err = run(capsys, "ctl", "eval", "--alphabet", "@sig_pott",
                             "--formula", formula, "--tree", spine)
        assert (code, out, err) == (0, verdict + "\n", "")


def test_tree_commands_fold_the_text_without_building_the_tree(capsys, tmp_path, monkeypatch):
    # a random tree of 700 f0, 699 f2 and 601 f1 nodes, built before counting starts
    rng = random.Random(3)
    sig = DBTA_POTT.alphabet
    pool, unary = [Tree(sig["f0"]) for _ in range(700)], 601
    while len(pool) > 1 or unary:
        if unary and (len(pool) == 1 or rng.random() < 0.5):
            at, unary = rng.randrange(len(pool)), unary - 1
            pool[at] = Tree(sig["f1"], (pool[at],))
        else:
            kids = (pool.pop(rng.randrange(len(pool))), pool.pop(rng.randrange(len(pool))))
            pool.append(Tree(sig["f2"], kids))
    text = render_tree(pool[0])
    assert pool[0].size() == 2000
    rules = {"f2": "f2(x2,x1)", "f1": "f1(x1)", "f0": "f0"}
    dtop = Dtop(sig, sig, 1, 1, {
        (letter.name, 1): parse_term(rules[letter.name], sig, letter.arity)
        for letter in sig.letters
    })
    path = tmp_path / "swap.dtop"
    path.write_text(save_dtop(dtop))
    built = []  # one entry per Tree made from here on
    check = Tree.__post_init__
    monkeypatch.setattr(Tree, "__post_init__", lambda tree: built.append(check(tree)))
    for argv in (
        ("eval", "--lang", "@l_pott", "--tree", text),
        ("accepts", "--lang", "@l_pott", "--tree", text),
        ("ctl", "eval", "--alphabet", "@sig_pott", "--formula", "E[lbl(f1) U lbl(f0)]",
         "--tree", text),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err, len(built)) == (0, "", 0), argv
    code, out, err = run(capsys, "dtop", "apply", "--dtop", str(path), "--tree", text)
    assert (code, err) == (0, "")
    assert 0 < len(built) <= out.count(",") + out.count("(") + 1 == 2000


def test_dtop_apply_builds_no_tree_past_the_dtop_file(capsys, tmp_path, monkeypatch):
    # the transduction's word is rendered as it is written: no Tree is made
    # once the DTOP file is loaded (its rule bodies are Trees)
    path = tmp_path / "uncalled.dtop"
    path.write_text(save_dtop(UNCALLED_STATE))
    built = []  # one entry per Tree made since the DTOP file was loaded
    check = Tree.__post_init__
    monkeypatch.setattr(Tree, "__post_init__", lambda tree: built.append(check(tree)))
    load = cli.load_dtop

    def load_then_count_afresh(text):
        dtop = load(text)
        built.clear()
        return dtop

    monkeypatch.setattr(cli, "load_dtop", load_then_count_afresh)
    argv = ("dtop", "apply", "--dtop", str(path), "--tree", UNCALLED_STATE_INPUT)
    assert run(capsys, *argv) == (0, UNCALLED_STATE_INPUT + "\n", "")
    assert not built


def test_a_copying_dtop_past_the_output_cap_exits_3(capsys, tmp_path):
    # HOM_DUP doubles the output per level: 2**41 - 1 nodes from a line of 40
    # f1; its rules write one letter at most, so the cap is MAX_DTOP_OUTPUT + 41
    path = tmp_path / "dup.dtop"
    path.write_text(save_dtop(HOM_DUP))
    line = "f1(" * 40 + "f0" + ")" * 40
    with budget(2.0):
        code, out, err = run(capsys, "dtop", "apply", "--dtop", str(path), "--tree", line)
    cap = MAX_DTOP_OUTPUT + 41
    assert (code, out, err) == (3, "", f"cap exceeded: dtop output exceeds {cap}\n")


def test_deep_terms_in_files(capsys, tmp_path):
    depth = 10_001  # odd, so the chain of u's negates
    chain = "u(" * depth + "{}" + ")" * depth
    matrix = (
        "input g 1\ninput a 0\nbase u 1\nbase c 0\ncarrier 2\nop u 0 -> 1\nop u 1 -> 0\n"
        "op c -> 0\nwidth 1\ntuple g 1 -> " + chain.format("x1") + "\ntuple a 1 -> c\n"
    )
    assert save_matrix(load_matrix(matrix)) == matrix
    path = tmp_path / "deep.matrix"
    path.write_text(matrix)
    flat = "letter g 1\nletter a 0\ncarrier 2\nop g 0 -> 1\nop g 1 -> 0\nop a -> 0\naccept 0\n"
    assert run(capsys, "matrix", "flatten", "--matrix", str(path), "--accept", "0") == (
        0, flat, ""
    )
    dtop = (
        "input g 1\ninput a 0\noutput u 1\noutput c 0\nstates 1\ninit 1\n"
        "rule 1 g -> " + chain.format("q1.x1") + "\nrule 1 a -> c\n"
    )
    assert save_dtop(load_dtop(dtop)) == dtop
    path = tmp_path / "deep.dtop"
    path.write_text(dtop)
    code, out, err = run(capsys, "dtop", "apply", "--dtop", str(path), "--tree", "g(g(a))")
    assert (code, out, err) == (0, "u(" * 2 * depth + "c" + ")" * 2 * depth + "\n", "")


def test_dtop_preimage_file(capsys, tmp_path):
    path = tmp_path / "dup.dtop"
    path.write_text(save_dtop(HOM_DUP))
    code, out, _ = run(capsys, "dtop", "preimage", "--dtop", str(path), "--lang", "@k_pott")
    assert code == 0
    pre = load_dbta(out)
    assert pre.algebra.alphabet.get("f1") is not None


K_POTT_OPS = (
    "carrier 3\nnames 0 1 bot\n"
    "op f2 0 0 -> 1\nop f2 0 1 -> 2\nop f2 0 2 -> 2\nop f2 1 0 -> 2\nop f2 1 1 -> 0\n"
    "op f2 1 2 -> 2\nop f2 2 0 -> 2\nop f2 2 1 -> 2\nop f2 2 2 -> 2\nop f0 -> 0\n"
)
MATRIX_DUP = (
    "input f1 1\ninput f0 0\nbase f2 2\nbase f0 0\n" + K_POTT_OPS
    + "width 1\ntuple f1 1 -> f2(x1,x1)\ntuple f0 1 -> f0\n"
)
MATRIX_DUP_DTOPS = (
    "# dtop template (choose init 1..width for each coordinate)\n"
    "input f1 1\ninput f0 0\noutput f2 2\noutput f0 0\noutput @0 0\noutput @1 0\noutput @2 0\n"
    "states 1\ninit 1\nrule 1 f1 -> f2(q1.x1,q1.x1)\nrule 1 f0 -> f0\n"
    "# base evaluation algebra\n"
    "letter f2 2\nletter f0 0\nletter @0 0\nletter @1 0\nletter @2 0\n" + K_POTT_OPS
    + "op @0 -> 0\nop @1 -> 1\nop @2 -> 2\naccept\n"
)
MATRIX_DUP_FLAT = (
    "letter f1 1\nletter f0 0\ncarrier 2\nop f1 0 -> 1\nop f1 1 -> 0\nop f0 -> 0\naccept 0\n"
)


def test_matrix_pipeline(capsys, tmp_path):
    dtop_path = tmp_path / "dup.dtop"
    dtop_path.write_text(save_dtop(HOM_DUP))
    assert run(
        capsys, "matrix", "from-dtop", "--dtop", str(dtop_path), "--base", "@k_pott"
    ) == (0, MATRIX_DUP, "")
    matrix_path = tmp_path / "dup.matrix"
    matrix_path.write_text(MATRIX_DUP)
    assert run(capsys, "matrix", "to-dtops", "--matrix", str(matrix_path)) == (
        0, MATRIX_DUP_DTOPS, ""
    )
    assert run(capsys, "matrix", "flatten", "--matrix", str(matrix_path), "--accept", "0") == (
        0, MATRIX_DUP_FLAT, ""
    )
    load_dbta(MATRIX_DUP_FLAT)


def test_matrix_flatten_accept_outside_base(capsys, tmp_path):
    matrix_path = tmp_path / "dup.matrix"
    matrix_path.write_text(save_matrix(dtop_to_matrix_hom(HOM_DUP, K_POTT.algebra)))
    code, out, err = run(capsys, "matrix", "flatten", "--matrix", str(matrix_path), "--accept", "7")
    assert code == 2 and out == ""
    assert "outside 0..2" in err and "Traceback" not in err


def test_option_groups(capsys, tmp_path):
    # an `a,b;c,d` value: chunks split at `;` and stripped, empty ones skipped
    abelian = ("structure", "strongly-abelian", "--lang", "@l_pott", "--congruence")
    assert run(capsys, *abelian, " 0 ; 1;;2 ") == run(capsys, *abelian, "identity")
    mh = dtop_to_matrix_hom(HOM_DUP, K_POTT.algebra)
    path = tmp_path / "dup.matrix"
    path.write_text(save_matrix(mh))
    flatten = ("matrix", "flatten", "--matrix", str(path), "--accept")
    expected = save_dbta(matrix_power_language(mh, {(0,), (2,)}))
    assert run(capsys, *flatten, "0; 2;") == (0, expected, "")
    assert run(capsys, *flatten, "0;x") == (2, "", "error: bad accepting tuple 'x'\n")


def test_ctl_eval_and_verify(capsys):
    code, out, _ = run(
        capsys,
        "ctl", "eval",
        "--alphabet", "@sig_pott",
        "--formula", "E[lbl(f1) U lbl(f0)]",
        "--tree", "f1(f1(f0))",
    )
    assert code == 0 and out == "yes\n"
    code, out, _ = run(
        capsys,
        "ctl", "verify",
        "--alphabet", "@sig_pott",
        "--formula", "E[lbl(f1) U lbl(f0)]",
        "--max-nodes", "6",
    )
    assert code == 0 and out.startswith("agree on ")


def test_ctl_verify_counts(capsys, monkeypatch):
    verify = ("ctl", "verify", "--alphabet")
    monkeypatch.setenv("TREELAB_SEED", "3")
    assert run(capsys, *verify, "@sig_pott", "--count", "7", "--max-nodes", "6") == (
        0, "agree on 266 checks (7 formulas, 38 trees)\n", ""
    )
    corpus = ("--count", "4", "--max-nodes", "7", "--max-width", "10")
    monkeypatch.setenv("TREELAB_SEED", "11")
    assert run(capsys, *verify, "@sig_gcd", *corpus) == (
        0, "agree on 408 checks (4 formulas, 102 trees)\n", ""
    )
    single = ("--formula", "E[lbl(g) U X2 lbl(d)]", "--max-nodes", "7")
    assert run(capsys, *verify, "@sig_gcd", *single) == (
        0, "agree on 102 checks (1 formulas, 102 trees)\n", ""
    )


def test_ctl_verify_reports_the_first_mismatch(capsys, monkeypatch):
    verify = ("ctl", "verify", "--alphabet")
    single = ("--formula", "E[lbl(g) U X2 lbl(d)]", "--max-nodes", "7")
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "cascade_flatten", lambda c, *a: complement(cascade_flatten(c, *a)))
        assert run(capsys, *verify, "@sig_gcd", *single) == (
            0, "MISMATCH E[lbl(g) U X2 lbl(d)] c\n", ""
        )
        patch.setenv("TREELAB_SEED", "3")
        assert run(capsys, *verify, "@sig_pott", "--count", "7", "--max-nodes", "6") == (
            0, "MISMATCH DU[f2.1 ; f1, f2] f0\n", ""
        )
        patch.setenv("TREELAB_SEED", "1")
        code, out, err = run(capsys, "oracle", "verify", "--max-nodes", "4", "--count", "2")
        assert (code, err) == (1, "mismatch ctl-compile-vs-eval: lbl(f1) f0\n")
    # an automaton that disagrees first on a later tree, in enumeration order
    other = ctl_parse("E[lbl(g) U X2 lbl(d)] | X1 X1 lbl(c)", SIG_GCD)
    flat = cascade_flatten(ctl_compile(other, SIG_GCD))
    monkeypatch.setattr(oracle, "cascade_flatten", lambda c, *a: flat)
    assert run(capsys, *verify, "@sig_gcd", *single) == (
        0, "MISMATCH E[lbl(g) U X2 lbl(d)] g(g(c,c),c)\n", ""
    )



def test_ctl_verify_builds_no_tree_but_the_printed_one(capsys, monkeypatch):
    verify = ("ctl", "verify", "--alphabet")
    single = ("--formula", "E[lbl(g) U X2 lbl(d)]", "--max-nodes", "7")
    other = ctl_parse("E[lbl(g) U X2 lbl(d)] | X1 X1 lbl(c)", SIG_GCD)
    later = cascade_flatten(ctl_compile(other, SIG_GCD))
    built = []  # one entry per Tree made from here on
    check = Tree.__post_init__
    monkeypatch.setattr(Tree, "__post_init__", lambda tree: built.append(check(tree)))
    code, out, err = run(capsys, *verify, "@sig_pott", "--max-nodes", "8")
    assert (code, err, len(built)) == (0, "", 0) and out.startswith("agree on ")
    # the MISMATCH cases of test_ctl_verify_reports_the_first_mismatch
    monkeypatch.setenv("TREELAB_SEED", "3")
    for flatten, argv in (
        (lambda c, *a: complement(cascade_flatten(c, *a)), ("@sig_gcd", *single)),
        (lambda c, *a: complement(cascade_flatten(c, *a)),
         ("@sig_pott", "--count", "7", "--max-nodes", "6")),
        (lambda c, *a: later, ("@sig_gcd", *single)),
    ):
        monkeypatch.setattr(oracle, "cascade_flatten", flatten)
        built.clear()
        code, out, err = run(capsys, *verify, *argv)
        assert (code, err) == (0, "") and out.startswith("MISMATCH "), argv
        printed = out.split()[-1]
        assert len(built) <= printed.count("(") + printed.count(",") + 1, (printed, len(built))


def test_ctl_verify_folds_each_automaton_once_over_the_corpus(capsys, monkeypatch):
    lookups = [0]

    class CountingTable(tuple):
        def __getitem__(self, index):
            lookups[0] += 1
            return tuple.__getitem__(self, index)

    def counting_flatten(cascade, *args):
        flat = cascade_flatten(cascade, *args)
        tables = {name: CountingTable(table) for name, table in flat.algebra.tables.items()}
        return Dbta(FiniteAlgebra(flat.alphabet, flat.algebra.size, tables), flat.accepting)

    monkeypatch.setattr(oracle, "cascade_flatten", counting_flatten)
    monkeypatch.setenv("TREELAB_SEED", "3")
    verify = ("ctl", "verify", "--alphabet", "@sig_pott", "--count", "7", "--max-nodes", "6")
    assert run(capsys, *verify)[1] == "agree on 266 checks (7 formulas, 38 trees)\n"
    assert lookups[0] == 7 * 38


def test_ctl_compile_summary(capsys):
    code, out, _ = run(
        capsys, "ctl", "compile", "--alphabet", "@sig_pott", "--formula", "lbl(f0)"
    )
    assert code == 0
    assert "layers 1" in out and "total-width 1" in out


PINNED_WIDE_FORMULA = "!E[lbl(f1) U E[lbl(f2) U E[lbl(f1) U E[lbl(f2) U lbl(f0)]]]]"

# as the explicit compiler printed it: a layer after nbits bits has |Σ|·2^nbits letters
PINNED_WIDE_REPORT = """\
layers 12
total-width 16
layer 0 width 1 letters 3
layer 1 width 1 letters 6
layer 2 width 1 letters 12
layer 3 width 2 letters 24
layer 4 width 1 letters 96
layer 5 width 2 letters 192
layer 6 width 1 letters 768
layer 7 width 2 letters 1536
layer 8 width 1 letters 6144
layer 9 width 2 letters 12288
layer 10 width 1 letters 49152
layer 11 width 1 letters 98304
output 11 0
"""


def test_ctl_compile_wide_formula_report(capsys):
    code, out, _ = run(
        capsys, "ctl", "compile", "--alphabet", "@sig_pott", "--formula", PINNED_WIDE_FORMULA
    )
    assert code == 0 and out == PINNED_WIDE_REPORT


def test_ctl_rejects_bad_width_and_count(capsys):
    for argv in (
        ("ctl", "verify", "--alphabet", "@sig_pott", "--count", "2", "--max-width", "0"),
        ("ctl", "verify", "--alphabet", "@sig_pott", "--formula", "lbl(f0)", "--max-width", "-1"),
        ("ctl", "compile", "--alphabet", "@sig_pott", "--formula", "lbl(f0)", "--max-width", "0"),
        ("ctl", "verify", "--alphabet", "@sig_pott", "--count", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: --") and "Traceback" not in err


def test_ctl_names_a_letter_by_its_whole_word(capsys, tmp_path):
    path = tmp_path / "keywords.alphabet"
    path.write_text(save_alphabet(KEYWORD_NAMES))
    ctl_eval = ("ctl", "eval", "--alphabet", str(path), "--formula")
    for name in ("Ea", "Ub", "lblx", "DUP", "X12y", "a'"):
        assert run(capsys, *ctl_eval, f"lbl({name})", "--tree", name) == (0, "yes\n", "")
        assert run(capsys, *ctl_eval, f"lbl({name})", "--tree", "g(Ea,Ub)") == (0, "no\n", "")
    tree = ("--tree", "g(Ea,X12y)")
    assert run(capsys, *ctl_eval, "E[lbl(Ub) U lbl(Ea)]", *tree) == (0, "yes\n", "")
    assert run(capsys, *ctl_eval, "DU[g.1 ; Ea]", *tree) == (0, "yes\n", "")
    assert run(capsys, *ctl_eval, "DU[g.2 ; Ea]", *tree) == (0, "no\n", "")
    assert run(capsys, *ctl_eval, "X2 lbl(X12y)", *tree) == (0, "yes\n", "")


def test_integer_options_below_their_least_value(capsys):
    for argv, message in (
        (("mixes", "--lang", "@l_pott", "--max-states", "-1"), "--max-states must be >= 0, got -1"),
        (("ctl", "verify", "--alphabet", "@sig_pott", "--max-nodes", "-1"),
         "--max-nodes must be >= 0, got -1"),
        (("oracle", "verify", "--max-nodes", "2", "--count", "-1"), "--count must be >= 0, got -1"),
        (("ctl", "verify", "--alphabet", "@sig_pott", "--count", "-1", "--max-width", "0"),
         "--max-width must be >= 1, got 0"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def test_structure_commands(capsys):
    code, out, _ = run(capsys, "structure", "congruences", "--lang", "@l_true_and")
    assert code == 0 and out.startswith("congruences ")
    code, out, _ = run(capsys, "structure", "orpairs", "--lang", "@l_true_or")
    assert code == 0 and "orpair" in out
    code, out, _ = run(capsys, "structure", "strongly-abelian", "--lang", "@l_true_and")
    assert code == 0 and ("violated" in out or "passed-bounded" in out)
    code, out, _ = run(capsys, "structure", "lattice-divides", "--lang", "@l_true_bool")
    assert code == 0 and out == "yes\n"
    code, out, _ = run(capsys, "structure", "orpair-separation", "--lang", "@l_true_and")
    assert code == 0 and out.rstrip().endswith("all-separable")


PINNED_REPORTS = {
    ("minimize", "--lang", "@l_pair"): (
        "carrier 4\nletter g 2\nletter c 0\nletter d 0\ncarrier 4\nnames c d ok sink\n"
        + "".join(
            f"op g {x} {y} -> {2 if (x, y) == (0, 1) else 3}\n" for x in range(4) for y in range(4)
        )
        + "op c -> 0\nop d -> 1\naccept 2\n"
    ),
    ("minimize", "--lang", "@l_true_bool"): (
        "carrier 2\nletter and 2\nletter or 2\nletter one 0\nletter zero 0\ncarrier 2\n"
        "op and 0 0 -> 0\nop and 0 1 -> 0\nop and 1 0 -> 0\nop and 1 1 -> 1\n"
        "op or 0 0 -> 0\nop or 0 1 -> 1\nop or 1 0 -> 1\nop or 1 1 -> 1\n"
        "op one -> 1\nop zero -> 0\naccept 1\n"
    ),
}


# `structure strongly-abelian` on each corpus language, default bounds and
# congruence; a violation names the first violating table in generation order
STRONGLY_ABELIAN = {
    "l_even": "passed-bounded arity 2 depth 3\n",
    "l_pott": "violated arity 2 left 0,1 right 1,0 tail 0\n",
    "l_pott_redundant": "violated arity 2 left 0,0 right 1,1 tail 0\n",
    "k_pott": "violated arity 2 left 0,1 right 1,0 tail 0\n",
    "l_line_even": "passed-bounded arity 2 depth 3\n",
    "l_true_and": "violated arity 2 left 0,0 right 1,0 tail 1\n",
    "l_true_or": "violated arity 2 left 0,1 right 1,0 tail 0\n",
    "l_true_bool": "violated arity 2 left 0,0 right 1,0 tail 1\n",
    "l_pair": "violated arity 2 left 0,0 right 1,0 tail 1\n",
    "l_two": "violated arity 2 left 0,0 right 1,1 tail 0\n",
    "l_root_g": "passed-bounded arity 2 depth 3\n",
    "l_empty_gcd": "passed-bounded arity 2 depth 3\n",
    "l_full_gcd": "passed-bounded arity 2 depth 3\n",
}

# `structure orpairs` on each corpus language
ORPAIRS = {
    "l_even": "orpairs 0\n",
    "l_pott": "orpairs 2\norpair 0 2\norpair 1 2\n",
    "l_pott_redundant": "orpairs 4\norpair 0 4\norpair 1 5\norpair 2 4\norpair 3 5\n",
    "k_pott": "orpairs 2\norpair 0 2\norpair 1 2\n",
    "l_line_even": "orpairs 0\n",
    "l_true_and": "orpairs 1\norpair 1 0\n",
    "l_true_or": "orpairs 1\norpair 0 1\n",
    "l_true_bool": "orpairs 2\norpair 0 1\norpair 1 0\n",
    "l_pair": "orpairs 0\n",
    "l_two": "orpairs 0\n",
    "l_root_g": "orpairs 0\n",
    "l_empty_gcd": "orpairs 0\n",
    "l_full_gcd": "orpairs 0\n",
}

# `structure congruences` on each corpus language: the lattice, coarsest first
TWO_CLASSES = "congruences 2\nminimal-nontrivial 1\ncongruence 0,1\ncongruence 0;1\n"
THREE_ONE_BLOCK = "congruences 2\nminimal-nontrivial 1\ncongruence 0,1,2\ncongruence 0;1;2\n"
FOUR_PAIR = (
    "congruences 6\nminimal-nontrivial 1\ncongruence 0,1,2,3\ncongruence 0;1,2,3\n"
    "congruence 0,2,3;1\ncongruence 0,1;2,3\ncongruence 0;1;2,3\ncongruence 0;1;2;3\n"
)
CONGRUENCES = {
    "l_even": TWO_CLASSES,
    "l_pott": THREE_ONE_BLOCK,
    "l_pott_redundant": (
        "congruences 5\nminimal-nontrivial 2\ncongruence 0,1,2,3,4,5\ncongruence 0,2,4;1,3,5\n"
        "congruence 0,1;2,3;4,5\ncongruence 0;1;2;3;4,5\ncongruence 0;1;2;3;4;5\n"
    ),
    "k_pott": THREE_ONE_BLOCK,
    "l_line_even": TWO_CLASSES,
    "l_true_and": TWO_CLASSES,
    "l_true_or": TWO_CLASSES,
    "l_true_bool": TWO_CLASSES,
    "l_pair": FOUR_PAIR,
    "l_two": FOUR_PAIR,
    "l_root_g": TWO_CLASSES,
    "l_empty_gcd": TWO_CLASSES,
    "l_full_gcd": TWO_CLASSES,
}

# `structure orpair-separation` on each corpus language, a pair per or-pair
ORPAIR_SEPARATION = {
    "l_even": "all-separable\n",
    "l_pott": "pair 0 2 separable\npair 1 2 separable\nall-separable\n",
    "l_pott_redundant": (
        "pair 0 4 separable\npair 1 5 separable\npair 2 4 separable\npair 3 5 separable\n"
        "all-separable\n"
    ),
    "k_pott": "pair 0 2 separable\npair 1 2 separable\nall-separable\n",
    "l_line_even": "all-separable\n",
    "l_true_and": "pair 1 0 separable\nall-separable\n",
    "l_true_or": "pair 0 1 separable\nall-separable\n",
    "l_true_bool": "pair 0 1 inseparable\npair 1 0 inseparable\nhas-inseparable\n",
    "l_pair": "all-separable\n",
    "l_two": "all-separable\n",
    "l_root_g": "all-separable\n",
    "l_empty_gcd": "all-separable\n",
    "l_full_gcd": "all-separable\n",
}

for name, _ in CORPUS:
    lang = ("--lang", f"@{name}")
    PINNED_REPORTS["structure", "strongly-abelian", *lang] = STRONGLY_ABELIAN[name]
    PINNED_REPORTS["structure", "orpairs", *lang] = ORPAIRS[name]
    PINNED_REPORTS["structure", "congruences", *lang] = CONGRUENCES[name]
    PINNED_REPORTS["structure", "orpair-separation", *lang] = ORPAIR_SEPARATION[name]
    # the two-element lattice divides only l_true_bool's algebra, pool or not
    divides = "yes\n" if name == "l_true_bool" else "no\n"
    PINNED_REPORTS["structure", "lattice-divides", *lang] = divides
    PINNED_REPORTS["structure", "lattice-divides", *lang, "--polynomials"] = divides


@pytest.mark.parametrize("argv", list(PINNED_REPORTS))
def test_pinned_reports(capsys, argv):
    assert run(capsys, *argv) == (0, PINNED_REPORTS[argv], "")


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "accepts", "--lang", "@l_pott", "--tree", "f1(f0,f0)")
    assert code == 2 and "arity" in err
    code, _, err = run(capsys, "accepts", "--lang", str(tmp_path / "missing.dbta"), "--tree", "f0")
    assert code == 2
    code, _, err = run(capsys, "universal-path", "--lang", "@l_pott", "--max-states", "1")
    assert code == 3
    code, _, err = run(capsys, "no-such-command")
    assert code == 1
    for bound in ("--arity-bound", "--depth-bound"):
        code, _, err = run(capsys, "structure", "strongly-abelian", "--lang", "@l_pott", bound, "0")
        assert (code, err) == (2, f"error: {bound} must be >= 1, got 0\n")


MALFORMED = [
    ("alphabet", "letter a 0\nletter g 1\nletter a 1\n", "line 3: duplicate letter"),
    ("alphabet", "letter a 0\nletter f 9\n", "line 2: arity of f out of range"),
    ("dbta", "letter a 0\nletter f 9\ncarrier 1\nop a -> 0\naccept 0\n", "line 2: arity"),
    ("dtop", "input a 0\ninput g 1\noutput a 0\nstates 1\ninit 1\nrule 1 a -> a\n",
     "missing rule for (g, 1)"),
    ("dtop", "input a 0\noutput a 0\nstates 1\ninit 1\nrule x a -> a\n", "line 5: state"),
    ("dtop", "input a 0\noutput a 0\nstates 1\ninit 5\nrule 1 a -> a\n", "initial state"),
    ("dtop", "input a 0\noutput a 0\nstates \u00b2\ninit 1\nrule 1 a -> a\n", "line 3: states"),
    ("dtop", "input a 0\ninput g 1\noutput q1.x1 0\noutput h 1\nstates 1\ninit 1\n"
     "rule 1 a -> q1.x1\nrule 1 g -> h(q1.x1)\n", "line 3: output letter 'q1.x1'"),
    ("matrix", "input a 0\nbase c 0\ncarrier 1\nop c -> 0\nwidth 1\ntuple a x -> c\n",
     "line 6: coordinate"),
    ("matrix", "input a 0\nbase c 0\ncarrier 1\nop c -> 0\nwidth 0\n", "width must be >= 1"),
    ("matrix", "input a 0\nbase c 0\ncarrier 2\nop c -> 0\nwidth 1\ntuple a 1 -> @9\n",
     "unknown letter '@9'"),
    ("matrix-dtops", "input a 0\nbase c 0\ncarrier 2\nop c -> 0\nwidth 1\ntuple a 1 -> @2\n",
     "unknown letter '@2'"),
    ("matrix", "input g 1\ninput a 0\nbase c 0\ncarrier 1\nop c -> 0\nwidth 1\n"
     "tuple g 1 -> x0\ntuple a 1 -> c\n", "unknown letter 'x0'"),
    ("matrix", "input a 0\nbase x1 0\ncarrier 1\nop x1 -> 0\nwidth 1\ntuple a 1 -> x1\n",
     "line 2: base letter 'x1'"),
    ("matrix", "input a 0\nbase @0 0\ncarrier 1\nop @0 -> 0\nwidth 1\ntuple a 1 -> @0\n",
     "line 2: base letter '@0'"),
    ("matrix", "input a 0\nbase c 0\ncarrier 0\nwidth 1\ntuple a 1 -> c\n", "carrier must be >= 1"),
    ("dtop", "input a 0\nletter a 0\noutput a 0\nstates 1\ninit 1\nrule 1 a -> a\n",
     "unexpected keyword 'letter' in dtop file"),
    ("dtop", "input a 0\noutput a 0\noutput b 0\nstates 1\ninit 1\n"
     "rule 1 a -> a\nrule 1 a -> b\n", "line 7: duplicate rule row for 1 a"),
    ("dtta", "letter a 0\nletter g 1\nstates 1\ninit 0\ndelta 0 g -> 0\n"
     "leaf 0 a -> accept\nleaf 0 a -> reject\n", "line 7: duplicate leaf row for 0 a"),
    ("dtta", "letter a 0\nletter g 1\nstates 2\ninit 0\ndelta 0 g -> 1\ndelta 00 g -> 0\n"
     "delta 1 g -> 1\nleaf 0 a -> accept\nleaf 1 a -> reject\n",
     "line 6: duplicate delta row for 00 g"),
]

# each op-row fault, in a dbta whose line 5 is `op g 1 -> 0`
OP_ROWS = "letter g 1\nletter a 0\ncarrier 2\nop g 0 -> 1\n{}op a -> 0\naccept 0\n"
MALFORMED += [("dbta", OP_ROWS.format(row), message) for row, message in [
    ("op g 1 0\n", "line 5: expected `op NAME e1 .. en -> e`"),
    ("op h 1 -> 0\n", "line 5: unknown letter 'h'"),
    ("op g x -> 0\n", "line 5: carrier element must be an integer, got 'x'"),
    ("op g 1 -> y\n", "line 5: carrier element must be an integer, got 'y'"),
    ("op g 1 1 -> 0\n", "line 5: g takes 1 arguments"),
    ("op g 2 -> 0\n", "line 5: element out of carrier range"),
    ("op g 0 -> 0\n", "line 5: duplicate op row for g (0,)"),
    ("", "letter g needs 2 op rows, found 1"),
]]
MALFORMED += [
    # two faults: the first line's is reported, though line 5's is checked earlier in a row
    ("dbta", OP_ROWS.format("op h 1 -> 0\n").replace("op g 0 -> 1", "op g 0 -> 5"),
     "line 4: element out of carrier range"),
    ("matrix", "input a 0\nbase c 0\ncarrier 1\nop d -> 0\nwidth 1\ntuple a 1 -> c\n",
     "line 4: unknown letter 'd'"),
    # a name the tree syntax cannot spell: a witness printed with it would not read back
    ("dbta", "letter a,b 0\ncarrier 1\nop a,b -> 0\naccept 0\n",
     "line 1: letter name 'a,b' has a character outside [A-Za-z0-9_@.|']"),
]


@pytest.mark.parametrize("kind, text, message", MALFORMED, ids=[m for _, _, m in MALFORMED])
def test_malformed_files_are_parse_errors(capsys, tmp_path, kind, text, message):
    if kind == "dtta":  # no command reads a dtta file; `separate` writes one
        with pytest.raises(ParseError, match=re.escape(message)):
            load_dtta(text)
        return
    path = str(tmp_path / f"bad.{kind}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    argv = {
        "alphabet": ("ctl", "eval", "--alphabet", path, "--formula", "lbl(a)", "--tree", "a"),
        "dbta": ("accepts", "--lang", path, "--tree", "a"),
        "dtop": ("dtop", "apply", "--dtop", path, "--tree", "a"),
        "matrix": ("matrix", "flatten", "--matrix", path),
        "matrix-dtops": ("matrix", "to-dtops", "--matrix", path),
    }[kind]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("row, message", [
    ("op g x 1 -> 0", "line 5: carrier element must be an integer, got 'x'"),
    ("op g 2 -> z", "line 5: carrier element must be an integer, got 'z'"),
    ("op g 1 1 -> 7", "line 5: g takes 1 arguments"),
    ("op g 1 -> -1", "line 5: element out of carrier range"),
    ("op g 00 -> 0", "line 5: duplicate op row for g (0,)"),
])
def test_op_row_checks_in_order(row, message):
    # within a row: integers, then the argument count, then the range, then duplicates
    with pytest.raises(ParseError) as caught:
        load_dbta(OP_ROWS.format(row + "\n"))
    assert str(caught.value) == message


def test_a_saved_file_never_reaches_the_op_row_diagnosis(capsys, tmp_path, monkeypatch):
    # `_parse_ops` reads a well-formed row in its loop; `_op_row_fault` only explains a bad one
    def diagnosis(number, *_):
        pytest.fail(f"line {number} of a saved file reached the op-row diagnosis")

    monkeypatch.setattr(cli, "_op_row_fault", diagnosis)
    corpus = dict(CORPUS)
    pair = boolean_combine("union", corpus["l_pott_redundant"], corpus["l_pott_redundant"])
    product = boolean_combine("intersection", pair, corpus["l_pott"])
    assert product.algebra.size >= 100
    for name, dbta in [*CORPUS, ("product", product)]:
        path = tmp_path / f"{name}.dbta"
        path.write_text(save_dbta(dbta), encoding="utf-8")
        assert run(capsys, "minimize", "--lang", str(path))[0] == 0
    path = tmp_path / "dup.matrix"
    path.write_text(save_matrix(dtop_to_matrix_hom(HOM_DUP, K_POTT.algebra)), encoding="utf-8")
    assert run(capsys, "matrix", "to-dtops", "--matrix", str(path))[0] == 0


def test_a_seed_that_is_no_integer_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setenv("TREELAB_SEED", "abc")
    for argv in (("ctl", "verify", "--alphabet", "@sig_pott"), ("oracle", "verify")):
        assert run(capsys, *argv) == (2, "", "error: TREELAB_SEED must be an integer, got 'abc'\n")


def test_a_file_that_is_no_utf8_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.dbta"
    path.write_bytes(b"\xff")
    code, out, err = run(capsys, "minimize", "--lang", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_op_rows_read_non_decimal_integers():
    # any field int() reads is an element, not only its plain decimal name
    text = OP_ROWS.format("op g +1 -> 0_0\n").replace("op g 0 -> 1", "op g 00 ->  \t1 # c")
    assert load_dbta(text).algebra.tables == {"g": (1, 0), "a": (0,)}


def test_malformed_dtta_and_congruence(capsys):
    head = "letter a 0\nletter g 1\nstates 1\ninit 0\n"
    for body in ("delta x g -> 0\n", "delta 0 g -> y\n", "leaf z a -> accept\n", ""):
        with pytest.raises(ParseError):
            load_dtta(head + body)
    code, out, err = run(
        capsys, "structure", "strongly-abelian", "--lang", "@l_pott", "--congruence", "0,1"
    )
    assert code == 2 and out == "" and err == "error: blocks must cover the carrier\n"
    code, out, err = run(
        capsys, "structure", "strongly-abelian", "--lang", "@l_pott", "--congruence", "0,1;2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_dtta_of_a_billion_states_loads_at_once():
    # over constants only no delta row is owed, so nothing counts up to the states
    start = time.perf_counter()
    dtta = load_dtta("letter a 0\nstates 1000000000\ninit 0\nleaf 0 a -> accept\n")
    flat = dtta_to_dbta(dtta)
    assert dtta.n_states == 10**9 and flat.algebra.size == 1 and flat.accepting == {0}
    # with an inner letter the first state owing a row ends the load
    with pytest.raises(ParseError, match=r"^delta incomplete at \(1, g\)$"):
        load_dtta("letter a 0\nletter g 1\nstates 1000000000\ninit 0\ndelta 0 g -> 0\n")
    assert time.perf_counter() - start < 1


# files of a few lines whose `states`, `width` or `carrier` is a billion: the
# loaders may build no structure that large before the rows bound it
BILLION_FILES = {
    "states": ("dtop", "input a 0\ninput g 1\noutput a 0\noutput h 1\nstates 1000000000\n"
               "init 1\nrule 1 a -> a\nrule 1 g -> h(q1.x1)\n",
               "missing rule for (a, 2)"),
    "width": ("matrix", "input a 0\ninput g 1\nbase c 0\nbase h 1\ncarrier 1\nop c -> 0\n"
              "op h 0 -> 0\nwidth 1000000000\ntuple a 1 -> c\ntuple g 1 -> h(x1)\n",
              "letter a needs 1000000000 tuple rows"),
    "carrier": ("matrix", "input a 0\nbase c 0\ncarrier 1000000000\nop c -> 0\nwidth 1\n"
                "tuple a 1 -> c\n",
                "a base without operations has at most 4096 elements, got 1000000000"),
    "dbta carrier": ("dbta", "letter a 0\ncarrier 1000000000\nop a -> 0\naccept 0\n",
                     "an algebra without operations has at most 4096 elements, got 1000000000"),
}


@pytest.mark.parametrize("field", BILLION_FILES)
def test_a_billion_in_a_file_ends_in_a_parse_error_at_once(capsys, tmp_path, field):
    kind, text, message = BILLION_FILES[field]
    assert len(text.splitlines()) <= 10
    path = str(tmp_path / f"big.{kind}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    argv = {
        "dtop": ("dtop", "apply", "--dtop", path, "--tree", "a"),
        "matrix": ("matrix", "flatten", "--matrix", path),
        "dbta": ("doubly-det", "--lang", path),
    }[kind]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bool_caps_the_product_carrier_before_building_it(capsys, tmp_path):
    for size in (80, 60):
        text = f"letter a 0\ncarrier {size}\nop a -> 0\naccept 0\n"
        (tmp_path / f"c{size}.dbta").write_text(text, encoding="utf-8")
    argv = ("--lang", str(tmp_path / "c80.dbta"), "--other", str(tmp_path / "c60.dbta"))
    start = time.perf_counter()
    code, out, err = run(capsys, "bool", "--kind", "union", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (3, "", "cap exceeded: product carrier exceeds 4096\n")


# f, g, a, b on three elements: the binary clone is all 3**9 = 19,683 tables,
# and every ordered pair is an or-pair
FOURTEEN_ROWS = (
    "letter f 2\nletter g 1\nletter a 0\nletter b 0\ncarrier 3\n"
    + "".join(
        f"op f {x} {y} -> {v}\n"
        for (x, y), v in zip(itertools.product(range(3), repeat=2), (0, 2, 0, 1, 0, 1, 1, 1, 2))
    )
    + "op g 0 -> 1\nop g 1 -> 0\nop g 2 -> 0\nop a -> 1\nop b -> 0\naccept 0\n"
)


def test_pair_checks_on_a_full_binary_clone_answer_in_seconds(capsys, tmp_path):
    path = tmp_path / "fourteen.dbta"
    path.write_text(FOURTEEN_ROWS, encoding="utf-8")
    pairs = list(itertools.permutations(range(3), 2))
    with budget(2.0):
        code, out, err = run(capsys, "structure", "orpairs", "--lang", str(path))
    assert (code, err) == (0, "")
    assert out == "orpairs 6\n" + "".join(f"orpair {a0} {a1}\n" for a0, a1 in pairs)
    with budget(2.0):
        code, out, err = run(capsys, "structure", "orpair-separation", "--lang", str(path))
    assert (code, err) == (0, "")
    assert out == "".join(f"pair {a0} {a1} inseparable\n" for a0, a1 in pairs) + "has-inseparable\n"


def test_strongly_abelian_check_stops_at_its_first_violation(capsys, tmp_path):
    # at depth 4 the binary clone is all 19,683 tables, and filling it first
    # took minutes; the violation is in round 1
    path = tmp_path / "fourteen.dbta"
    path.write_text(FOURTEEN_ROWS, encoding="utf-8")
    with budget(2.0):
        code, out, err = run(
            capsys, "structure", "strongly-abelian", "--depth-bound", "4", "--lang", str(path)
        )
    assert (code, out, err) == (0, "violated arity 2 left 0,0 right 1,1 tail 0\n", "")


def test_strongly_abelian_check_that_hits_its_table_cap_exits_3(capsys, tmp_path):
    # the depth-3 binary polynomials number 234,374; generation stops at
    # 20,001 of them with no violation found, so depth 3 was never reached
    alphabet = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0))
    path = tmp_path / "capped.dbta"
    path.write_text(save_dbta(Dbta(random_algebra(random.Random(0), alphabet, 4), frozenset())))
    code, out, err = run(
        capsys, "structure", "strongly-abelian", "--congruence", "identity", "--lang", str(path)
    )
    message = "arity-2 polynomial generation hit its cap: 20001 tables, cap 20000"
    assert (code, out, err) == (3, "", f"cap exceeded: {message}\n")


def test_lattice_divides_with_polynomials_answers_in_seconds(capsys):
    with budget(5.0):
        code, out, err = run(
            capsys, "structure", "lattice-divides", "--polynomials", "--lang", "@l_pott_redundant"
        )
    assert (code, out, err) == (0, "no\n", "")


def test_lattice_divides_with_polynomials_over_a_letter_named_like_the_pool(capsys, tmp_path):
    # p0 is conjunction; with negation it gives disjunction as a polynomial
    path = tmp_path / "p0.dbta"
    path.write_text(
        "letter p0 2\nletter n 1\nletter a 0\ncarrier 2\nop p0 0 0 -> 0\nop p0 0 1 -> 0\n"
        "op p0 1 0 -> 0\nop p0 1 1 -> 1\nop n 0 -> 1\nop n 1 -> 0\nop a -> 0\naccept 1\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "structure", "lattice-divides", "--lang", str(path))
    assert (code, out, err) == (0, "no\n", "")
    code, out, err = run(
        capsys, "structure", "lattice-divides", "--polynomials", "--lang", str(path)
    )
    assert (code, out, err) == (0, "yes\n", "")


def test_lattice_divides_with_a_capped_polynomial_pool_never_answers_no(capsys, tmp_path):
    # 2,000 binary polynomials do not close this algebra's clone, and none of
    # them makes the lattice divide it
    alphabet = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0))
    f = (3, 1, 3, 1, 1, 0, 2, 2, 3, 0, 0, 2, 4, 0, 1, 2, 2, 2, 1, 3, 4, 1, 4, 0, 3)
    algebra = FiniteAlgebra(alphabet, 5, {"f": f, "g": (4, 3, 1, 0, 3), "a": (4,)})
    path = tmp_path / "capped.dbta"
    path.write_text(save_dbta(Dbta(algebra, frozenset({0}))), encoding="utf-8")
    code, out, err = run(capsys, "structure", "lattice-divides", "--lang", str(path))
    assert (code, out, err) == (0, "no\n", "")
    code, out, err = run(
        capsys, "structure", "lattice-divides", "--polynomials", "--lang", str(path)
    )
    assert (code, out, err) == (3, "", "cap exceeded: binary polynomial generation hit its cap\n")


# formulas 10^4 deep: the CTL parser and every formula walk use explicit stacks
LEVELS = [("!", ""), ("X1 ", ""), ("(", " & lbl(f1))"), ("E[lbl(f1) U ", "]"), ("(", ")")] * 2000
DEEP_FORMULAS = {
    "mixed": "".join(p for p, _ in LEVELS) + "lbl(f0)" + "".join(s for _, s in LEVELS[::-1]),
    "negations": "!" * 10_000 + "lbl(f0)",
    "unclosed": "(" * 10_000 + "lbl(f0)",
}


@pytest.mark.parametrize("shape", DEEP_FORMULAS)
def test_deep_formulas_end_in_an_exit_code(capsys, shape):
    formula = DEEP_FORMULAS[shape]
    for argv in (
        ("ctl", "eval", "--alphabet", "@sig_pott", "--formula", formula, "--tree", "f1(f0)"),
        ("ctl", "compile", "--alphabet", "@sig_pott", "--formula", formula),
        ("ctl", "verify", "--alphabet", "@sig_pott", "--formula", formula, "--max-nodes", "4"),
    ):
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3) and "Traceback" not in err, argv[:2]


# one process, many commands: different subcommands and formats, each exit code
SHARED_PARSER_CALLS = [
    ("eval", "--lang", "@l_pott", "--tree", "f2(f1(f0),f0)"),
    ("--format", "tsv", "eval", "--lang", "@l_pott", "--tree", "f0"),
    ("eval", "--lang", "@l_pott", "--tree", "f0"),
    ("structure", "strongly-abelian", "--lang", "@l_pott", "--congruence", "identity"),
    ("structure", "strongly-abelian", "--lang", "@l_pott"),
    ("equiv", "--lang", "@l_pair"),
    ("accepts", "--lang", "@l_pott", "--tree", "f1(f0,f0)"),
    ("--format", "tsv", "ctl", "compile", "--alphabet", "@sig_pott", "--formula", "lbl(f0)"),
    ("universal-path", "--lang", "@l_pott", "--max-states", "1"),
    ("ctl", "compile", "--alphabet", "@sig_pott", "--formula", "lbl(f0)"),
    ("no-such-command",),
    ("structure", "--help"),
    ("minimize", "--lang", "@l_true_bool"),
]


def test_shared_parser_keeps_no_state(capsys):
    alone = []
    for argv in SHARED_PARSER_CALLS:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._build_parser.cache_clear()
    together = [run(capsys, *argv) for argv in SHARED_PARSER_CALLS]
    assert cli._build_parser.cache_info().misses == 1
    assert together == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 0, 0, 1, 2, 0, 3, 0, 1, 0, 0]
    assert alone[1][1] == "value\t0\n" and alone[2][1] == "value 0\n"
    assert alone[5][2].startswith("usage: treelab equiv") and alone[6][2].startswith("error: ")


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import treelab.cli\n"
        "print(len(built))\n"
    )
    src = os.path.dirname(os.path.dirname(treelab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "0\n"


def test_tsv_format(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "eval", "--lang", "@l_pott", "--tree", "f0")
    assert code == 0 and out == "value\t0\n"


def test_deterministic_reports(capsys):
    first = run(capsys, "minimize", "--lang", "@l_pott_redundant")
    second = run(capsys, "minimize", "--lang", "@l_pott_redundant")
    assert first == second
    first = run(capsys, "structure", "congruences", "--lang", "@l_pott")
    second = run(capsys, "structure", "congruences", "--lang", "@l_pott")
    assert first == second


def test_oracle_verify(capsys):
    os.environ["TREELAB_SEED"] = "1"
    try:
        code, out, _ = run(capsys, "oracle", "verify", "--max-nodes", "5", "--count", "5")
    finally:
        del os.environ["TREELAB_SEED"]
    assert code == 0
    assert out.rstrip().endswith("ok")
    assert out.count("suite ") >= 6


def test_universal_path_oracle_reaches_once_per_language(monkeypatch):
    calls = []

    def counting(algebra):
        calls.append(algebra)
        return sweep_reachable(algebra)

    monkeypatch.setattr(oracle, "sweep_reachable", counting)
    checks = oracle.universal_path_suite(4)
    assert checks > 0
    assert len(calls) == 5 and len({id(a) for a in calls}) == 5


def test_oracle_verify_below_the_smallest_witness(capsys):
    # l_true_or's witness or(zero,zero) has 3 nodes, so smaller corpora cannot see it
    for bound in ("0", "1", "2"):
        code, out, err = run(capsys, "oracle", "verify", "--max-nodes", bound, "--count", "1")
        assert (code, err) == (0, "") and out.endswith("\nok\n") and out.count("suite ") == 7


def test_universal_path_oracle_checks_a_witness_itself(monkeypatch):
    def member_as_witness(dbta):
        return False, next(t for t in enumerate_trees(dbta.alphabet, 5) if accepts(dbta, t))

    monkeypatch.setattr(oracle, "is_universal_path", member_as_witness)
    with pytest.raises(oracle.Mismatch, match="witness .* is no rejected mix of l_true_and"):
        oracle.universal_path_suite(0)


def test_tree_corpora_past_the_cap_exit_3_at_once(capsys):
    expected = (3, "", "cap exceeded: tree corpus exceeds 1000000\n")
    with budget(2.0):
        assert run(capsys, "ctl", "verify", "--alphabet", "@sig_bool", "--max-nodes", "16") == expected
        assert run(capsys, "oracle", "verify", "--max-nodes", "20") == expected


def test_oracle_verify_reports_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "are_equivalent", lambda d1, d2: (False, None))
    code, out, err = run(capsys, "oracle", "verify", "--max-nodes", "3", "--count", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("mismatch mixes-closure-laws: ")
    assert "Traceback" not in err


def test_workspace_bindings(tmp_path):
    ws = Workspace()
    assert ws.dbta("@l_pott") is ws.dbta("@l_pott")
    path = tmp_path / "copy.dbta"
    path.write_text(save_dbta(L_PAIR))
    assert ws.dbta(str(path)) == L_PAIR
    assert ws.dbta(str(path)) is ws.dbta(str(path))  # cached under its name
