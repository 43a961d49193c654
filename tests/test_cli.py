import os

import pytest

from treelab import cli
from treelab.automata import Dbta, FiniteAlgebra, reachable_elements
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
from treelab.fixtures import DBTA_POTT, HOM_DUP, K_POTT, L_PAIR, L_TRUE_AND, SIG_GCD
from treelab.paths import determinize, path_nfa
from treelab.syntactic import dbta_isomorphic
from treelab.transduce import Dtop, dtop_to_matrix_hom
from treelab.trees import RankedAlphabet, parse_term


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
    dtop = Dtop.from_hom(HOM_DUP)
    text = save_dtop(dtop)
    again = load_dtop(text)
    assert again == dtop
    assert save_dtop(again) == text


def test_matrix_roundtrip():
    mh = dtop_to_matrix_hom(Dtop.from_hom(HOM_DUP), K_POTT.algebra)
    text = save_matrix(mh)
    again = load_matrix(text)
    assert again == mh
    assert save_matrix(again) == text


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
    assert dbta_isomorphic(load_dbta(body), DBTA_POTT) is not None


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
    path.write_text(save_dtop(Dtop.from_hom(HOM_DUP)))
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


def test_dtop_preimage_file(capsys, tmp_path):
    path = tmp_path / "dup.dtop"
    path.write_text(save_dtop(Dtop.from_hom(HOM_DUP)))
    code, out, _ = run(capsys, "dtop", "preimage", "--dtop", str(path), "--lang", "@k_pott")
    assert code == 0
    pre = load_dbta(out)
    assert pre.algebra.alphabet.get("f1") is not None


def test_matrix_pipeline(capsys, tmp_path):
    dtop_path = tmp_path / "dup.dtop"
    dtop_path.write_text(save_dtop(Dtop.from_hom(HOM_DUP)))
    code, out, _ = run(
        capsys, "matrix", "from-dtop", "--dtop", str(dtop_path), "--base", "@k_pott"
    )
    assert code == 0
    matrix_path = tmp_path / "dup.matrix"
    matrix_path.write_text(out)
    code, out, _ = run(capsys, "matrix", "flatten", "--matrix", str(matrix_path), "--accept", "0")
    assert code == 0
    load_dbta(out)
    code, out, _ = run(capsys, "matrix", "to-dtops", "--matrix", str(matrix_path))
    assert code == 0
    assert "rule" in out


def test_matrix_flatten_accept_outside_base(capsys, tmp_path):
    matrix_path = tmp_path / "dup.matrix"
    matrix_path.write_text(save_matrix(dtop_to_matrix_hom(Dtop.from_hom(HOM_DUP), K_POTT.algebra)))
    code, out, err = run(capsys, "matrix", "flatten", "--matrix", str(matrix_path), "--accept", "7")
    assert code == 2 and out == ""
    assert "outside 0..2" in err and "Traceback" not in err


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
    ("structure", "congruences", "--lang", "@l_pair"): (
        "congruences 6\nminimal-nontrivial 1\ncongruence 0,1,2,3\ncongruence 0;1,2,3\n"
        "congruence 0,2,3;1\ncongruence 0,1;2,3\ncongruence 0;1;2,3\ncongruence 0;1;2;3\n"
    ),
    ("structure", "congruences", "--lang", "@l_true_bool"): (
        "congruences 2\nminimal-nontrivial 1\ncongruence 0,1\ncongruence 0;1\n"
    ),
    ("structure", "congruences", "--lang", "@l_pott_redundant"): (
        "congruences 5\nminimal-nontrivial 2\ncongruence 0,1,2,3,4,5\ncongruence 0,2,4;1,3,5\n"
        "congruence 0,1;2,3;4,5\ncongruence 0;1;2;3;4,5\ncongruence 0;1;2;3;4;5\n"
    ),
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


MALFORMED = [
    ("alphabet", "letter a 0\nletter g 1\nletter a 1\n", "line 3: duplicate letter"),
    ("alphabet", "letter a 0\nletter f 9\n", "line 2: arity of f out of range"),
    ("dbta", "letter a 0\nletter f 9\ncarrier 1\nop a -> 0\naccept 0\n", "line 2: arity"),
    ("dtop", "input a 0\ninput g 1\noutput a 0\nstates 1\ninit 1\nrule 1 a -> a\n",
     "missing rule for (g, 1)"),
    ("dtop", "input a 0\noutput a 0\nstates 1\ninit 1\nrule x a -> a\n", "line 5: state"),
    ("dtop", "input a 0\noutput a 0\nstates 1\ninit 5\nrule 1 a -> a\n", "initial state"),
    ("dtop", "input a 0\noutput a 0\nstates \u00b2\ninit 1\nrule 1 a -> a\n", "line 3: states"),
    ("matrix", "input a 0\nbase c 0\ncarrier 1\nop c -> 0\nwidth 1\ntuple a x -> c\n",
     "line 6: coordinate"),
    ("matrix", "input a 0\nbase c 0\ncarrier 1\nop c -> 0\nwidth 0\n", "width must be >= 1"),
]


@pytest.mark.parametrize("kind, text, message", MALFORMED, ids=[m for _, _, m in MALFORMED])
def test_malformed_files_are_parse_errors(capsys, tmp_path, kind, text, message):
    path = str(tmp_path / f"bad.{kind}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    argv = {
        "alphabet": ("ctl", "eval", "--alphabet", path, "--formula", "lbl(a)", "--tree", "a"),
        "dbta": ("accepts", "--lang", path, "--tree", "a"),
        "dtop": ("dtop", "apply", "--dtop", path, "--tree", "a"),
        "matrix": ("matrix", "flatten", "--matrix", path),
    }[kind]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_malformed_dtta_and_congruence(capsys):
    head = "letter a 0\nletter g 1\nstates 1\ninit 0\n"
    for body in ("delta x g -> 0\n", "delta 0 g -> y\n", "leaf z a -> accept\n", ""):
        with pytest.raises(ParseError):
            load_dtta(head + body)
    code, out, err = run(
        capsys, "structure", "strongly-abelian", "--lang", "@l_pott", "--congruence", "0,1"
    )
    assert code == 2 and out == "" and err == "error: blocks must cover the carrier\n"


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
        return reachable_elements(algebra)

    monkeypatch.setattr(cli, "reachable_elements", counting)
    checks = cli._oracle_universal_path(cli.Report("text"), 4)
    assert checks > 0
    assert len(calls) == 5 and len({id(a) for a in calls}) == 5


def test_oracle_verify_reports_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "are_equivalent", lambda d1, d2: (False, None))
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
