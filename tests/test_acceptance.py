"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion asserts its stated budget and tolerance; tolerances
are exact (automaton equivalence / 100% agreement) throughout.
"""

import dataclasses
import random
import time

from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    are_equivalent,
    complement,
    eval_term_in_algebra,
    evaluate,
    subset_counterexample,
)
from treelab.cascade import (
    And,
    DirUntil,
    Lbl,
    Not,
    Or,
    annotate,
    annotated_alphabet,
    cascade_flatten,
    ctl_label,
    ctl_render,
    nest,
    random_formula_corpus,
    sequential_compose,
    value_annotated_alphabet,
)
from treelab.errors import AlphabetMismatchError
from treelab.fixtures import (
    ALG_LATTICE,
    ALG_POTT,
    ALG_SEMILATTICE,
    CORPUS,
    DBTA_POTT,
    DBTA_POTT_REDUNDANT,
    HOM_DUP,
    K_POTT,
    L_EVEN,
    L_LINE_EVEN,
    L_PAIR,
    L_POTT,
    L_ROOT_G,
    L_TRUE_AND,
    L_TRUE_BOOL,
    L_TRUE_OR,
    L_TWO,
    SIG_AND,
    SIG_GCD,
    SIG_MONO,
    SIG_POTT,
)
from treelab.paths import (
    dtta_accepts,
    is_doubly_deterministic,
    is_universal_path,
    mixes,
    separate_topdown,
)
from treelab.oracle import is_mix, sweep_reachable
from treelab.structure import (
    Congruence,
    lattice_divides,
    or_pairs,
    orpair_separation,
    strongly_abelian_check,
)
from treelab.syntactic import find_isomorphism, syntactic_algebra, term_definable
from treelab.transduce import (
    Dtop,
    dtop_apply,
    dtop_preimage,
    dtop_to_matrix_hom,
    matrix_hom_to_dtops,
)
from treelab.trees import (
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    Var,
    enumerate_trees,
    render_tree,
    tree_corpus,
)


def report(number, message):
    print(f"[PASS] criterion {number}: {message}")


class budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.elapsed = time.perf_counter() - self.start
            assert self.elapsed < self.seconds, f"budget {self.seconds}s exceeded: {self.elapsed:.1f}s"
        return False


def value_annotate(tree, h):
    """t^h: each node labelled name|value, the value of its subtree under h."""

    def go(node):  # the annotated subtree and its value under h
        kids = [go(child) for child in node.children]
        value = h.op(node.label.name, [kid[1] for kid in kids])
        label = Letter(f"{node.label.name}|{value}", node.label.arity)
        return Tree(label, tuple(kid[0] for kid in kids)), value

    return go(tree)[0]


def cascade_step(cascade, letter, child_bits):
    """Bits of a node from its letter and its children's full bit vectors:
    each layer's row picked by the node's own earlier bits, and each
    polynomial evaluated on the layer's coordinates of the children."""
    bits = []
    for layer in cascade.layers:
        row = 0
        for read in layer.reads:
            row = 2 * row + bits[read]
        start = layer.nbits
        args = [bit for child in child_bits for bit in child[start : start + layer.width]]
        bits += [poly.eval(args) for poly in layer.table[letter][row]]
    return tuple(bits)


def cascade_eval(cascade, tree):
    """All layer bits at the root of a tree, concatenated in layer order: the
    recursive reference for what ``cascade_flatten`` builds."""
    if tree.label not in cascade.base_alphabet:
        raise AlphabetMismatchError(f"letter {tree.label.name} not in the cascade alphabet")
    child_bits = [cascade_eval(cascade, child) for child in tree.children]
    return cascade_step(cascade, tree.label.name, child_bits)


def matrix_hom_eval(mh, tree):
    """The tuple of a tree in the matrix power, each child's tuple laid out
    flat: the recursive reference for what ``matrix_power_language`` builds."""
    if tree.label not in mh.alphabet:
        raise AlphabetMismatchError(f"letter {tree.label.name} not in the input alphabet")
    flat = tuple(v for child in tree.children for v in matrix_hom_eval(mh, child))
    return tuple(eval_term_in_algebra(mh.extended, t, flat) for t in mh.tuples[tree.label.name])


def is_direction_sensitive(formula) -> bool:
    """Next- and EU-free: the fragment matching wreath powers of the semilattice."""
    if isinstance(formula, (Lbl, DirUntil)):
        return True
    if isinstance(formula, Not):
        return is_direction_sensitive(formula.sub)
    if isinstance(formula, (And, Or)):
        return is_direction_sensitive(formula.left) and is_direction_sensitive(formula.right)
    return False


# --- criteria ----------------------------------------------------------------------


def test_criterion_1_potthoff_syntactic_algebra():
    with budget(1.0) as b:
        for recognizer in (DBTA_POTT_REDUNDANT, DBTA_POTT):
            minimal = syntactic_algebra(recognizer).minimal
            assert minimal.algebra.size == 3
            accepting = (minimal.accepting, DBTA_POTT.accepting)
            assert find_isomorphism(minimal.algebra, DBTA_POTT.algebra, accepting) is not None
    report(1, f"both recognizers minimize to the printed 3-element tables ({b.elapsed:.2f}s)")


def test_criterion_2_polynomial_equivalence_witness():
    with budget(1.0) as b:
        reduct = FiniteAlgebra(
            RankedAlphabet.of(("f2", 2), ("f0", 0)),
            3,
            {"f0": (0,), "f2": ALG_POTT.tables["f2"]},
        )
        term = term_definable(reduct, ALG_POTT.tables["f1"], 1, 2)
        assert term is not None and render_tree(term.body) == "f2(x1,x1)"
    report(2, f"f1 = f2(x1,x1) recovered at depth cap 2 ({b.elapsed:.2f}s)")


def test_criterion_3_tree_homomorphism_preimage():
    with budget(1.0) as b:
        pre = dtop_preimage(K_POTT, HOM_DUP)
        equal, _ = are_equivalent(pre, L_LINE_EVEN)
        assert equal
    report(3, f"preimage of K under the duplicating hom is exactly L_LINE_EVEN ({b.elapsed:.2f}s)")


SIG_AB = RankedAlphabet.of(("a", 1), ("b", 1), ("z", 0))


def _random_dtop(rng, n_states):
    def random_body(nvars, depth):
        if nvars and depth > 0 and rng.random() < 0.6:
            return Tree(SIG_AB[rng.choice("ab")], (random_body(nvars, depth - 1),))
        if nvars and rng.random() < 0.5:
            return Var(rng.randint(1, nvars))
        return Tree(SIG_AB["z"])

    rules = {}
    for state in range(1, n_states + 1):
        rules[("s", state)] = Term(n_states, random_body(n_states, 2))
        rules[("z", state)] = Term(0, Tree(SIG_AB["z"]))
    return Dtop(SIG_MONO, SIG_AB, n_states, rng.randint(1, n_states), rules)


def _random_base(rng):
    size = rng.randint(2, 3)
    tables = {
        "a": tuple(rng.randrange(size) for _ in range(size)),
        "b": tuple(rng.randrange(size) for _ in range(size)),
        "z": (rng.randrange(size),),
    }
    return FiniteAlgebra(SIG_AB, size, tables)


def test_criterion_4_matrix_power_roundtrip():
    rng = random.Random(42)
    trees = enumerate_trees(SIG_MONO, 7)
    checked = 0
    with budget(60.0) as b:
        for _ in range(20):
            dtop = _random_dtop(rng, rng.randint(1, 3))
            base = _random_base(rng)
            mh = dtop_to_matrix_hom(dtop, base)
            back, extended = matrix_hom_to_dtops(mh)
            for tree in trees:
                value = matrix_hom_eval(mh, tree)
                for q in range(1, mh.width + 1):
                    from_q = dataclasses.replace(dtop, initial=q)
                    back_q = dataclasses.replace(back, initial=q)
                    assert evaluate(base, dtop_apply(from_q, tree)) == value[q - 1]
                    assert evaluate(extended, dtop_apply(back_q, tree)) == value[q - 1]
                    checked += 2
    report(4, f"diagram identity holds on {checked} coordinate checks over 20 pairs ({b.elapsed:.2f}s)")


def test_criterion_5_universal_path_decisions():
    expected = {
        "l_true_and": (L_TRUE_AND, True),
        "l_pott": (L_POTT, True),
        "l_true_or": (L_TRUE_OR, False),
        "l_pair": (L_PAIR, True),
        "l_two": (L_TWO, False),
    }
    with budget(10.0) as b:
        for name, (dbta, want) in expected.items():
            verdict, witness = is_universal_path(dbta)
            assert verdict == want, name
            reach = sweep_reachable(dbta.algebra)
            if not verdict:
                assert is_mix(dbta, reach, witness) and not accepts(dbta, witness), name
            if name == "l_two":
                assert render_tree(witness) in ("g(c,d)", "g(d,c)")
            trees = enumerate_trees(dbta.alphabet, 7)
            oracle = all(accepts(dbta, t) == is_mix(dbta, reach, t) for t in trees)
            assert verdict == oracle, name
    report(5, f"all five verdicts match the per-path brute-force oracle ({b.elapsed:.2f}s)")


def test_criterion_6_mixes_closure_laws():
    with budget(30.0) as b:
        for name, dbta in CORPUS:
            closure = mixes(dbta)
            assert subset_counterexample(dbta, closure) is None, name
            equal, _ = are_equivalent(mixes(closure), closure)
            assert equal, name
            assert is_universal_path(closure)[0], name
            for other_name, other in CORPUS:
                if other.alphabet != dbta.alphabet:
                    continue
                if not is_universal_path(other)[0]:
                    continue
                if subset_counterexample(dbta, other) is not None:
                    continue
                assert subset_counterexample(closure, other) is None, (name, other_name)
    report(6, f"inclusion, idempotence, universality, leastness on {len(CORPUS)} corpus languages ({b.elapsed:.2f}s)")


def test_criterion_7_separation():
    with budget(10.0) as b:
        separator = separate_topdown(L_PAIR, L_TWO)
        assert separator is not None
        positive, negative = (
            (L_PAIR, L_TWO) if separator.accepts_side == 0 else (L_TWO, L_PAIR)
        )
        for tree in enumerate_trees(SIG_GCD, 7):
            if accepts(positive, tree):
                assert dtta_accepts(separator.dtta, tree)
            if accepts(negative, tree):
                assert not dtta_accepts(separator.dtta, tree)
        for name, dbta in CORPUS:
            from treelab.automata import is_empty

            if is_empty(dbta) is None:
                continue
            assert separate_topdown(dbta, dbta) is None, name
    report(7, f"sound separator for (pair, two); none for any nonempty L vs itself ({b.elapsed:.2f}s)")


def _random_inner_algebra(rng, alphabet):
    size = rng.randint(1, 3)
    tables = {
        letter.name: tuple(rng.randrange(size) for _ in range(size**letter.arity))
        for letter in alphabet.letters
    }
    return FiniteAlgebra(alphabet, size, tables)


def _random_outer_algebra(rng, alphabet, inner_size):
    annotated = value_annotated_alphabet(alphabet, inner_size)
    size = rng.randint(1, 3)
    tables = {
        letter.name: tuple(rng.randrange(size) for _ in range(size**letter.arity))
        for letter in annotated.letters
    }
    return FiniteAlgebra(annotated, size, tables)


def _random_langs(rng, alphabet, count):
    langs = []
    for _ in range(count):
        algebra = _random_inner_algebra(rng, alphabet)
        accepting = frozenset(e for e in range(algebra.size) if rng.random() < 0.5)
        langs.append(Dbta(algebra, accepting))
    return langs


def _random_top(rng, alphabet, nbits):
    annotated = annotated_alphabet(alphabet, nbits)
    size = rng.randint(1, 3)
    tables = {
        letter.name: tuple(rng.randrange(size) for _ in range(size**letter.arity))
        for letter in annotated.letters
    }
    accepting = frozenset(e for e in range(size) if rng.random() < 0.5)
    return Dbta(FiniteAlgebra(annotated, size, tables), accepting)


def test_criterion_8_wreath_and_nesting():
    rng = random.Random(2024)
    checked = 0
    with budget(30.0) as b:
        for alphabet in (SIG_AND, SIG_GCD):
            trees = enumerate_trees(alphabet, 7)
            for _ in range(10):
                inner = _random_inner_algebra(rng, alphabet)
                outer = _random_outer_algebra(rng, alphabet, inner.size)
                composed = sequential_compose(inner, outer)
                for tree in trees:
                    value = evaluate(composed, tree)
                    expected = (
                        evaluate(outer, value_annotate(tree, inner)) * inner.size
                        + evaluate(inner, tree)
                    )
                    assert value == expected
                    checked += 1
            for _ in range(10):
                langs = _random_langs(rng, alphabet, rng.randint(0, 2))
                top = _random_top(rng, alphabet, len(langs))
                nested = nest(langs, top)
                for tree in trees:
                    assert accepts(nested, tree) == accepts(top, annotate(tree, langs))
                    checked += 1
    report(8, f"wreath principle and nest/annotate adjunction on {checked} checks, 40 instances ({b.elapsed:.2f}s)")


def test_criterion_9_ctl_compilation():
    # "Next-free compiles width-1" is read as the direction-sensitive fragment
    # (letters, Boolean connectives, direction-sensitive until): the paper's EU
    # exempts the root from the path constraint, which no width-1 cascade can
    # express (see decisions ledger), so EU carries a width-2 layer like Next.
    checked_formulas = 0
    with budget(120.0) as b:
        for alphabet in (SIG_POTT, SIG_GCD):
            trees = enumerate_trees(alphabet, 8)
            letters, kids = tree_corpus(alphabet, 8)
            corpus = random_formula_corpus(1234, alphabet, 100, max_depth=3)
            for formula, cascade in corpus:
                if is_direction_sensitive(formula):
                    assert all(layer.width == 1 for layer in cascade.layers), ctl_render(formula)
                flat = cascade_flatten(cascade)
                # ctl_eval on each tree, as one labelling of the whole corpus
                for tree, holds in zip(trees, ctl_label(formula, letters, kids)):
                    assert accepts(flat, tree) == holds, (ctl_render(formula), render_tree(tree))
                checked_formulas += 1
    assert checked_formulas == 200
    report(9, f"flatten(compile) == eval for 200 formulas on all trees <= 8; direction-sensitive fragment stays width-1 ({b.elapsed:.2f}s)")


def test_criterion_10_structure():
    with budget(60.0) as b:
        verdict = strongly_abelian_check(ALG_SEMILATTICE, Congruence.full(2))
        assert not verdict.passed_bounded
        violation = verdict.violation

        def apply(table, args, size=2):
            index = 0
            for arg in args:
                index = index * size + arg
            return table[index]

        assert apply(violation.table, violation.left) == apply(violation.table, violation.right)
        assert apply(violation.table, (violation.left[0],) + violation.tail) != apply(
            violation.table, (violation.right[0],) + violation.tail
        )

        for algebra in (ALG_SEMILATTICE, syntactic_algebra(L_TRUE_OR).minimal.algebra):
            pairs = or_pairs(algebra)
            size = algebra.size
            for a0, a1, table in pairs.pairs:
                assert table[a0 * size + a0] == a0
                assert table[a0 * size + a1] == a1
                assert table[a1 * size + a0] == a1
                assert table[a1 * size + a1] == a1

        assert lattice_divides(ALG_LATTICE) is not None
        assert lattice_divides(ALG_SEMILATTICE) is None

        bool_report = orpair_separation(syntactic_algebra(L_TRUE_BOOL).minimal)
        assert any(not entry.separable for entry in bool_report.entries)
        and_report = orpair_separation(syntactic_algebra(L_TRUE_AND).minimal)
        assert and_report.all_separable
    report(10, f"abelian witness, or-pair tables, lattice divisors, separation reports ({b.elapsed:.2f}s)")


def test_criterion_11_doubly_deterministic():
    with budget(10.0) as b:
        cases = ((L_ROOT_G, True), (L_EVEN, True), (L_TRUE_AND, False))
        for dbta, want in cases:
            assert is_doubly_deterministic(dbta) == want
            both = is_universal_path(dbta)[0] and is_universal_path(complement(dbta))[0]
            assert both == want
    report(11, f"root-label yes, even-count yes, true-and no; cross-checked both directions ({b.elapsed:.2f}s)")
