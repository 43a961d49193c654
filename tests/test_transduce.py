import dataclasses
import itertools
import random
import time

import pytest
from test_acceptance import matrix_hom_eval

from treelab import transduce
from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    are_equivalent,
    boolean_combine,
    corpus_values,
    eval_term_in_algebra,
    evaluate,
    is_empty,
    with_constants,
)
from treelab.errors import CapExceededError
from treelab.fixtures import (
    ALG_AND,
    HOM_DUP,
    K_POTT,
    L_LINE_EVEN,
    L_TRUE_AND,
    SIG_LINE,
    SIG_MONO,
    SIG_POTT_K,
    corpus_dbta,
)
from treelab.oracle import sweep_reachable
from treelab.paths import determinize, is_universal_path, path_nfa
from treelab.transduce import (
    MAX_DTOP_OUTPUT,
    Dtop,
    MatrixHom,
    dtop_apply,
    dtop_preimage,
    dtop_to_matrix_hom,
    dtop_word,
    matrix_hom_to_dtops,
    matrix_power_language,
)
from treelab.trees import (
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    Var,
    enumerate_trees,
    parse_tree,
    parse_word,
    render_tree,
    substitute,
    tree_corpus,
)


def identity_dtop(alphabet):
    """The identity tree homomorphism of ``alphabet``, a one-state DTOP."""
    rules = {
        (x.name, 1): Term(x.arity, Tree(x, tuple(map(Var, range(1, x.arity + 1)))))
        for x in alphabet.letters
    }
    return Dtop(alphabet, alphabet, 1, 1, rules)


def test_dup_dtop_balances():
    out = dtop_apply(HOM_DUP, parse_tree("f1(f1(f0))", SIG_LINE))
    assert render_tree(out) == "f2(f2(f0,f0),f2(f0,f0))"


def test_identity_dtop():
    ident = identity_dtop(SIG_POTT_K)
    for tree in enumerate_trees(SIG_POTT_K, 6):
        assert dtop_apply(ident, tree) == tree


def test_dtop_rules_use_only_output_letters():
    # zz is no output letter: dtop_apply would write it, dtop_preimage could not read it
    zz = Tree(Letter("zz", 1), (Var(1),))
    rules = {("f0", 1): Term(0, Tree(SIG_POTT_K["f0"])), ("f1", 1): Term(1, zz)}
    with pytest.raises(ValueError, match=r"^rule for \(f1, 1\) uses letter zz outside"):
        Dtop(SIG_LINE, SIG_POTT_K, 1, 1, rules)


def test_dtop_has_no_rules_for_unknown_letters_or_states():
    f0, f1 = HOM_DUP.rules["f0", 1], HOM_DUP.rules["f1", 1]
    rules = {("f0", 1): f0, ("f1", 1): f1}
    for extra in (("f0", 2), ("f1", 2)), (("g", 1),):
        with pytest.raises(ValueError, match="^rules for unknown letters or states$"):
            Dtop(SIG_LINE, SIG_POTT_K, 1, 1, {**rules, **{key: f0 for key in extra}})
    assert Dtop(SIG_LINE, SIG_POTT_K, 1, 1, rules).rules == rules


SIG_AB = RankedAlphabet.of(("a", 1), ("b", 1), ("z", 0))

ALTERNATE = Dtop(
    SIG_MONO,
    SIG_AB,
    2,
    1,
    {
        # state 1 emits a and hands the child to state 2; state 2 emits b
        ("s", 1): Term(2, Tree(SIG_AB["a"], (Var(Dtop.flat_var(2, 1, 2)),))),
        ("s", 2): Term(2, Tree(SIG_AB["b"], (Var(Dtop.flat_var(1, 1, 2)),))),
        ("z", 1): Term(0, Tree(SIG_AB["z"])),
        ("z", 2): Term(0, Tree(SIG_AB["z"])),
    },
)


def test_alternating_relabel_matches_hand_recursion():
    def hand(state, tree):
        if tree.label.name == "z":
            return Tree(SIG_AB["z"])
        inner = hand(3 - state, tree.children[0])
        return Tree(SIG_AB["a" if state == 1 else "b"], (inner,))

    for tree in enumerate_trees(SIG_MONO, 6):
        assert dtop_apply(ALTERNATE, tree) == hand(1, tree)


SIG_FGA = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0))


def fga(name, *vars_):
    return Tree(SIG_FGA[name], tuple(Var(v) for v in vars_))


# Two states; every rule declares both (state, child) variables per child but
# uses at most one per child, so the output is linear in the input.
SWAP_DTOP = Dtop(
    SIG_FGA,
    SIG_FGA,
    2,
    1,
    {
        ("f", 1): Term(4, fga("f", Dtop.flat_var(2, 2, 2), Dtop.flat_var(1, 1, 2))),
        ("f", 2): Term(4, fga("g", Dtop.flat_var(1, 2, 2))),
        ("g", 1): Term(2, fga("g", Dtop.flat_var(2, 1, 2))),
        ("g", 2): Term(2, fga("g", Dtop.flat_var(1, 1, 2))),
        ("a", 1): Term(0, fga("a")),
        ("a", 2): Term(0, Tree(SIG_FGA["g"], (fga("a"),))),
    },
)


def test_dtop_apply_is_linear_in_depth():
    def unshared(state, node):  # every (state, child) variable run afresh
        rule = SWAP_DTOP.rules[(node.label.name, state)]
        args = []
        for index in range(1, rule.nvars + 1):
            p, j = SWAP_DTOP.var_pair(index)
            args.append(unshared(p, node.children[j - 1]))
        return substitute(rule, args)

    for tree in enumerate_trees(SIG_FGA, 7):
        assert dtop_apply(SWAP_DTOP, tree) == unshared(1, tree)
    leaf = Tree(SIG_FGA["a"])
    deep = leaf
    for depth in range(20):
        deep = Tree(SIG_FGA["f"], (deep, leaf)) if depth % 2 else Tree(SIG_FGA["g"], (deep,))
    start = time.perf_counter()
    out = dtop_apply(SWAP_DTOP, deep)
    assert time.perf_counter() - start < 1.0
    assert out.size() <= 2 * deep.size()


def test_preimage_dup_is_line_even():
    pre = dtop_preimage(K_POTT, HOM_DUP)
    equal, _ = are_equivalent(pre, L_LINE_EVEN)
    assert equal


def test_preimage_identity():
    ident = identity_dtop(SIG_POTT_K)
    pre = dtop_preimage(K_POTT, ident)
    equal, _ = are_equivalent(pre, K_POTT)
    assert equal


def test_preimage_pointwise():
    pre = dtop_preimage(K_POTT, HOM_DUP)
    for tree in enumerate_trees(SIG_LINE, 7):
        assert accepts(pre, tree) == accepts(K_POTT, dtop_apply(HOM_DUP, tree))


def test_preimage_cap():
    # the cap bounds the reached carrier (2 maps), not all 3 maps
    with pytest.raises(CapExceededError):
        dtop_preimage(K_POTT, HOM_DUP, max_carrier=1)
    assert dtop_preimage(K_POTT, HOM_DUP, max_carrier=2).algebra.size == 2


FGAB = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0))


def full_carrier_preimage(dbta, hom):
    """The inverse image filled over the automaton's whole carrier: each
    source letter's table is its image term evaluated on every argument
    tuple.  The reference for a one-state ``dtop_preimage``."""
    algebra = dbta.algebra
    tables = {
        letter.name: tuple(
            eval_term_in_algebra(algebra, hom.rules[letter.name, 1], env)
            for env in itertools.product(range(algebra.size), repeat=letter.arity)
        )
        for letter in hom.input_alphabet.letters
    }
    return Dbta(FiniteAlgebra(hom.input_alphabet, algebra.size, tables), dbta.accepting)


def random_body(rng, alphabet, nvars, depth):
    """A term body over ``alphabet`` of depth at most ``depth`` whose
    variables x1..x{nvars} may be dropped or repeated."""
    leaves = [x for x in alphabet.letters if x.arity == 0]
    if depth == 0 or rng.random() < 0.3:
        if nvars and rng.random() < 0.7:
            return Var(rng.randint(1, nvars))
        return Tree(rng.choice(leaves))
    letter = rng.choice(alphabet.letters)
    children = [random_body(rng, alphabet, nvars, depth - 1) for _ in range(letter.arity)]
    return Tree(letter, tuple(children))


def random_hom(rng, alphabet, n_states=1, depth=3):
    """A DTOP of ``alphabet`` into itself whose rule terms, up to ``depth``,
    may drop or repeat their variables; with one state, a tree homomorphism."""
    rules = {
        (x.name, q): Term(n_states * x.arity, random_body(rng, alphabet, n_states * x.arity, depth))
        for x in alphabet.letters
        for q in range(1, n_states + 1)
    }
    return Dtop(alphabet, alphabet, n_states, 1, rules)


def test_hom_preimage_is_the_reached_part_of_the_full_carrier_fill():
    rng = random.Random(20)
    trees = enumerate_trees(FGAB, 7)
    letters, kids = tree_corpus(FGAB, 7)
    small = len(enumerate_trees(FGAB, 5))
    for _ in range(60):
        size = rng.randint(1, 5)
        tables = {
            x.name: tuple(rng.randrange(size) for _ in range(size**x.arity)) for x in FGAB.letters
        }
        dbta = Dbta(FiniteAlgebra(FGAB, size, tables), frozenset(rng.sample(range(size), size // 2)))
        hom = random_hom(rng, FGAB)
        full = full_carrier_preimage(dbta, hom)
        pre = dtop_preimage(dbta, hom)
        # element i of the preimage is the i-th reached element of the fill
        reached = sweep_reachable(full.algebra)
        assert pre.algebra.size == len(reached) and pre.algebra.element_names is None
        for letter in FGAB.letters:
            for args in pre.algebra.arg_tuples(letter.arity):
                value = pre.algebra.op(letter.name, args)
                assert reached[value] == full.algebra.op(letter.name, [reached[a] for a in args])
        values = corpus_values(pre.algebra, letters, kids)
        full_values = corpus_values(full.algebra, letters, kids)
        assert [reached[v] for v in values] == full_values
        assert [v in pre.accepting for v in values] == [v in dbta.accepting for v in full_values]
        # the fill itself: a tree's value is its image's, on the trees of at most 5 nodes
        for tree, value in zip(trees[:small], full_values):
            assert evaluate(dbta.algebra, dtop_apply(hom, tree)) == value


def test_dtop_apply_of_a_substitution_substitutes_the_state_outputs():
    # d(t[s1..sk]) = d(t)[q.xi := d from q (si)], q.xi being the flat variable n*(i-1)+q
    rng = random.Random(22)
    trees = enumerate_trees(FGAB, 4)
    for _ in range(500):
        n, k = rng.randint(1, 3), rng.randint(0, 3)
        dtop = dataclasses.replace(random_hom(rng, FGAB, n, 2), initial=rng.randint(1, n))
        term = Term(k, random_body(rng, FGAB, k, 2))
        args = [rng.choice(trees) for _ in range(k)]
        states = [dataclasses.replace(dtop, initial=q) for q in range(1, n + 1)]
        outs = [dtop_apply(from_q, arg) for arg in args for from_q in states]
        image = Term(n * k, dtop_apply(dtop, term.body))
        assert dtop_apply(dtop, substitute(term, args)) == substitute(image, outs)


def test_a_copying_dtop_stops_at_the_output_cap():
    # HOM_DUP doubles the output per level: 2**41 - 1 nodes from a line of 40
    # f1; its rules write one letter at most, so the cap is MAX_DTOP_OUTPUT + 41
    line = parse_word("f1(" * 40 + "f0" + ")" * 40, SIG_LINE)
    with pytest.raises(CapExceededError) as caught:
        dtop_word(HOM_DUP, line)
    error = caught.value
    cap = MAX_DTOP_OUTPUT + 41
    assert (error.stage, error.cap, error.reached) == ("dtop output", cap, cap + 1)
    assert str(error) == f"dtop output exceeds {cap}"


def test_the_output_cap_grows_with_the_input(monkeypatch):
    # with 50 letters past the linear share, a relabelling and a DTOP that
    # writes three letters per node still run on 201 letters; HOM_DUP stops
    monkeypatch.setattr(transduce, "MAX_DTOP_OUTPUT", 50)
    line = parse_word("f1(" * 200 + "f0" + ")" * 200, SIG_LINE)
    f1, f0 = SIG_LINE.letters
    triple = Dtop(SIG_LINE, SIG_LINE, 1, 1, {
        ("f1", 1): Term(1, Tree(f1, (Tree(f1, (Tree(f1, (Var(1),)),)),))),
        ("f0", 1): Term(0, Tree(f0)),
    })
    assert dtop_word(identity_dtop(SIG_LINE), line) == line
    assert render_tree(dtop_word(triple, line)) == "f1(" * 600 + "f0" + ")" * 600
    with pytest.raises(CapExceededError) as caught:
        dtop_word(HOM_DUP, parse_word("f1(" * 40 + "f0" + ")" * 40, SIG_LINE))
    assert (caught.value.cap, caught.value.reached) == (50 + 41, 50 + 42)


def test_dtop_preimage_reads_an_output_letter_named_like_a_constant():
    # rules are evaluated in the automaton's own algebra, not with_constants(...)
    out = RankedAlphabet.of(("g", 1), ("@0", 0))
    dbta = Dbta(FiniteAlgebra(out, 2, {"g": (1, 0), "@0": (0,)}), frozenset({1}))
    pre = dtop_preimage(dbta, identity_dtop(out))
    assert [accepts(pre, t) for t in enumerate_trees(out, 4)] == [False, True, False, True]


ALG_AND_C = with_constants(ALG_AND)
AND_C = ALG_AND_C.alphabet


def test_eval_polyterm_basics():
    assert eval_term_in_algebra(ALG_AND_C, Term(2, Var(1)), (0, 1)) == 0
    assert eval_term_in_algebra(ALG_AND_C, Term(2, Var(2)), (0, 1)) == 1
    assert eval_term_in_algebra(ALG_AND_C, Term(0, Tree(AND_C["@1"])), ()) == 1
    nested = Term(1, Tree(AND_C["and"], (Var(1), Tree(AND_C["@1"]))))
    assert eval_term_in_algebra(ALG_AND_C, nested, (0,)) == 0
    assert eval_term_in_algebra(ALG_AND_C, nested, (1,)) == 1


def test_eval_polyterm_matches_grounded_tree():
    # substituting constants for variables agrees with plain evaluation
    body = Tree(AND_C["and"], (Tree(AND_C["one"]), Tree(AND_C["zero"])))
    term = Term(0, body)
    tree = parse_tree("and(one,zero)", ALG_AND.alphabet)
    assert eval_term_in_algebra(ALG_AND_C, term, ()) == evaluate(ALG_AND, tree)


def random_dtop(rng, n_states):
    """Small random transducer SIG_MONO -> SIG_AB."""

    def random_term(nvars, depth):
        options = ["a", "b", "z"]
        if nvars and depth > 0 and rng.random() < 0.6:
            pick = rng.choice(options[:2])
            return Tree(SIG_AB[pick], (random_term(nvars, depth - 1),))
        if nvars and rng.random() < 0.5:
            return Var(rng.randint(1, nvars))
        return Tree(SIG_AB["z"])

    def rule(arity):
        nvars = n_states * arity
        body = random_term(nvars, 2)
        return Term(nvars, body)

    rules = {}
    for state in range(1, n_states + 1):
        rules[("s", state)] = rule(1)
        rules[("z", state)] = Term(0, Tree(SIG_AB["z"]))
    return Dtop(SIG_MONO, SIG_AB, n_states, rng.randint(1, n_states), rules)


def random_base_dbta(rng):
    size = rng.randint(2, 3)
    tables = {
        "a": tuple(rng.randrange(size) for _ in range(size)),
        "b": tuple(rng.randrange(size) for _ in range(size)),
        "z": (rng.randrange(size),),
    }
    accepting = frozenset(e for e in range(size) if rng.random() < 0.5)
    return Dbta(FiniteAlgebra(SIG_AB, size, tables), accepting)


def test_matrix_hom_diagram_identity_on_generated_pairs():
    rng = random.Random(7)
    trees = enumerate_trees(SIG_MONO, 7)
    for _ in range(20):
        dtop = random_dtop(rng, rng.randint(1, 3))
        base = random_base_dbta(rng)
        mh = dtop_to_matrix_hom(dtop, base.algebra)
        for tree in trees:
            value = matrix_hom_eval(mh, tree)
            expected = tuple(
                evaluate(base.algebra, dtop_apply(dataclasses.replace(dtop, initial=q), tree))
                for q in range(1, dtop.n_states + 1)
            )
            assert value == expected


def test_matrix_hom_roundtrip_through_dtops():
    rng = random.Random(11)
    trees = enumerate_trees(SIG_MONO, 7)
    for _ in range(10):
        dtop = random_dtop(rng, rng.randint(1, 2))
        base = random_base_dbta(rng)
        mh = dtop_to_matrix_hom(dtop, base.algebra)
        back, extended = matrix_hom_to_dtops(mh)
        for tree in trees:
            value = matrix_hom_eval(mh, tree)
            for q in range(1, mh.width + 1):
                out = dtop_apply(dataclasses.replace(back, initial=q), tree)
                assert evaluate(extended, out) == value[q - 1]


def test_matrix_hom_width_one_reduces_to_evaluate():
    ident = identity_dtop(SIG_POTT_K)
    mh = dtop_to_matrix_hom(ident, K_POTT.algebra)
    assert mh.width == 1
    for tree in enumerate_trees(SIG_POTT_K, 6):
        assert matrix_hom_eval(mh, tree) == (evaluate(K_POTT.algebra, tree),)


def test_matrix_hom_constant_tuples():
    mh = MatrixHom(
        ALG_AND,
        SIG_MONO,
        1,
        {"s": (Term(1, Tree(AND_C["@1"])),), "z": (Term(0, Tree(AND_C["@0"])),)},
    )
    dtop, extended = matrix_hom_to_dtops(mh)
    for tree in enumerate_trees(SIG_MONO, 4):
        out = dtop_apply(dtop, tree)
        assert evaluate(extended, out) == matrix_hom_eval(mh, tree)[0]
        assert matrix_hom_eval(mh, tree)[0] == (1 if tree.label.name == "s" else 0)


def test_matrix_power_language_trivial_accepting():
    mh = dtop_to_matrix_hom(identity_dtop(SIG_POTT_K), K_POTT.algebra)
    none = matrix_power_language(mh, set())
    assert is_empty(none) is None
    everything = matrix_power_language(mh, {(v,) for v in range(3)})
    assert all(accepts(everything, t) for t in enumerate_trees(SIG_POTT_K, 5))


AND2 = Letter("and2", 2)


def semilattice_base():
    # bare meet-semilattice; elements appear as polynomial constants only
    return FiniteAlgebra(RankedAlphabet((AND2,)), 2, {"and2": (0, 0, 0, 1)})


def conj_vars(indices):
    body = None
    for index in indices:
        leaf = Var(index)
        body = leaf if body is None else Tree(AND2, (body, leaf))
    return body


def dtta_to_matrix_hom(dtta):
    """Width-|Q| semilattice hom: coordinate q = 'every path from state q ok'."""
    base = semilattice_base()
    width = dtta.n_states
    tuples = {}
    for letter in dtta.alphabet.letters:
        polys = []
        for q in range(width):
            if letter.arity == 0:
                bit = 1 if (q, letter.name) in dtta.leaf_ok else 0
                polys.append(Term(0, Tree(Letter(f"@{bit}", 0))))
            else:
                successors = dtta.delta[(q, letter.name)]
                indices = [
                    width * j + successors[j] + 1 for j in range(letter.arity)
                ]
                polys.append(Term(width * letter.arity, conj_vars(indices)))
        tuples[letter.name] = tuple(polys)
    return MatrixHom(base, dtta.alphabet, width, tuples)


def test_path_dtop_theorem_forward():
    """Every universal-path corpus language is a flattened matrix power of the
    two-element semilattice built from its DTTA."""
    for name in ("l_true_and", "l_pott", "l_pair", "l_root_g"):
        lang = corpus_dbta(name)
        if not is_universal_path(lang)[0]:
            continue
        dtta = determinize(path_nfa(lang))
        mh = dtta_to_matrix_hom(dtta)
        accepting = {
            v
            for v in itertools.product((0, 1), repeat=mh.width)
            if v[dtta.initial] == 1
        }
        flat = matrix_power_language(mh, accepting)
        equal, witness = are_equivalent(flat, lang)
        assert equal, (name, witness and render_tree(witness))


def test_path_dtop_theorem_backward():
    """Every flattened semilattice matrix power is a Boolean combination of
    universal path languages (built through the transducer slices)."""
    for name in ("l_true_and", "l_pott"):
        lang = corpus_dbta(name)
        dtta = determinize(path_nfa(lang))
        mh = dtta_to_matrix_hom(dtta)
        accepting = {
            v
            for v in itertools.product((0, 1), repeat=mh.width)
            if v[dtta.initial] == 1
        }
        flat = matrix_power_language(mh, accepting)
        dtop, extended = matrix_hom_to_dtops(mh)

        def slice_language(coordinate, value):
            return dtop_preimage(
                Dbta(extended, frozenset({value})), dataclasses.replace(dtop, initial=coordinate)
            )

        # each 1-slice is a universal path language (and its complement is the 0-slice)
        for coordinate in range(1, mh.width + 1):
            assert is_universal_path(slice_language(coordinate, 1))[0]

        combination = None
        for v in sorted(accepting):
            piece = None
            for coordinate in range(1, mh.width + 1):
                part = slice_language(coordinate, v[coordinate - 1])
                piece = part if piece is None else boolean_combine("intersection", piece, part)
            combination = piece if combination is None else boolean_combine("union", combination, piece)
        equal, _ = are_equivalent(combination, flat)
        assert equal, name


def test_matrix_flatten_intersection_of_two_universal():
    """A width-2 semilattice hom whose accepting set demands both coordinates
    equals the intersection of the two coordinate languages."""
    lang = L_TRUE_AND
    dtta = determinize(path_nfa(lang))
    mh = dtta_to_matrix_hom(dtta)
    accepting_both = {
        v for v in itertools.product((0, 1), repeat=mh.width) if all(b == 1 for b in v)
    }
    flat = matrix_power_language(mh, accepting_both)
    dtop, extended = matrix_hom_to_dtops(mh)
    pieces = [
        dtop_preimage(Dbta(extended, frozenset({1})), dataclasses.replace(dtop, initial=q))
        for q in range(1, mh.width + 1)
    ]
    expected = pieces[0]
    for piece in pieces[1:]:
        expected = boolean_combine("intersection", expected, piece)
    equal, _ = are_equivalent(flat, expected)
    assert equal
