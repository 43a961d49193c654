import itertools
import random
import time

import pytest

from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    are_equivalent,
    boolean_combine,
    evaluate,
    is_empty,
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
from treelab.paths import determinize, dtta_to_dbta, is_universal_path, path_nfa
from treelab.transduce import (
    Dtop,
    MatrixHom,
    PApp,
    PConst,
    PolyTerm,
    PVar,
    dtop_apply,
    dtop_preimage,
    dtop_to_matrix_hom,
    eval_polyterm,
    matrix_hom_eval,
    matrix_hom_to_dtops,
    matrix_power_language,
)
from treelab.trees import (
    Letter,
    RankedAlphabet,
    Term,
    TermNode,
    TreeHom,
    Tree,
    Var,
    enumerate_trees,
    parse_tree,
    render_tree,
    substitute,
)

DUP_DTOP = Dtop.from_hom(HOM_DUP)


def test_dup_dtop_balances():
    out = dtop_apply(DUP_DTOP, parse_tree("f1(f1(f0))", SIG_LINE))
    assert render_tree(out) == "f2(f2(f0,f0),f2(f0,f0))"


def test_identity_dtop():
    ident = Dtop.from_hom(TreeHom.identity(SIG_POTT_K))
    for tree in enumerate_trees(SIG_POTT_K, 6):
        assert dtop_apply(ident, tree) == tree


SIG_AB = RankedAlphabet.of(("a", 1), ("b", 1), ("z", 0))

ALTERNATE = Dtop(
    SIG_MONO,
    SIG_AB,
    2,
    1,
    {
        # state 1 emits a and hands the child to state 2; state 2 emits b
        ("s", 1): Term(2, TermNode(SIG_AB["a"], (Var(Dtop.flat_var(2, 1, 2)),))),
        ("s", 2): Term(2, TermNode(SIG_AB["b"], (Var(Dtop.flat_var(1, 1, 2)),))),
        ("z", 1): Term(0, TermNode(SIG_AB["z"])),
        ("z", 2): Term(0, TermNode(SIG_AB["z"])),
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
    return TermNode(SIG_FGA[name], tuple(Var(v) for v in vars_))


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
        ("a", 2): Term(0, TermNode(SIG_FGA["g"], (fga("a"),))),
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
    pre = dtop_preimage(K_POTT, DUP_DTOP)
    equal, _ = are_equivalent(pre, L_LINE_EVEN)
    assert equal


def test_preimage_identity():
    ident = Dtop.from_hom(TreeHom.identity(SIG_POTT_K))
    pre = dtop_preimage(K_POTT, ident)
    equal, _ = are_equivalent(pre, K_POTT)
    assert equal


def test_preimage_pointwise():
    pre = dtop_preimage(K_POTT, DUP_DTOP)
    for tree in enumerate_trees(SIG_LINE, 7):
        assert accepts(pre, tree) == accepts(K_POTT, dtop_apply(DUP_DTOP, tree))


def test_preimage_cap():
    # the cap bounds the reached carrier (2 maps), not all 3 maps
    with pytest.raises(CapExceededError):
        dtop_preimage(K_POTT, DUP_DTOP, max_carrier=1)
    assert dtop_preimage(K_POTT, DUP_DTOP, max_carrier=2).algebra.size == 2


def test_eval_polyterm_basics():
    assert eval_polyterm(ALG_AND, PolyTerm(2, PVar(1)), (0, 1)) == 0
    assert eval_polyterm(ALG_AND, PolyTerm(2, PVar(2)), (0, 1)) == 1
    assert eval_polyterm(ALG_AND, PolyTerm(0, PConst(1)), ()) == 1
    nested = PolyTerm(1, PApp("and", (PVar(1), PConst(1))))
    assert eval_polyterm(ALG_AND, nested, (0,)) == 0
    assert eval_polyterm(ALG_AND, nested, (1,)) == 1


def test_eval_polyterm_matches_grounded_tree():
    # substituting constants for variables agrees with plain evaluation
    body = PApp("and", (PApp("one", ()), PApp("zero", ())))
    pt = PolyTerm(0, body)
    tree = parse_tree("and(one,zero)", ALG_AND.alphabet)
    assert eval_polyterm(ALG_AND, pt, ()) == evaluate(ALG_AND, tree)


def random_dtop(rng, n_states):
    """Small random transducer SIG_MONO -> SIG_AB."""

    def random_term(nvars, depth):
        options = ["a", "b", "z"]
        if nvars and depth > 0 and rng.random() < 0.6:
            pick = rng.choice(options[:2])
            return TermNode(SIG_AB[pick], (random_term(nvars, depth - 1),))
        if nvars and rng.random() < 0.5:
            return Var(rng.randint(1, nvars))
        return TermNode(SIG_AB["z"])

    def rule(arity):
        nvars = n_states * arity
        body = random_term(nvars, 2)
        return Term(nvars, body)

    rules = {}
    for state in range(1, n_states + 1):
        rules[("s", state)] = rule(1)
        rules[("z", state)] = Term(0, TermNode(SIG_AB["z"]))
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
                evaluate(base.algebra, dtop_apply(dtop.with_initial(q), tree))
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
                out = dtop_apply(back.with_initial(q), tree)
                assert evaluate(extended, out) == value[q - 1]


def test_matrix_hom_width_one_reduces_to_evaluate():
    ident = Dtop.from_hom(TreeHom.identity(SIG_POTT_K))
    mh = dtop_to_matrix_hom(ident, K_POTT.algebra)
    assert mh.width == 1
    for tree in enumerate_trees(SIG_POTT_K, 6):
        assert matrix_hom_eval(mh, tree) == (evaluate(K_POTT.algebra, tree),)


def test_matrix_hom_constant_tuples():
    mh = MatrixHom(
        ALG_AND,
        SIG_MONO,
        1,
        {"s": (PolyTerm(1, PConst(1)),), "z": (PolyTerm(0, PConst(0)),)},
    )
    dtop, extended = matrix_hom_to_dtops(mh)
    for tree in enumerate_trees(SIG_MONO, 4):
        out = dtop_apply(dtop, tree)
        assert evaluate(extended, out) == matrix_hom_eval(mh, tree)[0]
        assert matrix_hom_eval(mh, tree)[0] == (1 if tree.label.name == "s" else 0)


def test_matrix_power_language_trivial_accepting():
    mh = dtop_to_matrix_hom(Dtop.from_hom(TreeHom.identity(SIG_POTT_K)), K_POTT.algebra)
    none = matrix_power_language(mh, set())
    assert is_empty(none) is None
    everything = matrix_power_language(mh, {(v,) for v in range(3)})
    assert all(accepts(everything, t) for t in enumerate_trees(SIG_POTT_K, 5))


def semilattice_base():
    # bare meet-semilattice; elements appear as polynomial constants only
    return FiniteAlgebra(RankedAlphabet.of(("and2", 2)), 2, {"and2": (0, 0, 0, 1)})


def conj_vars(indices):
    body = None
    for index in indices:
        leaf = PVar(index)
        body = leaf if body is None else PApp("and2", (body, leaf))
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
                polys.append(PolyTerm(0, PConst(bit)))
            else:
                successors = dtta.delta[(q, letter.name)]
                indices = [
                    width * j + successors[j] + 1 for j in range(letter.arity)
                ]
                polys.append(PolyTerm(width * letter.arity, conj_vars(indices)))
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
                Dbta(extended, frozenset({value})), dtop.with_initial(coordinate)
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
        dtop_preimage(Dbta(extended, frozenset({1})), dtop.with_initial(q))
        for q in range(1, mh.width + 1)
    ]
    expected = pieces[0]
    for piece in pieces[1:]:
        expected = boolean_combine("intersection", expected, piece)
    equal, _ = are_equivalent(flat, expected)
    assert equal
