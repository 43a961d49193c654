import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import cascade_eval, is_direction_sensitive, value_annotate

from treelab.automata import Dbta, FiniteAlgebra, accepts, are_equivalent, evaluate
from treelab.cascade import (
    EU,
    And,
    Cascade,
    DirUntil,
    Layer,
    Lbl,
    Next,
    Not,
    Or,
    SemiPoly,
    ann_name,
    annotate,
    annotated_alphabet,
    cascade_flatten,
    ctl_compile,
    ctl_eval,
    ctl_label,
    ctl_parse,
    ctl_render,
    nest,
    random_formula,
    random_formula_corpus,
    sequential_compose,
    until_language,
    value_annotated_alphabet,
    _Compiler,
)
from treelab.cli import save_dbta
from treelab.errors import CapExceededError, ParseError
from treelab.fixtures import (
    ALG_AND,
    DBTA_POTT,
    L_TRUE_AND,
    SIG_AND,
    SIG_GCD,
    SIG_POTT,
)
from treelab.trees import (
    RankedAlphabet,
    Tree,
    enumerate_trees,
    parse_tree,
    tree_corpus,
)


# --- independent oracles -------------------------------------------------------


def until_oracle(spec: DirUntil, tree) -> bool:
    """Witness-node search straight from the definition."""

    def walk(node, ancestors):
        if node.label.name in spec.ys and all(pair in spec.xs for pair in ancestors):
            return True
        return any(
            walk(child, ancestors + [(node.label.name, i)])
            for i, child in enumerate(node.children, start=1)
        )

    return walk(tree, [])


def ctl_oracle(formula, tree) -> bool:
    """Independent CTL semantics via bottom-up recursions (no witness walk)."""
    if isinstance(formula, Lbl):
        return tree.label.name == formula.name
    if isinstance(formula, Not):
        return not ctl_oracle(formula.sub, tree)
    if isinstance(formula, And):
        return ctl_oracle(formula.left, tree) and ctl_oracle(formula.right, tree)
    if isinstance(formula, Or):
        return ctl_oracle(formula.left, tree) or ctl_oracle(formula.right, tree)
    if isinstance(formula, Next):
        return formula.child <= len(tree.children) and ctl_oracle(
            formula.sub, tree.children[formula.child - 1]
        )
    if isinstance(formula, EU):
        def rooted(node):  # witness below with the subtree root constrained too
            if ctl_oracle(formula.goal, node):
                return True
            return ctl_oracle(formula.path, node) and any(rooted(c) for c in node.children)

        return ctl_oracle(formula.goal, tree) or any(rooted(c) for c in tree.children)
    if isinstance(formula, DirUntil):
        def down(node):
            if node.label.name in formula.ys:
                return True
            return any(
                (node.label.name, i) in formula.xs and down(child)
                for i, child in enumerate(node.children, start=1)
            )

        return down(tree)
    raise TypeError(formula)


# --- annotation and nesting ------------------------------------------------------


def test_annotate_empty_is_isomorphic_relabel():
    tree = parse_tree("f2(f0,f0)", SIG_POTT)
    assert annotate(tree, []) == tree  # zero bits keep the letter names


def test_annotate_pott_bits():
    tree = parse_tree("f2(f0,f0)", SIG_POTT)
    annotated = annotate(tree, [DBTA_POTT])
    assert annotated.label.name == "f2|0"
    assert all(child.label.name == "f0|1" for child in annotated.children)


def test_annotate_bits_agree_with_accepts():
    def check(node, original):
        bits = node.label.name.split("|")[1]
        assert bits == str(int(accepts(DBTA_POTT, original)))
        for new_child, old_child in zip(node.children, original.children):
            check(new_child, old_child)

    for tree in enumerate_trees(SIG_POTT, 7):
        check(annotate(tree, [DBTA_POTT]), tree)


def root_bit_top(base, nbits=1):
    """Top language over the annotated alphabet: the root's own first bit."""
    alphabet = annotated_alphabet(base, nbits)
    tables = {
        letter.name: tuple(
            int(letter.name.split("|")[1][0] == "1") for _ in range(2**letter.arity)
        )
        for letter in alphabet.letters
    }
    return Dbta(FiniteAlgebra(alphabet, 2, tables), frozenset({1}))


def test_nest_no_annotations_is_same_language():
    nested = nest([], L_TRUE_AND)
    equal, _ = are_equivalent(nested, L_TRUE_AND)
    assert equal


def test_nest_root_bit_recovers_language():
    nested = nest([L_TRUE_AND], root_bit_top(SIG_AND))
    equal, _ = are_equivalent(nested, L_TRUE_AND)
    assert equal


def test_nest_agrees_with_annotate_then_accept():
    top = root_bit_top(SIG_AND)
    langs = [L_TRUE_AND]
    nested = nest(langs, top)
    for tree in enumerate_trees(SIG_AND, 7):
        assert accepts(nested, tree) == accepts(top, annotate(tree, langs))


# --- sequential composition -------------------------------------------------------


def parity_of_marked(base, inner_size):
    """g over the value-annotated alphabet: parity of nodes annotated 1."""
    alphabet = value_annotated_alphabet(base, inner_size)
    tables = {}
    for letter in alphabet.letters:
        marked = int(letter.name.split("|")[1] == "1")
        rows = []
        for args in itertools.product(range(2), repeat=letter.arity):
            rows.append((sum(args) + marked) % 2)
        tables[letter.name] = tuple(rows)
    return FiniteAlgebra(alphabet, 2, tables)


def test_sequential_compose_is_pair_of_values():
    h = ALG_AND
    g = parity_of_marked(SIG_AND, h.size)
    composed = sequential_compose(h, g)
    for tree in enumerate_trees(SIG_AND, 7):
        value = evaluate(composed, tree)
        expected_b = evaluate(h, tree)
        expected_a = evaluate(g, value_annotate(tree, h))
        assert value == expected_a * h.size + expected_b


def test_sequential_compose_trivial_inner():
    trivial = FiniteAlgebra(SIG_AND, 1, {l.name: tuple(0 for _ in range(1**l.arity)) for l in SIG_AND.letters})
    g = parity_of_marked(SIG_AND, 1)
    composed = sequential_compose(trivial, g)
    for tree in enumerate_trees(SIG_AND, 6):
        assert evaluate(composed, tree) == evaluate(g, value_annotate(tree, trivial))


def test_sequential_compose_trivial_outer():
    h = ALG_AND
    alphabet = value_annotated_alphabet(SIG_AND, h.size)
    trivial_outer = FiniteAlgebra(
        alphabet, 1, {l.name: tuple(0 for _ in range(1**l.arity)) for l in alphabet.letters}
    )
    composed = sequential_compose(h, trivial_outer)
    for tree in enumerate_trees(SIG_AND, 6):
        assert evaluate(composed, tree) % h.size == evaluate(h, tree)


# --- until languages ----------------------------------------------------------------


def test_until_full_when_ys_everything():
    spec = DirUntil(frozenset(), frozenset({"g", "c", "d"}))
    lang, _ = until_language(SIG_GCD, spec)
    assert all(accepts(lang, t) for t in enumerate_trees(SIG_GCD, 5))


def test_until_empty_when_ys_empty():
    spec = DirUntil(frozenset({("g", 1), ("g", 2)}), frozenset())
    lang, _ = until_language(SIG_GCD, spec)
    assert all(not accepts(lang, t) for t in enumerate_trees(SIG_GCD, 5))


def test_until_gcd_example():
    spec = DirUntil(frozenset({("g", 1)}), frozenset({"c"}))
    lang, _ = until_language(SIG_GCD, spec)
    assert accepts(lang, parse_tree("g(c,d)", SIG_GCD))
    assert accepts(lang, parse_tree("c", SIG_GCD))
    assert not accepts(lang, parse_tree("g(d,c)", SIG_GCD))


def test_until_matches_witness_oracle():
    specs = [
        (SIG_GCD, DirUntil(frozenset({("g", 1)}), frozenset({"c"}))),
        (SIG_GCD, DirUntil(frozenset({("g", 1), ("g", 2)}), frozenset({"d"}))),
        (SIG_POTT, DirUntil(frozenset({("f1", 1)}), frozenset({"f0"}))),
    ]
    for alphabet, spec in specs:
        lang, _ = until_language(alphabet, spec)
        for tree in enumerate_trees(alphabet, 6):
            assert accepts(lang, tree) == until_oracle(spec, tree)


def test_until_refuses_pairs_and_letters_outside_the_alphabet():
    for xs, ys, message in (
        ({("g", 3)}, set(), "pair (g,3) does not respect the alphabet"),
        ({("h", 1)}, set(), "pair (h,1) does not respect the alphabet"),
        (set(), {"h"}, "letter h not in the alphabet"),
    ):
        spec = DirUntil(frozenset(xs), frozenset(ys))
        for build in (until_language, lambda alphabet, spec: ctl_compile(spec, alphabet)):
            with pytest.raises(ValueError) as caught:
                build(SIG_GCD, spec)
            assert str(caught.value) == message


def test_until_complement_polys_are_semilattice_tables():
    spec = DirUntil(frozenset({("g", 2)}), frozenset({"c"}))
    lang, polys = until_language(SIG_GCD, spec)
    for letter in SIG_GCD.letters:
        poly = polys[letter.name]
        assert isinstance(poly, SemiPoly)
        for i, args in enumerate(itertools.product((0, 1), repeat=letter.arity)):
            assert lang.algebra.tables[letter.name][i] == poly.eval(args)
    # complement semantics: h = 1 iff no witness
    comp = Dbta(lang.algebra, frozenset({1}))
    for tree in enumerate_trees(SIG_GCD, 5):
        assert accepts(comp, tree) == (not until_oracle(spec, tree))


# --- CTL parsing and semantics -------------------------------------------------------


def test_ctl_parse_atoms():
    assert ctl_parse("lbl(f0)", SIG_POTT) == Lbl("f0")
    assert ctl_parse("X1 lbl(f0)", SIG_POTT) == Next(1, Lbl("f0"))
    parsed = ctl_parse("E[lbl(f1) U lbl(f0)]", SIG_POTT)
    assert parsed == EU(Lbl("f1"), Lbl("f0"))


def test_ctl_parse_precedence():
    parsed = ctl_parse("lbl(f0) | lbl(f1) & !lbl(f2)", SIG_POTT)
    assert parsed == Or(Lbl("f0"), And(Lbl("f1"), Not(Lbl("f2"))))


def test_ctl_parse_dir_until():
    parsed = ctl_parse("DU[g.1, g.2 ; c, d]", SIG_GCD)
    assert parsed == DirUntil(frozenset({("g", 1), ("g", 2)}), frozenset({"c", "d"}))
    empty_x = ctl_parse("DU[ ; c]", SIG_GCD)
    assert empty_x == DirUntil(frozenset(), frozenset({"c"}))


def test_ctl_parse_errors():
    with pytest.raises(ParseError):
        ctl_parse("lbl(zz)", SIG_POTT)
    with pytest.raises(ParseError):
        ctl_parse("DU[g.3 ; c]", SIG_GCD)
    with pytest.raises(ParseError):
        ctl_parse("lbl(f0) &", SIG_POTT)


# each name but g begins with a keyword of the formula grammar, or holds '
KEYWORD_NAMES = RankedAlphabet.of(
    ("Ea", 0), ("Ub", 0), ("lblx", 0), ("DUP", 0), ("X12y", 0), ("a'", 0), ("g", 2)
)


def test_ctl_render_parses_back():
    rng = random.Random(27)
    for alphabet in (KEYWORD_NAMES, SIG_POTT, SIG_GCD):
        for _ in range(200):
            formula = random_formula(rng, alphabet, rng.randint(0, 4))
            assert ctl_parse(ctl_render(formula), alphabet) == formula, ctl_render(formula)
    assert ctl_parse("X1 lbl(X12y) & lbl(lblx)", KEYWORD_NAMES) == And(
        Next(1, Lbl("X12y")), Lbl("lblx")
    )
    with pytest.raises(ParseError, match="'X1lbl'"):
        ctl_parse("X1lbl(Ea)", KEYWORD_NAMES)


def test_ctl_eval_paper_cases():
    assert ctl_eval(Lbl("f0"), parse_tree("f0", SIG_POTT))
    assert ctl_eval(Next(1, Lbl("f0")), parse_tree("f1(f0)", SIG_POTT))
    assert not ctl_eval(Next(1, Lbl("f0")), parse_tree("f0", SIG_POTT))
    assert ctl_eval(EU(Lbl("f1"), Lbl("f0")), parse_tree("f1(f1(f0))", SIG_POTT))


def test_ctl_eval_eu_excludes_root_and_witness():
    # the intermediate f2 node breaks the path requirement...
    deep = parse_tree("f2(f2(f0,f0),f2(f0,f0))", SIG_POTT)
    assert not ctl_eval(EU(Lbl("f1"), Lbl("f0")), deep)
    # ...but the root itself is exempt
    shallow = parse_tree("f2(f0,f0)", SIG_POTT)
    assert ctl_eval(EU(Lbl("f1"), Lbl("f0")), shallow)


def test_ctl_eval_matches_independent_oracle():
    rng = random.Random(3)
    for alphabet in (SIG_POTT, SIG_GCD):
        trees = enumerate_trees(alphabet, 6)
        for formula, _ in random_formula_corpus(17, alphabet, 40):
            for tree in trees:
                assert ctl_eval(formula, tree) == ctl_oracle(formula, tree), ctl_render(formula)


# --- the labelling evaluator against the oracle, on random formulas and trees ----------

HFGA = RankedAlphabet.of(("h", 3), ("f", 2), ("g", 1), ("a", 0), ("b", 0))


def formulas(alphabet: RankedAlphabet):
    """Formulas of the whole grammar; Next may name a child no letter has."""
    names = [letter.name for letter in alphabet.letters]
    pairs = [(l.name, i) for l in alphabet.letters for i in range(1, l.arity + 1)]
    atoms = st.one_of(
        st.sampled_from(names).map(Lbl),
        st.builds(
            DirUntil, st.frozensets(st.sampled_from(pairs)), st.frozensets(st.sampled_from(names))
        ),
    )
    max_arity = max(letter.arity for letter in alphabet.letters)

    def extend(sub):
        return st.one_of(
            sub.map(Not),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(EU, sub, sub),
            st.builds(Next, st.integers(1, max_arity + 1), sub),
        )

    return st.recursive(atoms, extend, max_leaves=8)


def trees(alphabet: RankedAlphabet):
    """Bushy trees, and lopsided ones: a spine of 8 to 40 nodes, each taking
    the rest of the tree at a drawn child and leaves elsewhere."""
    leaves = st.sampled_from(alphabet.constants).map(Tree)
    inner = [letter for letter in alphabet.letters if letter.arity]

    def extend(sub):
        return st.one_of(*(
            st.tuples(*[sub] * letter.arity).map(lambda kids, letter=letter: Tree(letter, kids))
            for letter in inner
        ))

    @st.composite
    def spine(draw):
        tree = draw(leaves)
        for letter, at, leaf in draw(st.lists(
            st.tuples(st.sampled_from(inner), st.integers(0, 2), leaves), min_size=8, max_size=40
        )):
            kids = [leaf] * letter.arity
            kids[at % letter.arity] = tree
            tree = Tree(letter, tuple(kids))
        return tree

    return st.one_of(st.recursive(leaves, extend, max_leaves=12), spine())


@pytest.mark.parametrize("alphabet", [SIG_POTT, SIG_GCD, HFGA])
def test_ctl_eval_agrees_with_oracle_on_random_trees(alphabet):
    @settings(max_examples=30)
    @given(formulas(alphabet), trees(alphabet))
    def check(formula, tree):
        assert ctl_eval(formula, tree) == ctl_oracle(formula, tree)

    check()


@settings(max_examples=15)
@given(st.sampled_from([SIG_POTT, SIG_GCD, HFGA]).flatmap(
    lambda alphabet: st.tuples(st.just(alphabet), formulas(alphabet))
))
def test_ctl_label_on_the_corpus_agrees_with_oracle(case):
    alphabet, formula = case
    corpus = enumerate_trees(alphabet, 5)
    labels = ctl_label(formula, *tree_corpus(alphabet, 5))
    assert labels == [ctl_oracle(formula, tree) for tree in corpus]


def test_formula_corpus_is_the_same_draw_each_with_its_cascade():
    # the formulas drawn before the cascades were kept, pinned
    assert [ctl_render(f) for f, _ in random_formula_corpus(17, SIG_GCD, 8, max_width=6)] == [
        "lbl(g)", "DU[g.2 ; c]", "lbl(d)", "lbl(c)", "lbl(c)", "lbl(d)", "!lbl(c)", "DU[g.2 ; ]",
    ]
    corpus = random_formula_corpus(17, SIG_GCD, 8)
    assert ctl_render(corpus[0][0]) == (
        "(((DU[ ; d, g] & lbl(c)) | (lbl(c) & lbl(d))) & E[DU[g.2 ; d] U !lbl(g)])"
    )
    for max_width in (6, 16):
        for formula, cascade in random_formula_corpus(5, SIG_POTT, 30, max_width=max_width):
            assert cascade == ctl_compile(formula, SIG_POTT, max_width), ctl_render(formula)


# --- compilation -----------------------------------------------------------------------


def test_compile_letter_is_root_label():
    cascade = ctl_compile(Lbl("f0"), SIG_POTT)
    assert len(cascade.layers) == 1 and cascade.layers[0].width == 1
    flat = cascade_flatten(cascade)
    for tree in enumerate_trees(SIG_POTT, 6):
        assert accepts(flat, tree) == (tree.label.name == "f0")


def test_compile_dir_until_equals_until_language():
    formula = DirUntil(frozenset({("g", 1)}), frozenset({"c"}))
    cascade = ctl_compile(formula, SIG_GCD)
    flat = cascade_flatten(cascade)
    lang, _ = until_language(SIG_GCD, formula)
    equal, _ = are_equivalent(flat, lang)
    assert equal


def test_compile_random_formulas_agree_with_eval():
    for alphabet in (SIG_POTT, SIG_GCD):
        trees = enumerate_trees(alphabet, 6)
        for formula, _ in random_formula_corpus(5, alphabet, 40):
            flat = cascade_flatten(ctl_compile(formula, alphabet))
            for tree in trees:
                assert accepts(flat, tree) == ctl_eval(formula, tree), ctl_render(formula)


def test_direction_sensitive_fragment_compiles_width_one():
    corpus = [f for f, _ in random_formula_corpus(23, SIG_GCD, 120) if is_direction_sensitive(f)]
    assert len(corpus) >= 20
    for formula in corpus:
        cascade = ctl_compile(formula, SIG_GCD)
        assert all(layer.width == 1 for layer in cascade.layers), ctl_render(formula)


def test_next_and_eu_introduce_width_two():
    cascade = ctl_compile(Next(1, Lbl("f0")), SIG_POTT)
    assert max(layer.width for layer in cascade.layers) == 2
    cascade = ctl_compile(EU(Lbl("f1"), Lbl("f0")), SIG_POTT)
    assert max(layer.width for layer in cascade.layers) == 2


def test_eu_cannot_be_width_one():
    """Why EU gets a matrix layer: any cascade of width-1 layers assigns equal
    bit vectors to u and f2(u,u) when u's root is f2 (conjunction polynomials
    are idempotent and constants see the same annotated letter), yet the
    root-exempt EU semantics distinguishes exactly such a pair."""
    formula = EU(Lbl("f1"), Lbl("f0"))
    small = parse_tree("f2(f0,f0)", SIG_POTT)
    big = parse_tree("f2(f2(f0,f0),f2(f0,f0))", SIG_POTT)
    assert ctl_eval(formula, small) and not ctl_eval(formula, big)

    # width-1-only cascades cannot separate the pair: check every compiled
    # direction-sensitive formula agrees on it
    for candidate, _ in random_formula_corpus(29, SIG_POTT, 150):
        if not is_direction_sensitive(candidate):
            continue
        cascade = ctl_compile(candidate, SIG_POTT)
        assert all(layer.width == 1 for layer in cascade.layers)
        flat = cascade_flatten(cascade)
        assert accepts(flat, small) == accepts(flat, big), ctl_render(candidate)

    # the width-2 compilation handles it
    flat = cascade_flatten(ctl_compile(formula, SIG_POTT))
    assert accepts(flat, small) and not accepts(flat, big)


def test_cascade_eval_matches_flatten():
    for formula in (
        Lbl("f0"),
        And(Lbl("f2"), Not(Lbl("f0"))),
        EU(Lbl("f1"), Lbl("f0")),
        Next(2, Lbl("f0")),
    ):
        cascade = ctl_compile(formula, SIG_POTT)
        flat = cascade_flatten(cascade)
        for tree in enumerate_trees(SIG_POTT, 8):
            assert (cascade_eval(cascade, tree)[cascade.output_flat()] == 1) == accepts(flat, tree)


def test_next_layer_coordinates():
    cascade = ctl_compile(Next(2, Lbl("f0")), SIG_POTT)
    tree = parse_tree("f2(f1(f0),f0)", SIG_POTT)
    bits = cascade_eval(cascade, tree)
    # output bit: second child is an f0-leaf
    assert bits[cascade.output_flat()] == 1
    for other in ("f1(f0)", "f0"):
        assert cascade_eval(cascade, parse_tree(other, SIG_POTT))[cascade.output_flat()] == 0


def test_constant_layer_cascade():
    # a single constant layer: always-one bit
    layer = Layer(SIG_GCD, 0, 1, (), {l.name: ((SemiPoly.const(1),),) for l in SIG_GCD.letters})
    cascade = Cascade(SIG_GCD, (layer,), (0, 0))
    for tree in enumerate_trees(SIG_GCD, 4):
        assert cascade_eval(cascade, tree) == (1,)


def test_layer_checks_its_table():
    ones = {l.name: ((SemiPoly.const(1),),) for l in SIG_GCD.letters}
    reads_c = {**ones, "c": ((SemiPoly(False, frozenset({0})),),)}
    negative_g = {**ones, "g": ((SemiPoly(False, frozenset({-1})),),)}
    faults = [
        ((0, 0, (), ones), "layer width must be >= 1"),
        ((1, 1, (1,), ones), "layer reads a coordinate outside the earlier bits"),
        ((0, 1, (), {"g": ones["g"]}), "layer must define polynomials for every letter"),
        ((1, 1, (0,), ones), "bad polynomial table for g"),
        ((0, 2, (), ones), "bad polynomial tuple for g"),
        ((0, 1, (), reads_c), "polynomial input out of range for c"),
        ((0, 1, (), negative_g), "polynomial input out of range for g"),
    ]
    for (nbits, width, reads, table), message in faults:
        with pytest.raises(ValueError, match=message):
            Layer(SIG_GCD, nbits, width, reads, table)


def test_shared_subformulas_compile_once():
    shared = EU(Lbl("f1"), Lbl("f0"))
    formula = And(shared, Not(shared))
    cascade = ctl_compile(formula, SIG_POTT)
    flat = cascade_flatten(cascade)
    assert all(not accepts(flat, t) for t in enumerate_trees(SIG_POTT, 6))
    # EU compiled once: 2 letter layers + (width-2 + readout) + final And layer
    assert len(cascade.layers) == 5


def explicit_layer(base, nbits, width, polys) -> Layer:
    """The layer that applies ``polys[ann_name(name, bits)]`` on each annotated
    letter of ``annotated_alphabet(base, nbits)``: one row per bit vector,
    reading every earlier coordinate."""
    assert len(polys) == len(base.letters) << nbits
    table = {
        letter.name: tuple(
            tuple(polys[ann_name(letter.name, bits)])
            for bits in itertools.product((0, 1), repeat=nbits)
        )
        for letter in base.letters
    }
    return Layer(base, nbits, width, tuple(range(nbits)), table)


def test_explicit_layer_over_annotated_alphabet():
    # the second layer copies the first layer's bit at the node: explicit
    # polynomials for every annotated letter, read as a table over that bit
    first = explicit_layer(
        SIG_GCD, 0, 1, {l.name: (SemiPoly.const(l.name == "c"),) for l in SIG_GCD.letters}
    )
    alphabet = annotated_alphabet(SIG_GCD, 1)
    copy = explicit_layer(
        SIG_GCD, 1, 1, {l.name: (SemiPoly.const(l.name.endswith("|1")),) for l in alphabet.letters}
    )
    assert (copy.base, copy.nbits, copy.reads) == (SIG_GCD, 1, (0,))
    assert copy.alphabet == alphabet
    cascade = Cascade(SIG_GCD, (first, copy), (1, 0))
    for tree in enumerate_trees(SIG_GCD, 4):
        assert (cascade_eval(cascade, tree)[cascade.output_flat()] == 1) == (tree.label.name == "c")
    with pytest.raises(ValueError, match="does not chain"):
        Cascade(SIG_GCD, (copy,), (0, 0))


# --- the symbolic compiler against the explicit expansion ----------------------------


def reference_add_layer(expanded: list):
    """The compiler's explicit expansion, kept as the reference: one polynomial
    tuple per annotated letter, each ref read (polarity applied) from the full
    bit vector.  Appends each layer's tuples to ``expanded``."""

    def add_layer(self, width, refs, poly_fn):
        nbits = sum(layer.width for layer in self.layers)
        if nbits + width > self.max_width:
            raise CapExceededError(f"cascade width {nbits + width} exceeds {self.max_width}")

        def read(ref, bits):
            value = bits[sum(layer.width for layer in self.layers[: ref.layer]) + ref.coord] == 1
            return not value if ref.neg else value

        polys = {}
        for letter in self.base.letters:
            for bits in itertools.product((0, 1), repeat=nbits):
                values = [read(ref, bits) for ref in refs]
                polys[ann_name(letter.name, bits)] = tuple(poly_fn(letter, *values))
        expanded.append(polys)
        self.layers.append(explicit_layer(self.base, nbits, width, polys))
        return len(self.layers) - 1

    return add_layer


def expand(layer: Layer) -> dict:
    """Every annotated letter of a layer, with the polynomial tuple it applies."""
    out = {}
    for letter in layer.base.letters:
        for bits in itertools.product((0, 1), repeat=layer.nbits):
            row = int("".join(str(bits[r]) for r in layer.reads) or "0", 2)
            out[ann_name(letter.name, bits)] = layer.table[letter.name][row]
    return out


def test_symbolic_compile_matches_explicit_expansion(monkeypatch):
    compared = 0
    for alphabet, seed in ((SIG_POTT, 41), (SIG_GCD, 43)):
        for formula, _ in random_formula_corpus(seed, alphabet, 100, max_depth=4, max_width=10):
            cascade = ctl_compile(formula, alphabet)
            expanded: list = []
            with monkeypatch.context() as patch:
                patch.setattr(_Compiler, "add_layer", reference_add_layer(expanded))
                reference = ctl_compile(formula, alphabet)
            text = ctl_render(formula)
            assert [expand(layer) for layer in cascade.layers] == expanded, text
            flat, ref_flat = cascade_flatten(cascade), cascade_flatten(reference)
            assert save_dbta(flat) == save_dbta(ref_flat), text
            compared += 1
    assert compared == 200


def test_wide_formulas_read_at_most_two_coordinates():
    pinned = ctl_parse(
        "!E[lbl(f1) U E[lbl(f2) U E[lbl(f1) U E[lbl(f2) U lbl(f0)]]]]", SIG_POTT
    )
    wide = [(pinned, SIG_POTT)]
    for alphabet in (SIG_POTT, SIG_GCD):
        corpus = random_formula_corpus(7, alphabet, 300, max_depth=5)
        wide += [(f, alphabet) for f, cascade in corpus if cascade.total_width == 16]
    assert len(wide) >= 4
    for formula, alphabet in wide:
        cascade = ctl_compile(formula, alphabet)
        assert cascade.total_width == 16
        for layer in cascade.layers:
            assert len(layer.reads) <= 2, ctl_render(formula)
            assert all(len(rows) == 1 << len(layer.reads) <= 4 for rows in layer.table.values())


def test_corpus_rejects_width_cap_below_one():
    with pytest.raises(ValueError):
        random_formula_corpus(0, SIG_POTT, 2, max_width=0)
    assert len(random_formula_corpus(0, SIG_POTT, 3, max_width=1)) == 3
