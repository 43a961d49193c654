"""Seeded checks of the reach-and-fill kernel against full-carrier references.

Each reference below builds the whole carrier (every map, tuple or product of
values) and fills every table cell, the way the constructions did before they
built reached elements only.  Restricting a reference to its reached part must
give exactly the kernel-built automaton: same elements, numbering and tables.
"""

import functools
import itertools
import random

import pytest
from test_acceptance import cascade_step
from test_automata import random_algebra

from treelab import transduce
from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    build,
    eval_term_in_algebra,
    product_algebra,
    reachable,
    reachable_elements,
    with_constants,
)
from treelab.cascade import (
    Cascade,
    Layer,
    SemiPoly,
    ann_name,
    annotated_alphabet,
    cascade_flatten,
    ctl_compile,
    ctl_parse,
    nest,
    random_formula_corpus,
)
from treelab.cli import save_dbta
from treelab.errors import CapExceededError
from treelab.fixtures import ALG_POTT, L_POTT, SIG_GCD, SIG_POTT
from treelab.oracle import sweep_reachable
from treelab.paths import determinize, path_nfa
from treelab.structure import Congruence, all_congruences, lattice_divides, strongly_abelian_check
from treelab.syntactic import divides
from treelab.transduce import (
    Dtop,
    MatrixHom,
    dtop_preimage,
    matrix_power_language,
)
from treelab.trees import Letter, RankedAlphabet, Term, Tree, Var

FGAB = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0))
FG = RankedAlphabet.of(("f", 2), ("g", 1))
OPERATORS = [letter for letter in FGAB.letters if letter.arity]


def random_dbta(rng, alphabet, size):
    accepting = frozenset(e for e in range(size) if rng.random() < 0.5)
    return Dbta(random_algebra(rng, alphabet, size), accepting)


def full_dbta(alphabet, carrier, step, accept, name=None):
    """Every table cell over the full, lexicographically ordered carrier;
    ``name`` names the elements."""
    index = {value: i for i, value in enumerate(carrier)}
    tables = {
        letter.name: tuple(
            index[step(letter.name, combo)]
            for combo in itertools.product(carrier, repeat=letter.arity)
        )
        for letter in alphabet.letters
    }
    names = None if name is None else tuple(map(name, carrier))
    algebra = FiniteAlgebra(alphabet, len(carrier), tables, names)
    return Dbta(algebra, frozenset(i for i, value in enumerate(carrier) if accept(value)))


def naive_restriction(dbta, elements):
    order = sorted(elements)
    old_to_new = {old: new for new, old in enumerate(order)}
    tables = {
        letter.name: tuple(
            old_to_new[dbta.algebra.op(letter.name, args)]
            for args in itertools.product(order, repeat=letter.arity)
        )
        for letter in dbta.alphabet.letters
    }
    names = dbta.algebra.element_names
    names = None if names is None else tuple(names[e] for e in order)
    algebra = FiniteAlgebra(dbta.alphabet, len(order), tables, names)
    return Dbta(algebra, frozenset(old_to_new[e] for e in dbta.accepting if e in elements))


def restricted(full):
    """save_dbta(reachable(full).dbta), computed without the kernel."""
    return save_dbta(naive_restriction(full, frozenset(sweep_reachable(full.algebra))))


def test_reachable_matches_naive_fixpoint():
    rng = random.Random(3)
    for trial in range(150):
        alphabet = FG if trial % 5 == 0 else FGAB
        dbta = random_dbta(rng, alphabet, rng.randint(1, 6))
        elements = frozenset(sweep_reachable(dbta.algebra))
        assert reachable_elements(dbta.algebra) == elements
        result = reachable(dbta)
        assert result.elements == elements
        if elements:
            assert result.dbta == naive_restriction(dbta, elements)
        else:
            assert result.dbta.algebra.size == 1 and not result.dbta.accepting


def random_term(rng, nvars, depth):
    if depth == 0 or rng.random() < 0.4:
        if nvars and rng.random() < 0.7:
            return Var(rng.randint(1, nvars))
        return Tree(rng.choice(FGAB.constants))
    letter = rng.choice(OPERATORS)
    return Tree(letter, tuple(random_term(rng, nvars, depth - 1) for _ in range(letter.arity)))


def random_dtop(rng, n):
    rules = {
        (letter.name, q): Term(n * letter.arity, random_term(rng, n * letter.arity, 2))
        for letter in FGAB.letters
        for q in range(1, n + 1)
    }
    return Dtop(FGAB, FGAB, n, rng.randint(1, n), rules)


def test_preimage_is_restricted_full_fill():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 3)
        dbta = random_dbta(rng, FGAB, rng.randint(1, {1: 6, 2: 4, 3: 2}[n]))
        dtop = random_dtop(rng, n)

        def step(name, combo):
            flat = tuple(v for value in combo for v in value)
            return tuple(
                eval_term_in_algebra(dbta.algebra, dtop.rules[(name, q)], flat)
                for q in range(1, n + 1)
            )

        maps = list(itertools.product(range(dbta.algebra.size), repeat=n))
        full = full_dbta(FGAB, maps, step, lambda m: m[dtop.initial - 1] in dbta.accepting)
        assert save_dbta(dtop_preimage(dbta, dtop)) == restricted(full)


def random_poly(rng, nvars, size, depth):
    if depth == 0 or rng.random() < 0.4:
        if nvars and rng.random() < 0.7:
            return Var(rng.randint(1, nvars))
        if rng.random() < 0.5:
            return Tree(Letter(f"@{rng.randrange(size)}", 0))
        return Tree(rng.choice(FGAB.constants))
    letter = rng.choice(OPERATORS)
    return Tree(letter, tuple(random_poly(rng, nvars, size, depth - 1) for _ in range(letter.arity)))


def test_matrix_power_language_is_restricted_full_fill():
    rng = random.Random(7)
    for _ in range(100):
        size, width = rng.randint(2, 4), rng.randint(1, 3)
        if size**width > 16:
            width -= 1
        base = random_algebra(rng, FGAB, size)
        tuples = {
            letter.name: tuple(
                Term(width * letter.arity, random_poly(rng, width * letter.arity, size, 2))
                for _ in range(width)
            )
            for letter in FGAB.letters
        }
        mh = MatrixHom(base, FGAB, width, tuples)
        extended = with_constants(base)
        carrier = list(itertools.product(range(size), repeat=width))
        accepting = {t for t in carrier if rng.random() < 0.3}

        def step(name, combo):
            flat = tuple(v for value in combo for v in value)
            return tuple(eval_term_in_algebra(extended, t, flat) for t in tuples[name])

        full = full_dbta(FGAB, carrier, step, accepting.__contains__)
        assert save_dbta(matrix_power_language(mh, accepting)) == restricted(full)
    with pytest.raises(ValueError):
        matrix_power_language(mh, {(size,) * width})


def one_child_terms(rng, n, arity, draw):
    """n terms over n * arity flat slots, each over the n slots of one child:
    ``draw(k, depth)`` gives a body over x1..xk, shifted to that child's."""
    return [
        Term(n * arity, shift(draw(n if arity else 0, 2), n * rng.randrange(arity) if arity else 0))
        for _ in range(n)
    ]


def shift(body, offset):
    if isinstance(body, Var):
        return Var(body.index + offset)
    return Tree(body.label, tuple(shift(child, offset) for child in body.children))


def assert_one_evaluation_per_reading(calls, reached, tuples):
    """Each term, counted in ``calls`` by id, was evaluated at most once per
    distinct reading of the slots it names over the argument tuples that
    ``reach`` steps, which is fewer than once per step."""
    bound, work = {}, 0
    for letter in FGAB.letters:
        combos = [sum(args, ()) for args in itertools.product(reached, repeat=letter.arity)]
        work += len(combos) * len(tuples[letter.name])
        for term in tuples[letter.name]:
            slots = sorted({node.index - 1 for node in term.nodes if isinstance(node, Var)})
            bound[id(term)] = len({tuple(flat[i] for i in slots) for flat in combos})
    assert all(calls.get(key, 0) <= most for key, most in bound.items())
    assert sum(calls.values()) <= sum(bound.values()) < work


def test_flattens_evaluate_each_reading_once(monkeypatch):
    # rules and coordinates that each read one child
    calls = {}

    def counted(algebra, term, env):
        calls[id(term)] = calls.get(id(term), 0) + 1
        return eval_term_in_algebra(algebra, term, env)

    monkeypatch.setattr(transduce, "eval_term_in_algebra", counted)
    rng = random.Random(13)
    dbta = random_dbta(rng, FGAB, 4)
    tuples = {
        letter.name: tuple(one_child_terms(rng, 2, letter.arity, functools.partial(random_term, rng)))
        for letter in FGAB.letters
    }
    rules = {(name, q): terms[q - 1] for name, terms in tuples.items() for q in (1, 2)}
    dtop = Dtop(FGAB, FGAB, 2, 1, rules)
    maps = list(itertools.product(range(4), repeat=2))

    def step(name, combo):
        return tuple(eval_term_in_algebra(dbta.algebra, t, sum(combo, ())) for t in tuples[name])

    full = full_dbta(FGAB, maps, step, lambda m: m[0] in dbta.accepting)
    assert save_dbta(dtop_preimage(dbta, dtop)) == restricted(full)
    assert_one_evaluation_per_reading(calls, [maps[e] for e in sweep_reachable(full.algebra)], tuples)

    calls.clear()
    base = random_algebra(rng, FGAB, 3)
    tuples = {
        letter.name: tuple(one_child_terms(
            rng, 2, letter.arity, lambda k, depth: random_poly(rng, k, 3, depth)
        ))
        for letter in FGAB.letters
    }
    mh = MatrixHom(base, FGAB, 2, tuples)
    carrier = list(itertools.product(range(3), repeat=2))

    def step(name, combo):
        return tuple(eval_term_in_algebra(mh.extended, t, sum(combo, ())) for t in tuples[name])

    full = full_dbta(FGAB, carrier, step, lambda t: t == (0, 0))
    assert save_dbta(matrix_power_language(mh, {(0, 0)})) == restricted(full)
    assert_one_evaluation_per_reading(
        calls, [carrier[e] for e in sweep_reachable(full.algebra)], tuples
    )


def random_semipoly(rng, inputs):
    draw = rng.random()
    if draw < 0.2:
        return SemiPoly.const(0)
    if draw < 0.35:
        return SemiPoly.const(1)
    return SemiPoly(False, frozenset(i for i in range(inputs) if rng.random() < 0.5))


def random_cascade(rng, base, total):
    """Layers of width 1-3 up to ``total`` bits, each reading up to two
    earlier bits, with zero, one and random conjunctions."""
    layers, nbits = [], 0
    while nbits < total:
        width = rng.randint(1, min(3, total - nbits))
        reads = tuple(rng.sample(range(nbits), min(nbits, rng.randint(0, 2))))
        table = {
            letter.name: tuple(
                tuple(random_semipoly(rng, width * letter.arity) for _ in range(width))
                for _ in range(1 << len(reads))
            )
            for letter in base.letters
        }
        layers.append(Layer(base, nbits, width, reads, table))
        nbits += width
    at = rng.randrange(len(layers))
    return Cascade(base, tuple(layers), (at, rng.randrange(layers[at].width)))


def test_cascade_flatten_is_restricted_full_fill():
    # every 2^W bit vector stepped by the reference, then restricted: the same
    # elements, numbering, tables, accepting set and element names
    rng = random.Random(17)
    unary = RankedAlphabet.of(("g", 1), ("h", 1), ("a", 0), ("b", 0))
    cascades = [
        cascade
        for seed, alphabet in ((7, SIG_POTT), (8, SIG_GCD), (9, FGAB))
        for _, cascade in random_formula_corpus(seed, alphabet, 16, 4, max_width=6)
    ]
    cascades += [random_cascade(rng, FGAB, rng.randint(1, 5)) for _ in range(12)]
    cascades += [random_cascade(rng, unary, rng.randint(6, 8)) for _ in range(4)]
    for cascade in cascades:
        width, flat = cascade.total_width, cascade.output_flat()
        full = full_dbta(
            cascade.base_alphabet,
            list(itertools.product((0, 1), repeat=width)),
            lambda name, combo: cascade_step(cascade, name, combo),
            lambda value: value[flat] == 1,
            lambda value: "".join(map(str, value)),
        )
        assert save_dbta(cascade_flatten(cascade)) == restricted(full)


def test_nest_is_restricted_full_fill():
    rng = random.Random(11)
    for _ in range(100):
        langs = [random_dbta(rng, FGAB, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        top = random_dbta(rng, annotated_alphabet(FGAB, len(langs)), rng.randint(1, 3))

        def step(name, combo):
            inner = [
                lang.algebra.op(name, [value[i] for value in combo])
                for i, lang in enumerate(langs)
            ]
            bits = tuple(int(inner[i] in lang.accepting) for i, lang in enumerate(langs))
            return (*inner, top.algebra.op(ann_name(name, bits), [value[-1] for value in combo]))

        sizes = [lang.algebra.size for lang in langs] + [top.algebra.size]
        carrier = list(itertools.product(*map(range, sizes)))
        full = full_dbta(FGAB, carrier, step, lambda value: value[-1] in top.accepting)
        assert save_dbta(nest(langs, top)) == restricted(full)


def test_build_cap_and_dead_algebra():
    algebra = random_algebra(random.Random(1), FGAB, 4)
    reached = len(reachable_elements(algebra))
    assert reached > 1
    odd = lambda value: value % 2 == 1
    values, built = build(FGAB, algebra.op, reached, "test carrier", odd)
    assert values == tuple(range(reached)) and built.algebra == algebra
    assert built.accepting == frozenset(range(1, reached, 2))
    with pytest.raises(CapExceededError, match=f"^test carrier exceeds {reached - 1}$"):
        build(FGAB, algebra.op, reached - 1, "test carrier", odd)
    values, dead = build(FG, lambda name, args: 0, 1, "test carrier", lambda value: True)
    assert values == () and dead.algebra.size == 1 and dead.accepting == frozenset()


def test_cap_errors_name_stage_reached_and_cap():
    # the fields beside an unchanged message, at eight of the nine raise sites
    algebra = random_algebra(random.Random(1), FGAB, 4)
    reached = len(reachable_elements(algebra))
    with pytest.raises(CapExceededError) as caught:
        build(FGAB, algebra.op, reached - 1, "test carrier", bool)
    error = caught.value
    assert str(error) == f"test carrier exceeds {reached - 1}"
    assert (error.stage, error.reached, error.cap) == ("test carrier", reached, reached - 1)
    with pytest.raises(CapExceededError) as caught:
        determinize(path_nfa(L_POTT), max_states=1)
    error = caught.value
    assert str(error) == "determinization exceeds 1 states"
    assert (error.stage, error.reached, error.cap) == ("determinization", 2, 1)
    with pytest.raises(CapExceededError) as caught:
        all_congruences(algebra, max_carrier=3)
    error = caught.value
    assert str(error) == "congruence enumeration capped at carrier 3"
    assert (error.stage, error.reached, error.cap) == ("congruence enumeration", 4, 3)
    with pytest.raises(CapExceededError) as caught:
        divides(algebra, algebra, max_carrier=2)
    assert (caught.value.stage, caught.value.reached, caught.value.cap) == ("divides search", 4, 2)
    with pytest.raises(CapExceededError) as caught:
        lattice_divides(algebra, use_polynomial_closure=True, max_carrier=3)
    assert (caught.value.stage, caught.value.reached, caught.value.cap) == ("divides search", 4, 3)
    with pytest.raises(CapExceededError) as caught:
        lattice_divides(ALG_POTT, use_polynomial_closure=True, max_functions=5)
    error = caught.value
    assert str(error) == "binary polynomial generation hit its cap"
    assert (error.stage, error.reached, error.cap) == ("binary polynomial generation", 6, 5)
    # the binary polynomials of depth <= 3 are 27 tables, which a cap of 27 admits
    identity = Congruence.identity(3)
    assert strongly_abelian_check(ALG_POTT, identity, 2, 3, 27).passed_bounded
    with pytest.raises(CapExceededError) as caught:
        strongly_abelian_check(ALG_POTT, identity, 2, 3, 26)
    error = caught.value
    assert str(error) == "arity-2 polynomial generation hit its cap: 27 tables, cap 26"
    assert (error.stage, error.reached, error.cap) == ("arity-2 polynomial generation", 27, 26)
    constants = RankedAlphabet.of(("a", 0))
    big, other = (FiniteAlgebra(constants, size, {"a": (0,)}) for size in (80, 60))
    with pytest.raises(CapExceededError) as caught:
        product_algebra(big, other)
    error = caught.value
    assert str(error) == "product carrier exceeds 4096"
    assert (error.stage, error.reached, error.cap) == ("product carrier", 4800, 4096)
    formula = ctl_parse("X1 X1 lbl(a)", FGAB)
    with pytest.raises(CapExceededError) as caught:
        ctl_compile(formula, FGAB, 1)
    error = caught.value
    assert str(error) == f"cascade width {error.reached} exceeds 1"
    assert error.stage == "cascade width" and error.reached > error.cap == 1
