"""Seeded checks of the reach-and-fill kernel against full-carrier references.

Each reference below builds the whole carrier (every map, tuple or product of
values) and fills every table cell, the way the constructions did before they
built reached elements only.  Restricting a reference to its reached part must
give exactly the kernel-built automaton: same elements, numbering and tables.
"""

import itertools
import random

import pytest
from test_automata import random_algebra

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
from treelab.cascade import ann_name, annotated_alphabet, ctl_compile, ctl_parse, nest
from treelab.cli import save_dbta
from treelab.errors import CapExceededError
from treelab.fixtures import ALG_POTT, L_POTT
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


def full_dbta(alphabet, carrier, step, accept):
    """Every table cell over the full, lexicographically ordered carrier."""
    index = {value: i for i, value in enumerate(carrier)}
    tables = {
        letter.name: tuple(
            index[step(letter.name, combo)]
            for combo in itertools.product(carrier, repeat=letter.arity)
        )
        for letter in alphabet.letters
    }
    algebra = FiniteAlgebra(alphabet, len(carrier), tables)
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
    algebra = FiniteAlgebra(dbta.alphabet, len(order), tables)
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
