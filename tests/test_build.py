"""Seeded checks of the reach-and-fill kernel against full-carrier references.

Each reference below builds the whole carrier (every map, tuple or product of
values) and fills every table cell, the way the constructions did before they
built reached elements only.  Restricting a reference to its reached part must
give exactly the kernel-built automaton: same elements, numbering and tables.
"""

import itertools
import random

import pytest

from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    build,
    eval_term_in_algebra,
    reachable,
    reachable_elements,
)
from treelab.cascade import ann_name, annotated_alphabet, nest
from treelab.cli import save_dbta
from treelab.errors import CapExceededError
from treelab.transduce import (
    Dtop,
    MatrixHom,
    PApp,
    PConst,
    PolyTerm,
    PVar,
    dtop_preimage,
    eval_polyterm,
    matrix_power_language,
)
from treelab.trees import RankedAlphabet, Term, TermNode, Var

FGAB = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0))
FG = RankedAlphabet.of(("f", 2), ("g", 1))
OPERATORS = [letter for letter in FGAB.letters if letter.arity]


def random_algebra(rng, alphabet, size):
    tables = {
        letter.name: tuple(rng.randrange(size) for _ in range(size**letter.arity))
        for letter in alphabet.letters
    }
    return FiniteAlgebra(alphabet, size, tables)


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


def naive_reachable(algebra):
    known = set()
    changed = True
    while changed:
        changed = False
        for letter in algebra.alphabet.letters:
            for args in itertools.product(sorted(known), repeat=letter.arity):
                value = algebra.op(letter.name, args)
                if value not in known:
                    known.add(value)
                    changed = True
    return frozenset(known)


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
    return save_dbta(naive_restriction(full, naive_reachable(full.algebra)))


def test_reachable_matches_naive_fixpoint():
    rng = random.Random(3)
    for trial in range(150):
        alphabet = FG if trial % 5 == 0 else FGAB
        dbta = random_dbta(rng, alphabet, rng.randint(1, 6))
        elements = naive_reachable(dbta.algebra)
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
        return TermNode(rng.choice(FGAB.constants))
    letter = rng.choice(OPERATORS)
    return TermNode(letter, tuple(random_term(rng, nvars, depth - 1) for _ in range(letter.arity)))


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
                eval_term_in_algebra(dbta.algebra, dtop.rules[(name, q)].body, flat)
                for q in range(1, n + 1)
            )

        maps = list(itertools.product(range(dbta.algebra.size), repeat=n))
        full = full_dbta(FGAB, maps, step, lambda m: m[dtop.initial - 1] in dbta.accepting)
        assert save_dbta(dtop_preimage(dbta, dtop)) == restricted(full)


def random_poly(rng, nvars, size, depth):
    if depth == 0 or rng.random() < 0.4:
        if nvars and rng.random() < 0.7:
            return PVar(rng.randint(1, nvars))
        if rng.random() < 0.5:
            return PConst(rng.randrange(size))
        return PApp(rng.choice(FGAB.constants).name)
    letter = rng.choice(OPERATORS)
    return PApp(letter.name, tuple(random_poly(rng, nvars, size, depth - 1) for _ in range(letter.arity)))


def test_matrix_power_language_is_restricted_full_fill():
    rng = random.Random(7)
    for _ in range(100):
        size, width = rng.randint(2, 4), rng.randint(1, 3)
        if size**width > 16:
            width -= 1
        base = random_algebra(rng, FGAB, size)
        tuples = {
            letter.name: tuple(
                PolyTerm(width * letter.arity, random_poly(rng, width * letter.arity, size, 2))
                for _ in range(width)
            )
            for letter in FGAB.letters
        }
        mh = MatrixHom(base, FGAB, width, tuples)
        carrier = list(itertools.product(range(size), repeat=width))
        accepting = {t for t in carrier if rng.random() < 0.3}

        def step(name, combo):
            flat = tuple(v for value in combo for v in value)
            return tuple(eval_polyterm(base, pt, flat) for pt in tuples[name])

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
    values, built = build(FGAB, algebra.op, reached, "test carrier")
    assert values == tuple(range(reached)) and built == algebra
    with pytest.raises(CapExceededError, match=f"^test carrier exceeds {reached - 1}$"):
        build(FGAB, algebra.op, reached - 1, "test carrier")
    values, algebra = build(FG, lambda name, args: 0, 1, "test carrier")
    assert values == () and algebra.size == 1
