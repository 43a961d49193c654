"""Seeded checks of the closure kernel ``automata.reach`` and what runs on it.

The ``old_*`` functions are the earlier forms of ``generate_polynomials``,
``term_definable`` and ``path_nfa``, each with a closure of its own.  The
first two enumerate, every round, each argument tuple over all the tables
found so far and keep those that hold a table of the last round; the last
fills its transitions in a second pass over the reachable carrier (taken
here from the oracle's sweep).  The kernel must give the same tables in the
same order, the same rounds and caps, the same witnesses and equal automata.
"""

import collections
import itertools
import random

from test_automata import random_algebra

from treelab.automata import Dbta, build, reach
from treelab.fixtures import ALG_POTT
from treelab.oracle import sweep_reachable
from treelab.paths import PathNfa, path_nfa
from treelab.structure import PolFunctions, generate_polynomials
from treelab.syntactic import term_definable
from treelab.trees import RankedAlphabet, Term, Tree, Var

SIGNATURES = [
    RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0)),
    RankedAlphabet.of(("f", 2)),
    RankedAlphabet.of(("g", 1), ("k", 1), ("a", 0)),
    RankedAlphabet.of(("h", 3), ("c", 0)),
]


def algebras(seed):
    """One seeded algebra per signature and carrier 1-3."""
    rng = random.Random(seed)
    return [
        random_algebra(rng, alphabet, size) for alphabet in SIGNATURES for size in (1, 2, 3)
    ]


def old_generate_polynomials(algebra, arity, max_functions=20000, max_rounds=None):
    size = algebra.size
    n_points = size**arity
    envs = list(itertools.product(range(size), repeat=arity))
    seen = set()
    ordered = []

    def add(table):
        if table in seen:
            return False
        seen.add(table)
        ordered.append(table)
        return True

    for i in range(arity):
        add(tuple(env[i] for env in envs))
    for constant in range(size):
        add(tuple(constant for _ in range(n_points)))
    capped = False
    rounds = 0
    frontier = list(ordered)
    while frontier:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            capped = True
            rounds -= 1
            break
        new = []
        pool = list(ordered)
        for letter in algebra.alphabet.letters:
            if letter.arity == 0:
                continue
            frontier_set = set(frontier)
            for combo in itertools.product(pool, repeat=letter.arity):
                if not any(part in frontier_set for part in combo):
                    continue
                table = tuple(
                    algebra.op(letter.name, [part[k] for part in combo]) for k in range(n_points)
                )
                if add(table):
                    new.append(table)
                    if len(ordered) > max_functions:
                        return PolFunctions(arity, tuple(ordered), True, rounds)
        frontier = new
    return PolFunctions(arity, tuple(ordered), capped, rounds)


def old_term_definable(algebra, target, arity, depth_cap):
    envs = list(itertools.product(range(algebra.size), repeat=arity))
    goal = tuple(target)
    seen = {}
    by_depth = [[]]

    def consider(body, values, level):
        if values in seen:
            return None
        seen[values] = body
        level.append((body, values))
        return body if values == goal else None

    level1 = []
    for i in range(1, arity + 1):
        hit = consider(Var(i), tuple(env[i - 1] for env in envs), level1)
        if hit is not None:
            return Term(arity, hit)
    for letter in algebra.alphabet.letters:
        if letter.arity != 0:
            continue
        constant = algebra.op(letter.name, ())
        hit = consider(Tree(letter), tuple(constant for _ in envs), level1)
        if hit is not None:
            return Term(arity, hit)
    by_depth.append(level1)
    for depth in range(2, depth_cap + 1):
        level = []
        pool = [entry for lvl in by_depth[1:] for entry in lvl]
        last = set(id(body) for body, _ in by_depth[depth - 1])
        for letter in algebra.alphabet.letters:
            if letter.arity == 0:
                continue
            for combo in itertools.product(pool, repeat=letter.arity):
                if not any(id(body) in last for body, _ in combo):
                    continue
                values = tuple(
                    algebra.op(letter.name, [vals[k] for _, vals in combo])
                    for k in range(len(envs))
                )
                hit = consider(Tree(letter, tuple(b for b, _ in combo)), values, level)
                if hit is not None:
                    return Term(arity, hit)
        by_depth.append(level)
    return None


def old_path_nfa(dbta):
    algebra = dbta.algebra
    elements = frozenset(sweep_reachable(algebra))
    transitions = {}
    for letter in algebra.alphabet.letters:
        if letter.arity == 0:
            continue
        for args in itertools.product(sorted(elements), repeat=letter.arity):
            value = algebra.op(letter.name, args)
            if value not in elements:
                continue
            for i, successor in enumerate(args, start=1):
                transitions.setdefault((value, letter.name, i), set()).add(successor)
    leaf_accept = frozenset(
        (algebra.op(letter.name, ()), letter.name)
        for letter in algebra.alphabet.letters
        if letter.arity == 0
    )
    return PathNfa(
        algebra.alphabet,
        frozenset(dbta.accepting & elements),
        {key: frozenset(value) for key, value in transitions.items()},
        leaf_accept,
    )


def test_generate_polynomials_matches_old():
    cases = 0
    for algebra in algebras(1):
        ternary = algebra.alphabet.letters[0].arity == 3
        for arity in (0, 1, 2):
            for max_functions in (7, 50, 2000):
                for max_rounds in (None, 0, 1, 2, 3):
                    deep = ternary or arity == 2 and max_rounds in (None, 3)
                    if algebra.size == 3 and arity and max_functions > 7 and deep:
                        continue  # thousands of tables: a tenth of a second each
                    args = (algebra, arity, max_functions, max_rounds)
                    assert generate_polynomials(*args) == old_generate_polynomials(*args), args
                    cases += 1
    assert cases == 508


def test_term_definable_matches_old():
    rng = random.Random(2)
    witnesses = 0
    for algebra in algebras(2):
        ternary = algebra.alphabet.letters[0].arity == 3
        for arity in (0, 1, 2):
            points = algebra.size**arity
            targets = list(itertools.product(range(algebra.size), repeat=points))
            for target in rng.sample(targets, min(3, len(targets))):
                for depth_cap in (1, 2, 3):
                    if arity == 2 and depth_cap == 3 and (ternary or algebra.size == 3):
                        continue  # seconds at the old enumeration
                    args = (algebra, target, arity, depth_cap)
                    term = term_definable(*args)
                    assert term == old_term_definable(*args), args
                    witnesses += term is not None
    assert witnesses > 50


def test_path_nfa_matches_old():
    rng = random.Random(3)
    for trial in range(60):
        alphabet = SIGNATURES[trial % len(SIGNATURES)]
        size = rng.randint(1, 3 if alphabet.letters[0].arity == 3 else 8)
        dbta = Dbta(
            random_algebra(rng, alphabet, size),
            frozenset(e for e in range(size) if rng.random() < 0.5),
        )
        assert path_nfa(dbta) == old_path_nfa(dbta)


def test_build_steps_each_tuple_once():
    rng = random.Random(4)
    for trial in range(40):
        algebra = random_algebra(rng, SIGNATURES[trial % len(SIGNATURES)], rng.randint(1, 5))
        stepped = collections.Counter()

        def counting(name, args):
            stepped[name, args] += 1
            return algebra.op(name, args)

        values, _ = build(algebra.alphabet, counting, algebra.size, "test carrier", bool)
        assert set(stepped.values()) <= {1}
        assert set(stepped) == {
            (letter.name, args)
            for letter in algebra.alphabet.letters
            for args in itertools.product(values, repeat=letter.arity)
        }


def test_reach_edge_cases():
    # a goal met by a seed: the projection itself, at depth 1
    assert term_definable(ALG_POTT, (0, 1, 2), 1, 1) == Term(1, Var(1))
    # no round allowed: the seeds, capped, as the old generation reported it
    pol = generate_polynomials(ALG_POTT, 1, max_rounds=0)
    assert pol.tables == ((0, 1, 2), (0, 0, 0), (1, 1, 1), (2, 2, 2))
    assert pol.capped and pol.rounds == 0
    assert pol == old_generate_polynomials(ALG_POTT, 1, max_rounds=0)
    # no constants: no values, and build gives the one-element dead algebra
    no_constants = RankedAlphabet.of(("f", 2), ("g", 1))
    closure = reach(no_constants, lambda name, args: 0, 1)
    assert closure.values == () and closure.rounds == 0 and not closure.capped
    values, dead = build(no_constants, lambda name, args: 0, 1, "test carrier", bool)
    assert values == () and dead.algebra.size == 1
    assert dead.algebra.tables == {"f": (0,), "g": (0,)}
