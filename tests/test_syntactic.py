import itertools
import random

import pytest
from hypothesis import given, settings
from test_acceptance import budget
from test_automata import random_algebra
from test_paths import fgab_dbtas

from treelab.automata import Dbta, FiniteAlgebra, are_equivalent, reachable
from treelab.errors import CapExceededError
from treelab.fixtures import (
    ALG_LATTICE,
    ALG_POTT,
    ALG_SEMILATTICE,
    DBTA_POTT,
    DBTA_POTT_REDUNDANT,
    L_PAIR,
    L_TRUE_AND,
    L_TRUE_OR,
    SIG_AND,
    SIG_GCD,
    SIG_POTT,
)
from treelab.paths import is_universal_path
from treelab.syntactic import (
    _canonical,
    _first_incompatible,
    _quotient_tables,
    _translations,
    divides,
    find_isomorphism,
    syntactic_algebra,
    term_definable,
)
from treelab.trees import RankedAlphabet, render_tree


def test_minimize_pott_redundant_gives_printed_tables():
    result = syntactic_algebra(DBTA_POTT_REDUNDANT)
    assert result.minimal.algebra.size == 3
    minimal = result.minimal
    accepting = (minimal.accepting, DBTA_POTT.accepting)
    assert find_isomorphism(minimal.algebra, DBTA_POTT.algebra, accepting) is not None


def test_minimize_names_each_class_by_its_least_element():
    alphabet = RankedAlphabet.of(("a", 0), ("g", 1))
    algebra = FiniteAlgebra(alphabet, 3, {"a": (0,), "g": (1, 2, 1)}, ("x", "y", "z"))
    result = syntactic_algebra(Dbta(algebra, frozenset({1, 2})))
    assert result.minimal.algebra.element_names == ("x", "y")
    assert result.minimal.algebra.tables == {"a": (0,), "g": (1, 1)}
    assert result.projection == {0: 0, 1: 1, 2: 1}


def test_minimize_full_language_is_one_element():
    full = Dbta(ALG_POTT, frozenset({0, 1, 2}))
    result = syntactic_algebra(full)
    assert result.minimal.algebra.size == 1


def test_minimize_idempotent():
    once = syntactic_algebra(DBTA_POTT_REDUNDANT).minimal
    twice = syntactic_algebra(once).minimal
    accepting = (once.accepting, twice.accepting)
    assert find_isomorphism(once.algebra, twice.algebra, accepting) is not None


@settings(max_examples=40)
@given(fgab_dbtas())
def test_minimize_is_idempotent_on_random_dbtas(dbta):
    # a minimal DBTA is its own syntactic algebra, numbered alike, by the identity
    once = syntactic_algebra(dbta).minimal
    twice = syntactic_algebra(once)
    assert twice.minimal == once
    assert dict(twice.projection) == {e: e for e in range(once.algebra.size)}


def test_minimal_recognises_same_language():
    for dbta in (DBTA_POTT_REDUNDANT, L_PAIR, L_TRUE_OR):
        result = syntactic_algebra(dbta)
        equal, _ = are_equivalent(result.minimal, dbta)
        assert equal


def test_projection_is_homomorphism():
    result = syntactic_algebra(DBTA_POTT_REDUNDANT)
    restricted = reachable(DBTA_POTT_REDUNDANT)
    algebra = restricted.dbta.algebra
    minimal = result.minimal.algebra
    new_to_old = {new: old for old, new in restricted.old_to_new.items()}
    proj = {new: result.projection[new_to_old[new]] for new in range(algebra.size)}
    for letter in algebra.alphabet.letters:
        for args in itertools.product(range(algebra.size), repeat=letter.arity):
            left = proj[algebra.op(letter.name, args)]
            right = minimal.op(letter.name, tuple(proj[a] for a in args))
            assert left == right
    # the projection also matches acceptance
    for new in range(algebra.size):
        assert (new in restricted.dbta.accepting) == (proj[new] in result.minimal.accepting)


def test_minimal_smaller_than_any_corpus_recognizer():
    minimal = syntactic_algebra(DBTA_POTT_REDUNDANT).minimal
    for recognizer in (DBTA_POTT, DBTA_POTT_REDUNDANT):
        restricted = reachable(recognizer).dbta
        assert minimal.algebra.size <= restricted.algebra.size


def test_term_definable_recovers_f1():
    reduct_alphabet = RankedAlphabet.of(("f2", 2), ("f0", 0))
    reduct = FiniteAlgebra(
        reduct_alphabet, 3, {"f0": (0,), "f2": ALG_POTT.tables["f2"]}
    )
    term = term_definable(reduct, ALG_POTT.tables["f1"], 1, 2)
    assert term is not None
    assert render_tree(term.body) == "f2(x1,x1)"


def test_term_definable_projection():
    term = term_definable(ALG_POTT, (0, 1, 2), 1, 2)
    assert term is not None and render_tree(term.body) == "x1"


def test_term_definable_negation_absent_on_semilattice():
    # and/one/zero algebra: all terms are monotone, negation is not
    algebra = FiniteAlgebra(
        SIG_AND, 2, {"and": (0, 0, 0, 1), "one": (1,), "zero": (0,)}
    )
    negation = (1, 0)
    for cap in range(1, 7):
        assert term_definable(algebra, negation, 1, cap) is None


def test_term_definable_result_matches_target():
    reduct_alphabet = RankedAlphabet.of(("f2", 2), ("f0", 0))
    reduct = FiniteAlgebra(reduct_alphabet, 3, {"f0": (0,), "f2": ALG_POTT.tables["f2"]})
    target = ALG_POTT.tables["f1"]
    term = term_definable(reduct, target, 1, 3)
    from treelab.automata import eval_term_in_algebra

    for a in range(3):
        assert eval_term_in_algebra(reduct, term, (a,)) == target[a]


def test_find_isomorphism_detects_renaming():
    renamed = FiniteAlgebra(
        SIG_POTT,
        3,
        {
            # swap elements 0 and 2 of the Pott algebra
            "f0": (2,),
            "f1": (0, 2, 1),
            "f2": tuple(
                {0: 2, 1: 1, 2: 0}[ALG_POTT.op("f2", ({0: 2, 1: 1, 2: 0}[a], {0: 2, 1: 1, 2: 0}[b]))]
                for a in range(3)
                for b in range(3)
            ),
        },
    )
    bijection = find_isomorphism(ALG_POTT, renamed)
    assert bijection is not None
    assert bijection[0] == 2


def test_find_isomorphism_rejects_different():
    assert find_isomorphism(ALG_SEMILATTICE, ALG_SEMILATTICE) is not None
    other = FiniteAlgebra(ALG_SEMILATTICE.alphabet, 2, {"meet": (0, 1, 1, 1)})
    # meet vs join on {0,1}: isomorphic by swapping, so expect a bijection
    assert find_isomorphism(ALG_SEMILATTICE, other) is not None
    constant = FiniteAlgebra(ALG_SEMILATTICE.alphabet, 2, {"meet": (0, 0, 0, 0)})
    assert find_isomorphism(ALG_SEMILATTICE, constant) is None


def brute_isomorphism(a, b, accepting=None):
    """The lexicographically first carrier bijection under which every letter
    table commutes and, with ``accepting``, the accepting sets match, found
    among all permutations; None if there is none."""
    letters = {(x.name, x.arity) for x in a.alphabet.letters}
    if a.size != b.size or letters != {(x.name, x.arity) for x in b.alphabet.letters}:
        return None
    for image in itertools.permutations(range(a.size)):
        if accepting is not None:
            fa, fb = accepting
            if any((e in fa) != (image[e] in fb) for e in range(a.size)):
                continue
        if all(
            image[a.op(x.name, args)] == b.op(x.name, [image[e] for e in args])
            for x in a.alphabet.letters
            for args in a.arg_tuples(x.arity)
        ):
            return image
    return None


def test_find_isomorphism_is_the_first_bijection_of_the_brute_force():
    rng = random.Random(22)
    letters = [("f", 2), ("g", 1), ("c", 0), ("d", 0)]
    found = {"plain": 0, "accepting": 0}
    for trial in range(1000):
        size = rng.randint(1, 5)
        a = random_algebra(rng, RankedAlphabet.of(*letters), size)
        fa = frozenset(e for e in range(size) if rng.random() < 0.5)
        if trial % 2:  # a permuted copy, its accepting set the image of a's or not
            perm = rng.sample(range(size), size)
            back = {image: e for e, image in enumerate(perm)}
            tables = {
                name: tuple(
                    perm[a.op(name, [back[x] for x in args])]
                    for args in itertools.product(range(size), repeat=arity)
                )
                for name, arity in letters
            }
            b = FiniteAlgebra(a.alphabet, size, tables)
            fb = frozenset(perm[e] for e in fa)
        else:
            b = random_algebra(rng, RankedAlphabet.of(*letters), size)
            fb = fa
        if rng.random() < 0.3:
            fb = frozenset(e for e in range(size) if rng.random() < 0.5)
        plain = find_isomorphism(a, b)
        assert plain == brute_isomorphism(a, b), (a, b)
        matched = find_isomorphism(a, b, (fa, fb))
        assert matched == brute_isomorphism(a, b, (fa, fb)), (a, b, fa, fb)
        found["plain"] += plain is not None
        found["accepting"] += matched is not None
    assert 500 <= found["plain"] < 1000 and 250 <= found["accepting"] < found["plain"]


def test_divides_semilattice_in_lattice():
    witness = divides(ALG_SEMILATTICE, ALG_LATTICE)
    assert witness is not None
    assert witness.role_assignment["meet"] in ("meet", "join")


def test_divides_syntactic_into_recognizers():
    minimal = syntactic_algebra(DBTA_POTT_REDUNDANT).minimal.algebra
    for recognizer in (DBTA_POTT, DBTA_POTT_REDUNDANT):
        target = reachable(recognizer).dbta.algebra
        assert divides(minimal, target) is not None


def test_divides_no_matching_arity():
    ternary_alphabet = RankedAlphabet.of(("t", 3),)
    ternary = FiniteAlgebra(
        ternary_alphabet, 3, {"t": tuple(0 for _ in range(27))}
    )
    binary_only = ALG_SEMILATTICE
    assert divides(ternary, binary_only) is None


def test_divides_cap():
    big = FiniteAlgebra(
        RankedAlphabet.of(("u", 1),), 7, {"u": tuple(range(7))}
    )
    with pytest.raises(CapExceededError):
        divides(ALG_SEMILATTICE, big)


def test_divides_witness_reconstructs():
    witness = divides(ALG_SEMILATTICE, ALG_LATTICE)
    # rebuild the quotient from the witness and check isomorphism by hand
    sub = sorted(witness.subuniverse)
    block_of = {}
    for idx, block in enumerate(witness.partition):
        for element in block:
            block_of[element] = idx
    name = witness.role_assignment["meet"]
    for a in sub:
        for b in sub:
            value = ALG_LATTICE.op(name, (a, b))
            assert value in witness.subuniverse


def partitions(items):
    """Every partition of ``items`` into blocks, each exactly once: for each
    partition of the later items, the first item joins each block in turn,
    then a block of its own."""
    out = [[]]
    for first in reversed(items):
        out = [
            part
            for sub in out
            for part in [sub[:i] + [[first] + sub[i]] + sub[i + 1 :] for i in range(len(sub))]
            + [[[first]] + sub]
        ]
    return out


def reference_divides(a, b):
    """The exhaustive division search: every role assignment, every closed
    subset, every partition into a.size blocks that is a congruence, and an
    isomorphism search on each quotient.  True or None."""
    roles = list(a.alphabet.letters)
    candidates = [[l.name for l in b.alphabet.letters if l.arity == role.arity] for role in roles]
    for choice in itertools.product(*candidates):
        for mask in range(1, 1 << b.size):
            order = [e for e in range(b.size) if mask >> e & 1]
            index = {element: i for i, element in enumerate(order)}
            tables = {
                role.name: tuple(
                    index.get(b.op(picked, args), -1)
                    for args in itertools.product(order, repeat=role.arity)
                )
                for role, picked in zip(roles, choice)
            }
            if any(-1 in table for table in tables.values()):
                continue
            sub = FiniteAlgebra(a.alphabet, len(order), tables)
            translations = _translations(sub)
            for blocks in partitions(list(range(len(order)))):
                if len(blocks) != a.size:
                    continue
                classes = [0] * len(order)
                for number, block in enumerate(blocks):
                    for i in block:
                        classes[i] = number
                classes = _canonical(classes)
                if _first_incompatible(translations, classes) is not None:
                    continue
                quotient = FiniteAlgebra(a.alphabet, a.size, _quotient_tables(sub, classes))
                if brute_isomorphism(a, quotient) is not None:
                    return True
    return None


def rebuilt_quotient(a, b, witness):
    """The quotient that a witness names, read off every argument tuple of its
    subuniverse; fails unless the subuniverse is closed under the assigned
    operations and the partition of it is compatible with them."""
    block_of = {e: i for i, block in enumerate(witness.partition) for e in block}
    assert set(block_of) == witness.subuniverse and len(witness.partition) == a.size
    tables = {}
    for role in a.alphabet.letters:
        picked = witness.role_assignment[role.name]
        assert b.alphabet[picked].arity == role.arity
        rows = {}
        for args in itertools.product(sorted(witness.subuniverse), repeat=role.arity):
            value = block_of[b.op(picked, args)]
            assert rows.setdefault(tuple(block_of[x] for x in args), value) == value
        keys = itertools.product(range(a.size), repeat=role.arity)
        tables[role.name] = tuple(map(rows.__getitem__, keys))
    return FiniteAlgebra(a.alphabet, a.size, tables)


MIXED_LETTERS = [("f", 2), ("k", 2), ("g", 1), ("h", 1), ("c", 0), ("d", 0)]


def test_divides_agrees_with_the_exhaustive_search_and_every_witness_rebuilds():
    rng = random.Random(19)
    verdicts = []
    for _ in range(600):
        a_letters = rng.sample(MIXED_LETTERS, rng.randint(1, 3))
        b_letters = rng.sample(MIXED_LETTERS, rng.randint(1, 4))
        a = random_algebra(rng, RankedAlphabet.of(*a_letters), rng.randint(1, 3))
        b = random_algebra(rng, RankedAlphabet.of(*b_letters), rng.randint(1, 5))
        witness = divides(a, b)
        assert (witness is not None) == (reference_divides(a, b) is not None), (a, b)
        if witness is not None:
            assert brute_isomorphism(a, rebuilt_quotient(a, b, witness)) is not None
        verdicts.append(witness is not None)
    assert 100 <= sum(verdicts) <= 500



def test_divides_drops_a_partial_map_that_already_fails():
    # no division: every map of the whole 6-element carrier (6**6 of them) is
    # out, and listing each before checking it took about 40 ms per pair
    rng = random.Random(21)
    letters = [("f", 2), ("g", 1)]
    alphabet = RankedAlphabet.of(*letters)
    pairs = [(random_algebra(rng, alphabet, 6), random_algebra(rng, alphabet, 6)) for _ in range(6)]
    with budget(0.1):
        assert [divides(a, b) for a, b in pairs] == [None] * 6


def test_same_syntactic_core_same_paths_verdicts():
    """Languages with isomorphic syntactic cores and matched accepting images get
    identical downstream verdicts (decision depends only on the syntactic algebra)."""
    # relabel L_PAIR by swapping the two constants
    swapped = Dbta(
        FiniteAlgebra(
            SIG_GCD,
            4,
            {
                "c": (1,),
                "d": (0,),
                "g": L_PAIR.algebra.tables["g"],
            },
            L_PAIR.algebra.element_names,
        ),
        L_PAIR.accepting,
    )
    left = syntactic_algebra(L_PAIR).minimal
    right = syntactic_algebra(swapped).minimal
    assert left.algebra.size == right.algebra.size
    assert is_universal_path(left)[0] == is_universal_path(right)[0]

    # and/or duality: syntactic cores isomorphic with accepting sets matched
    not_or = Dbta(L_TRUE_OR.algebra, frozenset({0}))
    land = syntactic_algebra(L_TRUE_AND).minimal
    lnor = syntactic_algebra(not_or).minimal
    # compare through the letter renaming and <-> or, one <-> zero
    renamed = Dbta(
        FiniteAlgebra(
            SIG_AND,
            lnor.algebra.size,
            {
                "and": lnor.algebra.tables["or"],
                "one": lnor.algebra.tables["zero"],
                "zero": lnor.algebra.tables["one"],
            },
        ),
        lnor.accepting,
    )
    accepting = (land.accepting, renamed.accepting)
    assert find_isomorphism(land.algebra, renamed.algebra, accepting) is not None
    assert is_universal_path(L_TRUE_AND)[0] == is_universal_path(not_or)[0]
