import itertools

import pytest

from treelab.automata import Dbta, FiniteAlgebra, accepts, are_equivalent, reachable
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
    dbta_isomorphic,
    divides,
    find_isomorphism,
    syntactic_algebra,
    term_definable,
)
from treelab.trees import RankedAlphabet, enumerate_trees, render_term


def test_minimize_pott_redundant_gives_printed_tables():
    result = syntactic_algebra(DBTA_POTT_REDUNDANT)
    assert result.minimal.algebra.size == 3
    assert dbta_isomorphic(result.minimal, DBTA_POTT) is not None


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
    assert dbta_isomorphic(once, twice) is not None


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
    assert render_term(term) == "f2(x1,x1)"


def test_term_definable_projection():
    term = term_definable(ALG_POTT, (0, 1, 2), 1, 2)
    assert term is not None and render_term(term) == "x1"


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
        assert eval_term_in_algebra(reduct, term.body, (a,)) == target[a]


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
    assert dbta_isomorphic(land, renamed) is not None
    assert is_universal_path(L_TRUE_AND)[0] == is_universal_path(not_or)[0]
