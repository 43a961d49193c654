import itertools
import random

import pytest

from treelab.automata import Dbta, FiniteAlgebra, product_algebra
from treelab.errors import IncompatiblePartitionError
from treelab.fixtures import (
    ALG_AND,
    ALG_LATTICE,
    ALG_PARITY_POTT,
    ALG_POTT,
    ALG_SEMILATTICE,
    DBTA_POTT,
    L_TRUE_AND,
    L_TRUE_BOOL,
    L_TRUE_OR,
    SIG_POTT,
    corpus_dbta,
)
from treelab.paths import is_universal_path
from treelab.structure import (
    Congruence,
    all_congruences,
    and_pairs,
    generate_polynomials,
    is_compatible,
    is_minimal_palfy,
    lattice_divides,
    minimal_nontrivial_congruences,
    or_pairs,
    orpair_separation,
    principal_congruence,
    quotient,
    strongly_abelian_check,
)
from treelab.syntactic import (
    _all_translations,
    _coarsest_refinement,
    _partitions,
    find_isomorphism,
    syntactic_algebra,
)
from treelab.trees import RankedAlphabet


def test_principal_congruence_two_element_semilattice():
    cong = principal_congruence(ALG_SEMILATTICE, 0, 1)
    assert cong.is_full()


def test_principal_congruence_pott_collapses_all():
    cong = principal_congruence(ALG_POTT, 0, 1)
    # f2(0,0)=1 vs f2(0,1)=bot forces 1 ~ bot, so everything merges
    assert cong.is_full()


def test_principal_congruence_reflexive_pair_is_identity():
    cong = principal_congruence(ALG_POTT, 1, 1)
    assert cong.is_identity()


def test_principal_congruences_are_compatible_and_least():
    for algebra in (ALG_POTT, ALG_AND, ALG_SEMILATTICE):
        congruences = all_congruences(algebra)
        for a in range(algebra.size):
            for b in range(a + 1, algebra.size):
                principal = principal_congruence(algebra, a, b)
                assert is_compatible(algebra, principal)
                for other in congruences:
                    if other.relates(a, b):
                        assert principal.refines(other)


def test_all_congruences_one_element():
    one = FiniteAlgebra(RankedAlphabet.of(("c", 0)), 1, {"c": (0,)})
    congruences = all_congruences(one)
    assert len(congruences) == 1
    assert congruences[0].is_identity() and congruences[0].is_full()


def test_all_congruences_semilattice():
    congruences = all_congruences(ALG_SEMILATTICE)
    assert len(congruences) == 2
    assert any(c.is_identity() for c in congruences)
    assert any(c.is_full() for c in congruences)
    assert [c for c in minimal_nontrivial_congruences(ALG_SEMILATTICE)] == [
        Congruence.full(2)
    ]


def test_all_congruences_pott():
    congruences = all_congruences(ALG_POTT)
    assert all(is_compatible(ALG_POTT, c) for c in congruences)
    minimal = minimal_nontrivial_congruences(ALG_POTT)
    principals = {
        principal_congruence(ALG_POTT, a, b)
        for a in range(3)
        for b in range(a + 1, 3)
    }
    assert (len(minimal) > 0) == any(not c.is_full() or True for c in principals)
    # every congruence is a join of principal ones: sanity via brute force
    for cong in congruences:
        if cong.is_identity():
            continue
        assert any(p.refines(cong) for p in principals)


def test_quotient_identity_is_isomorphic():
    q = quotient(ALG_POTT, Congruence.identity(3))
    assert find_isomorphism(ALG_POTT, q) is not None


def test_quotient_full_is_one_element():
    q = quotient(ALG_POTT, Congruence.full(3))
    assert q.size == 1


def test_quotient_product_by_first_kernel():
    product = product_algebra(ALG_POTT, ALG_PARITY_POTT)
    kernel = Congruence.from_blocks(6, [{0, 1}, {2, 3}, {4, 5}])
    q = quotient(product, kernel)
    assert find_isomorphism(q, ALG_POTT) is not None


def test_quotient_rejects_incompatible():
    with pytest.raises(IncompatiblePartitionError):
        quotient(ALG_POTT, Congruence.from_blocks(3, [{0, 1}, {2}]))


def test_generate_polynomials_semilattice_unary():
    pol1 = generate_polynomials(ALG_SEMILATTICE, 1)
    assert not pol1.capped
    assert set(pol1.tables) == {(0, 1), (0, 0), (1, 1)}  # id, const0, const1


def test_generate_polynomials_projections_present():
    for algebra in (ALG_POTT, ALG_AND):
        pol2 = generate_polynomials(algebra, 2, max_functions=5000)
        size = algebra.size
        proj1 = tuple(a for a in range(size) for _ in range(size))
        proj2 = tuple(b for _ in range(size) for b in range(size))
        assert proj1 in pol2 and proj2 in pol2


def test_generate_polynomials_pott_contains_f1():
    pol1 = generate_polynomials(ALG_POTT, 1)
    assert ALG_POTT.tables["f1"] in pol1  # x -> f2(x, x)


def test_generate_polynomials_closed_at_fixpoint():
    pol1 = generate_polynomials(ALG_SEMILATTICE, 1)
    tables = set(pol1.tables)
    for f in pol1.tables:
        for g in pol1.tables:
            composed = tuple(
                ALG_SEMILATTICE.op("meet", (f[x], g[x])) for x in range(2)
            )
            assert composed in tables


def test_is_minimal_palfy():
    assert is_minimal_palfy(ALG_SEMILATTICE)
    assert not is_minimal_palfy(ALG_POTT)  # x -> f2(x, 0) is neither constant nor bijective
    one = FiniteAlgebra(RankedAlphabet.of(("c", 0)), 1, {"c": (0,)})
    assert is_minimal_palfy(one)


def test_pott_palfy_witness_table_exists():
    pol1 = generate_polynomials(ALG_POTT, 1)
    # x -> f2(x, 0): 0->1, 1->bot, bot->bot
    assert (1, 2, 2) in pol1


def test_or_pairs_true_or_syntactic():
    algebra = syntactic_algebra(L_TRUE_OR).minimal.algebra
    report = or_pairs(algebra)
    assert not report.capped
    pairs = {(a0, a1) for a0, a1, _ in report.pairs}
    assert len(pairs) >= 1
    # verify the four restriction equations on every returned witness
    size = algebra.size
    for a0, a1, table in report.pairs:
        assert table[a0 * size + a0] == a0
        assert table[a0 * size + a1] == a1
        assert table[a1 * size + a0] == a1
        assert table[a1 * size + a1] == a1


def test_or_pairs_semilattice_relabelling():
    report = or_pairs(ALG_SEMILATTICE)
    assert (1, 0) in {(a0, a1) for a0, a1, _ in report.pairs}  # meet acts like join after swap
    and_report = and_pairs(ALG_SEMILATTICE)
    assert (0, 1) in {(a0, a1) for a0, a1, _ in and_report.pairs}


def test_or_pairs_one_element_none():
    one = FiniteAlgebra(RankedAlphabet.of(("c", 0)), 1, {"c": (0,)})
    assert or_pairs(one).pairs == ()


def test_strongly_abelian_semilattice_violated():
    verdict = strongly_abelian_check(ALG_SEMILATTICE, Congruence.full(2))
    assert not verdict.passed_bounded
    violation = verdict.violation
    size = ALG_SEMILATTICE.size

    def apply(table, args):
        index = 0
        for arg in args:
            index = index * size + arg
        return table[index]

    # the witness is genuine: premise holds, conclusion fails
    assert apply(violation.table, violation.left) == apply(violation.table, violation.right)
    assert apply(violation.table, (violation.left[0],) + violation.tail) != apply(
        violation.table, (violation.right[0],) + violation.tail
    )


def test_strongly_abelian_unary_only_passes():
    unary = FiniteAlgebra(
        RankedAlphabet.of(("u", 1), ("v", 1)), 3, {"u": (1, 2, 0), "v": (0, 0, 1)}
    )
    verdict = strongly_abelian_check(unary, Congruence.full(3))
    assert verdict.passed_bounded


def test_strongly_abelian_identity_congruence_passes():
    verdict = strongly_abelian_check(ALG_SEMILATTICE, Congruence.identity(2))
    assert verdict.passed_bounded
    verdict = strongly_abelian_check(ALG_POTT, Congruence.identity(3))
    assert verdict.passed_bounded


def test_lattice_divides_lattice_itself():
    assert lattice_divides(ALG_LATTICE) is not None


def test_lattice_divides_raw_semilattice_false():
    assert lattice_divides(ALG_SEMILATTICE) is None


def test_lattice_divides_pott_regression():
    # regression values from the exhaustive search
    assert lattice_divides(ALG_POTT) is None
    assert lattice_divides(ALG_POTT, use_polynomial_closure=True) is None


def test_lattice_divides_witness_reconstructs():
    witness = lattice_divides(ALG_LATTICE)
    sub = sorted(witness.subuniverse)
    block_of = {}
    for idx, block in enumerate(witness.partition):
        for element in block:
            block_of[element] = idx
    tables = {}
    for role in ("join", "meet"):
        picked = witness.role_assignment[role]
        rows = {}
        for a in sub:
            for b in sub:
                key = (block_of[a], block_of[b])
                value = block_of[ALG_LATTICE.op(picked, (a, b))]
                assert rows.setdefault(key, value) == value
        tables[role] = tuple(
            rows[key] for key in itertools.product(range(2), repeat=2)
        )
    rebuilt = FiniteAlgebra(ALG_LATTICE.alphabet, 2, tables)
    assert find_isomorphism(ALG_LATTICE, rebuilt) is not None


def test_lattice_divides_true_bool_syntactic():
    # the true-Boolean-formula language has the lattice inside its syntactic algebra
    algebra = syntactic_algebra(L_TRUE_BOOL).minimal.algebra
    assert lattice_divides(algebra) is not None


def test_path_language_corpus_not_divided_by_lattice():
    """Consistency with the congruence-type screen: a universal path corpus
    language's syntactic algebra is never divided by the two-element lattice."""
    for name in ("l_true_and", "l_pott", "l_pair", "l_root_g", "l_even", "l_line_even"):
        dbta = corpus_dbta(name)
        assert is_universal_path(dbta)[0], name
        algebra = syntactic_algebra(dbta).minimal.algebra
        assert lattice_divides(algebra) is None, name
        assert lattice_divides(algebra, use_polynomial_closure=True) is None, name


def test_orpair_separation_true_and_all_separable():
    report = orpair_separation(syntactic_algebra(L_TRUE_AND).minimal)
    assert report.all_separable


def test_orpair_separation_true_bool_inseparable():
    report = orpair_separation(syntactic_algebra(L_TRUE_BOOL).minimal)
    assert len(report.inseparable()) >= 1


def test_orpair_separation_no_pairs_vacuous():
    full = Dbta(ALG_POTT, frozenset({0, 1, 2}))
    report = orpair_separation(syntactic_algebra(full).minimal)
    assert report.entries == ()
    assert report.all_separable


# --- the congruence engine against the sweeps it replaced -------------------------
#
# The ``sweep_*`` functions are the earlier forms of principal congruences,
# coarsest refinement, compatibility and quotients, which swept every argument
# tuple instead of the table of basic translations.  They are kept as
# references: on random algebras both forms must give equal results.


def sweep_principal_congruence(algebra, a, b):
    parent = list(range(algebra.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[rx] = ry
        return True

    union(a, b)
    changed = True
    while changed:
        changed = False
        for letter in algebra.alphabet.letters:
            arity = letter.arity
            if arity == 0:
                continue
            for args in itertools.product(range(algebra.size), repeat=arity):
                for position in range(arity):
                    for other in range(algebra.size):
                        if other <= args[position] or find(other) != find(args[position]):
                            continue
                        swapped = args[:position] + (other,) + args[position + 1 :]
                        if union(
                            algebra.op(letter.name, args),
                            algebra.op(letter.name, swapped),
                        ):
                            changed = True
    groups = {}
    for element in range(algebra.size):
        groups.setdefault(find(element), set()).add(element)
    return Congruence.from_blocks(algebra.size, groups.values())


def sweep_refine_partition(algebra, initial):
    size = algebra.size
    classes = list(initial)
    while True:
        signatures = []
        for element in range(size):
            sig = [classes[element]]
            for letter in algebra.alphabet.letters:
                arity = letter.arity
                if arity == 0:
                    continue
                for position in range(arity):
                    for others in itertools.product(range(size), repeat=arity - 1):
                        args = others[:position] + (element,) + others[position:]
                        sig.append(classes[algebra.op(letter.name, args)])
            signatures.append(tuple(sig))
        remap = {}
        new_classes = []
        for sig in signatures:
            if sig not in remap:
                remap[sig] = len(remap)
            new_classes.append(remap[sig])
        if new_classes == classes:
            return classes
        classes = new_classes


def sweep_is_compatible(algebra, congruence):
    classes = congruence.class_of()
    for letter in algebra.alphabet.letters:
        for args in itertools.product(range(algebra.size), repeat=letter.arity):
            for position in range(letter.arity):
                block = congruence.blocks[classes[args[position]]]
                base = classes[algebra.op(letter.name, args)]
                for other in block:
                    swapped = args[:position] + (other,) + args[position + 1 :]
                    if classes[algebra.op(letter.name, swapped)] != base:
                        return False
    return True


def sweep_quotient(algebra, congruence):
    classes = congruence.class_of()
    tables = {}
    for letter in algebra.alphabet.letters:
        rows = {}
        for args in itertools.product(range(algebra.size), repeat=letter.arity):
            key = tuple(classes[arg] for arg in args)
            value = classes[algebra.op(letter.name, args)]
            previous = rows.setdefault(key, value)
            if previous != value:
                raise IncompatiblePartitionError(
                    f"partition is not compatible with {letter.name}"
                )
        tables[letter.name] = tuple(
            rows[key]
            for key in itertools.product(range(len(congruence.blocks)), repeat=letter.arity)
        )
    return FiniteAlgebra(algebra.alphabet, len(congruence.blocks), tables)


# (signature, largest carrier of the random bulk, largest carrier overall): the
# bulk draws 75 carriers per signature, then each larger carrier runs once; the
# ternary signature stops at 4: its all-pairs sweep takes ~30 ms at 5, ~200 ms at 7
ENGINE_CASES = (
    (RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0)), 3, 7),
    (RankedAlphabet.of(("f", 2), ("g", 1)), 3, 7),
    (RankedAlphabet.of(("h", 3), ("c", 0)), 3, 4),
    (RankedAlphabet.of(("g", 1), ("k", 1), ("a", 0)), 4, 7),
)


def _quotient_or_error(quotient_fn, algebra, congruence):
    try:
        return quotient_fn(algebra, congruence)
    except IncompatiblePartitionError as exc:
        return str(exc)


def test_congruence_engine_matches_the_sweeps():
    rng = random.Random(1703)
    cases = [
        (alphabet, rng.randint(1, bulk)) for alphabet, bulk, _ in ENGINE_CASES for _ in range(75)
    ]
    cases += [
        (alphabet, size)
        for alphabet, bulk, largest in ENGINE_CASES
        for size in range(bulk + 1, largest + 1)
    ]
    for alphabet, size in cases:
        algebra = FiniteAlgebra(alphabet, size, {
            letter.name: tuple(rng.randrange(size) for _ in range(size**letter.arity))
            for letter in alphabet.letters
        })
        principals = [Congruence.identity(size)]
        for a in range(size):
            for b in range(a + 1, size):
                principal = principal_congruence(algebra, a, b)
                assert principal == sweep_principal_congruence(algebra, a, b)
                principals.append(principal)
        initial = [rng.randrange(3) for _ in range(size)]
        assert _coarsest_refinement(_all_translations(algebra), initial) == (
            sweep_refine_partition(algebra, initial)
        )
        labels = [rng.randrange(rng.randint(1, size)) for _ in range(size)]
        for partition in (rng.choice(principals), Congruence.from_classes(labels)):
            assert is_compatible(algebra, partition) == sweep_is_compatible(algebra, partition)
            assert _quotient_or_error(quotient, algebra, partition) == (
                _quotient_or_error(sweep_quotient, algebra, partition)
            )
        if size <= 4:
            every = (Congruence.from_blocks(size, b) for b in _partitions(list(range(size))))
            lattice = {c for c in every if sweep_is_compatible(algebra, c)}
            assert set(all_congruences(algebra)) == lattice
