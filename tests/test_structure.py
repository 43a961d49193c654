import collections
import itertools
import random

import pytest
from test_automata import random_algebra
from test_syntactic import partitions

from treelab import structure
from treelab.automata import DEFAULT_CARRIER_CAP, Dbta, FiniteAlgebra, product_algebra, reach
from treelab.errors import CapExceededError, IncompatiblePartitionError
from treelab.fixtures import (
    ALG_AND,
    ALG_LATTICE,
    ALG_PARITY_POTT,
    ALG_POTT,
    ALG_SEMILATTICE,
    L_TRUE_AND,
    L_TRUE_BOOL,
    L_TRUE_OR,
    corpus_dbta,
)
from treelab.paths import is_universal_path
from treelab.structure import (
    AbelianVerdict,
    AbelianViolation,
    Congruence,
    PairReport,
    all_congruences,
    and_pairs,
    blocks_key,
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
    _clone,
    _coarsest_refinement,
    find_isomorphism,
    syntactic_algebra,
)
from treelab.trees import RankedAlphabet


def test_principal_congruence_two_element_semilattice():
    cong = principal_congruence(ALG_SEMILATTICE, 0, 1)
    assert cong == Congruence.full(2)


def test_principal_congruence_pott_collapses_all():
    cong = principal_congruence(ALG_POTT, 0, 1)
    # f2(0,0)=1 vs f2(0,1)=bot forces 1 ~ bot, so everything merges
    assert cong == Congruence.full(3)


def test_principal_congruence_reflexive_pair_is_identity():
    cong = principal_congruence(ALG_POTT, 1, 1)
    assert cong == Congruence.identity(3)


def test_principal_congruences_are_compatible_and_least():
    for algebra in (ALG_POTT, ALG_AND, ALG_SEMILATTICE):
        congruences = all_congruences(algebra)
        for a in range(algebra.size):
            for b in range(a + 1, algebra.size):
                principal = principal_congruence(algebra, a, b)
                assert is_compatible(algebra, principal)
                for other in congruences:
                    if other.classes[a] == other.classes[b]:
                        assert principal.refines(other)


def test_all_congruences_one_element():
    one = FiniteAlgebra(RankedAlphabet.of(("c", 0)), 1, {"c": (0,)})
    congruences = all_congruences(one)
    assert len(congruences) == 1
    assert congruences == [Congruence.identity(1)] == [Congruence.full(1)]


def test_all_congruences_semilattice():
    congruences = all_congruences(ALG_SEMILATTICE)
    assert len(congruences) == 2
    assert Congruence.identity(2) in congruences
    assert Congruence.full(2) in congruences
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
    assert (len(minimal) > 0) == (len(principals) > 0)
    # every congruence is a join of principal ones: sanity via brute force
    for cong in congruences:
        if cong == Congruence.identity(3):
            continue
        assert any(p.refines(cong) for p in principals)


def test_congruence_sorts_are_total():
    # over a constant alone every partition is a congruence: 15 on 4 elements
    algebra = FiniteAlgebra(RankedAlphabet.of(("c", 0)), 4, {"c": (0,)})
    congruences = all_congruences(algebra)
    assert len({blocks_key(c) for c in congruences}) == len(congruences) == 15
    assert sorted(congruences, key=blocks_key) == sorted(congruences[::-1], key=blocks_key)

    def render(c):
        return ";".join(",".join(map(str, sorted(block))) for block in c.blocks)

    assert [render(c) for c in congruences] == [
        "0,1,2,3", "0;1,2,3", "0,2;1,3", "0,3;1,2", "0,2,3;1", "0,1;2,3", "0,1,3;2",
        "0,1,2;3", "0;1;2,3", "0;1,3;2", "0,3;1;2", "0;1,2;3", "0,2;1;3", "0,1;2;3",
        "0;1;2;3",
    ]
    assert [render(c) for c in minimal_nontrivial_congruences(algebra)] == [
        "0;1;2,3", "0;1,2;3", "0;1,3;2", "0,1;2;3", "0,2;1;3", "0,3;1;2",
    ]
    # a proper subset comes before its superset at the first block that differs
    small = Congruence.from_blocks(5, [{0, 3}, {1, 2, 4}])
    large = Congruence.from_blocks(5, [{0, 2, 3}, {1, 4}])
    assert blocks_key(small) < blocks_key(large)


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
    # that polynomial is the sixth generated, so a cap of six functions settles it
    assert not is_minimal_palfy(ALG_POTT, max_functions=6)
    with pytest.raises(CapExceededError):
        is_minimal_palfy(ALG_POTT, max_functions=4)
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


def test_lattice_divides_checks_its_carrier_cap_before_generating_polynomials(monkeypatch):
    def generate(*args):
        raise AssertionError("polynomials generated past the carrier cap")

    monkeypatch.setattr(structure, "generate_polynomials", generate)
    seven = FiniteAlgebra(RankedAlphabet.of(("f", 2)), 7, {"f": (0,) * 49})
    with pytest.raises(CapExceededError, match="^divides search capped at carrier 6$"):
        lattice_divides(seven, use_polynomial_closure=True)


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
    assert any(not entry.separable for entry in report.entries)


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
    classes = congruence.classes
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
    classes = congruence.classes
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
            every = (Congruence.from_blocks(size, b) for b in partitions(list(range(size))))
            lattice = {c for c in every if sweep_is_compatible(algebra, c)}
            assert set(all_congruences(algebra)) == lattice


# --- pair checks and the lattice against the forms they replaced -----------------
#
# ``scan_pairs`` is the earlier pair check: it generated the whole binary clone
# and scanned four entries of each table per pair.  ``worklist_congruences`` is
# the earlier lattice enumeration, a hand-written worklist of joins with the
# principal congruences.  Both are kept as references.

FGA = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0))
FGAB = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0))
PATTERNS = (
    (or_pairs, lambda a0, a1: (a0, a1, a1, a1)),
    (and_pairs, lambda a0, a1: (a0, a0, a0, a1)),
)


def four_points(table, size, a0, a1):
    return tuple(table[x * size + y] for x in (a0, a1) for y in (a0, a1))


def scan_pairs(algebra, tables, pattern):
    """The ordered pairs on which some table of ``tables`` restricts to the pattern."""
    return [
        (a0, a1)
        for a0, a1 in itertools.permutations(range(algebra.size), 2)
        if any(four_points(table, algebra.size, a0, a1) == pattern(a0, a1) for table in tables)
    ]


def assert_pairs_match_the_scan(algebra):
    pol2 = generate_polynomials(algebra, 2)
    assert not pol2.capped
    for check, pattern in PATTERNS:
        report = check(algebra)
        assert not report.capped
        assert [(a0, a1) for a0, a1, _ in report.pairs] == scan_pairs(algebra, pol2.tables, pattern)
        for a0, a1, table in report.pairs:  # each witness is a binary polynomial with the pattern
            assert table in pol2 and four_points(table, algebra.size, a0, a1) == pattern(a0, a1)


def test_pairs_match_the_full_clone_scan_on_every_two_element_algebra():
    for f, g, a in itertools.product(
        itertools.product(range(2), repeat=4), itertools.product(range(2), repeat=2), range(2)
    ):
        assert_pairs_match_the_scan(FiniteAlgebra(FGA, 2, {"f": f, "g": g, "a": (a,)}))


def test_pairs_match_the_full_clone_scan_on_three_elements():
    # seeds whose binary clone has under 2,000 tables (89, 225 and 333), so the
    # scan finishes; most seeds give all 3**9 tables
    for seed in (16, 22, 36):
        assert_pairs_match_the_scan(random_algebra(random.Random(seed), FGAB, 3))


def test_pairs_are_exact_where_the_full_clone_scan_was_capped():
    # the full binary clone runs to 4**16 tables and more; the pair checks close
    # at most size**4 values per pair, under the carrier cap
    for size in (4, 5, 6):
        algebra = random_algebra(random.Random(size), FGAB, size)
        pol2 = generate_polynomials(algebra, 2, max_functions=2000)
        assert pol2.capped
        for check, pattern in PATTERNS:
            report = check(algebra)
            assert not report.capped
            pairs = [(a0, a1) for a0, a1, _ in report.pairs]
            assert set(scan_pairs(algebra, pol2.tables, pattern)) <= set(pairs)
            for a0, a1, table in report.pairs:
                assert len(table) == size**2
                assert four_points(table, size, a0, a1) == pattern(a0, a1)


def ordered_pair_closures(algebra, pattern):
    """The form the pair checks had before one closure served both orders of
    a pair: per ordered pair, ``reach`` over the binary polynomials restricted
    to its four points, up to the pattern; a hit is replayed over all points."""
    size, found, capped = algebra.size, [], False
    projections, step = _clone(algebra, list(algebra.arg_tuples(2)))
    tables = projections + [(c,) * size**2 for c in range(size)]
    make = lambda letter, args: step(letter.name, args)
    for a0, a1 in itertools.permutations(range(size), 2):
        seeds, four_step = _clone(algebra, list(itertools.product((a0, a1), repeat=2)))
        seeds += [(c,) * 4 for c in range(size)]
        closure = reach(
            algebra.alphabet, four_step, DEFAULT_CARRIER_CAP, seeds, pattern(a0, a1).__eq__
        )
        if closure.hit is not None:
            found.append((a0, a1, closure.replay(closure.hit, dict(zip(seeds, tables)), make)))
        capped = capped or (closure.capped and closure.hit is None)
    return PairReport(tuple(found), capped)


def assert_pairs_match_the_ordered_closures(algebra):
    ors, ands = or_pairs(algebra), and_pairs(algebra)
    for report, (_, pattern) in zip((ors, ands), PATTERNS):
        assert report == ordered_pair_closures(algebra, pattern)
    mirror = tuple(sorted((a1, a0, table) for a0, a1, table in ors.pairs))
    assert ands == PairReport(mirror, ors.capped)
    return ors


FG = RankedAlphabet.of(("f", 2), ("g", 1))


def two_valued_algebra(rng, size):
    """f and g take values in one random 2-set: small four-point clones, so
    carriers up to 8 close in milliseconds, with or-pairs only inside it."""
    image = rng.sample(range(size), min(2, size))
    return FiniteAlgebra(FG, size, {
        "f": tuple(rng.choice(image) for _ in range(size * size)),
        "g": tuple(rng.choice(image) for _ in range(size)),
    })


def test_pairs_match_one_closure_per_ordered_pair():
    rng = random.Random(6)
    counts = [
        len(assert_pairs_match_the_ordered_closures(two_valued_algebra(rng, size)).pairs)
        for size in range(2, 9)
    ]
    assert counts == [2, 1, 2, 0, 2, 2, 0]  # at carrier 3, (a0, a1) is an or-pair but (a1, a0) not
    for seed in range(6):  # random tables: some pairs at carrier 2, all six at 3
        for size in (2, 3):
            assert_pairs_match_the_ordered_closures(random_algebra(random.Random(seed), FGAB, size))


@pytest.mark.parametrize("odd", ["j", "m"])
def test_pairs_match_one_closure_per_ordered_pair_where_capped(odd):
    # max and min on the chain 0 < ... < 9, but on {8, 9} j is min too (or m is
    # max too): j and m settle every pair in round 1 except (8, 9), whose join
    # (or meet) is left to r.  r comes first, so that closure fills up fast,
    # here past the carrier cap
    cells = list(itertools.product(range(10), repeat=2))
    rng, swap = random.Random(4), lambda letter, x, y: odd == letter and {x, y} == {8, 9}
    algebra = FiniteAlgebra(RankedAlphabet.of(("r", 2), ("j", 2), ("m", 2)), 10, {
        "r": tuple(rng.randrange(10) for _ in cells),
        "j": tuple(min(x, y) if swap("j", x, y) else max(x, y) for x, y in cells),
        "m": tuple(max(x, y) if swap("m", x, y) else min(x, y) for x, y in cells),
    })
    ors = assert_pairs_match_the_ordered_closures(algebra)
    missing = (8, 9) if odd == "j" else (9, 8)
    assert ors.capped and len(ors.pairs) == 89 and missing not in [pair[:2] for pair in ors.pairs]


def generated_then_scanned(algebra, congruence, arity_bound, depth_bound, max_functions):
    """The strongly abelian check as it was before it stopped at its answer:
    all bounded polynomials first, then the first violation in their order.
    An arity whose tables pass the cap with no violation among them raises
    CapExceededError: its depth bound was never reached."""
    size, classes = algebra.size, congruence.classes
    for arity in range(2, arity_bound + 1):
        pol = generate_polynomials(algebra, arity, max_functions, max_rounds=depth_bound)
        for table in pol.tables:
            f = dict(zip(itertools.product(range(size), repeat=arity), table))
            for left in f:
                for right in f:
                    related = all(classes[x] == classes[y] for x, y in zip(left, right))
                    if not related or f[left] != f[right]:
                        continue
                    block = [congruence.blocks[classes[left[i]]] for i in range(1, arity)]
                    for tail in itertools.product(*[sorted(b) for b in block]):
                        if f[(left[0],) + tail] != f[(right[0],) + tail]:
                            violation = AbelianViolation(table, arity, left, right, tail)
                            return AbelianVerdict(violation, arity_bound, depth_bound)
        if len(pol.tables) > max_functions:
            stage, reached = f"arity-{arity} polynomial generation", len(pol.tables)
            message = f"{stage} hit its cap: {reached} tables, cap {max_functions}"
            raise CapExceededError(message, stage, reached, max_functions)
    return AbelianVerdict(None, arity_bound, depth_bound)


def abelian_outcome(check, algebra, congruence, bounds):
    """The verdict, or the cap error's text and fields."""
    try:
        return check(algebra, congruence, *bounds)
    except CapExceededError as error:
        return str(error), error.stage, error.reached, error.cap


# (arity bound, depth bound, max_functions): on the algebras below, each
# setting caps some generation at its depth, and the 50-, 7- and 60-table
# settings some at their table count, which raises CapExceededError
ABELIAN_GRID = ((2, 1, 20000), (2, 2, 20000), (2, 3, 50), (3, 1, 20000), (2, 2, 7), (3, 2, 60))


def test_strongly_abelian_check_matches_generate_then_scan():
    rng, verdicts = random.Random(11), collections.Counter()
    mc, ha = RankedAlphabet.of(("m", 2), ("c", 0)), RankedAlphabet.of(("h", 3), ("a", 0))
    signatures = ((FGAB, 3), (mc, 3), (ha, 2))
    for alphabet, largest in signatures:
        for size in range(1, largest + 1):
            algebra = random_algebra(rng, alphabet, size)
            for congruence in all_congruences(algebra):
                for bounds in ABELIAN_GRID:
                    verdict = abelian_outcome(strongly_abelian_check, algebra, congruence, bounds)
                    expected = abelian_outcome(generated_then_scanned, algebra, congruence, bounds)
                    assert verdict == expected
                    capped = isinstance(verdict, tuple)
                    verdicts["capped" if capped else verdict.passed_bounded] += 1
    assert verdicts == {True: 45, False: 24, "capped": 9}


def worklist_congruences(algebra):
    principals = {
        principal_congruence(algebra, a, b)
        for a, b in itertools.combinations(range(algebra.size), 2)
    }
    found = {Congruence.identity(algebra.size)} | principals
    worklist = list(found)
    while worklist:
        current = worklist.pop()
        for other in principals:
            joined = current.join(other)
            if joined not in found:
                found.add(joined)
                worklist.append(joined)
    return found


def test_all_congruences_match_the_worklist():
    rng = random.Random(23)
    for size in range(1, 9):
        for alphabet in (FGAB, RankedAlphabet.of(("g", 1), ("k", 1), ("a", 0))):
            algebra = random_algebra(rng, alphabet, size)
            congruences = all_congruences(algebra)
            assert len(set(congruences)) == len(congruences)
            assert set(congruences) == worklist_congruences(algebra)
    # over a constant alone every partition is a congruence: Bell(8) = 4,140 of them
    constants_only = FiniteAlgebra(RankedAlphabet.of(("c", 0)), 8, {"c": (0,)})
    congruences = all_congruences(constants_only)
    assert len(congruences) == 4140
    assert set(congruences) == worklist_congruences(constants_only)


def test_congruence_is_its_class_list():
    congruence = Congruence.from_blocks(5, [{3, 1}, {4}, {0, 2}])
    assert congruence.classes == (0, 1, 0, 1, 2) and congruence.size == 5
    assert congruence.blocks == (frozenset({0, 2}), frozenset({1, 3}), frozenset({4}))
    assert congruence == Congruence.from_classes([7, 3, 7, 3, 1])
    assert congruence.classes[1] == congruence.classes[3] != congruence.classes[0]
    assert congruence.join(Congruence.from_blocks(5, [{0, 4}, {1}, {2}, {3}])) == (
        Congruence.from_blocks(5, [{0, 2, 4}, {1, 3}])
    )
    assert Congruence.identity(3).blocks == (frozenset({0}), frozenset({1}), frozenset({2}))
    assert Congruence.full(3).blocks == (frozenset({0, 1, 2}),)


@pytest.mark.parametrize("blocks, message", [
    ([{0, 1}, {1, 2}], "blocks must be nonempty and disjoint"),  # overlapping
    ([{0, 1}, {2}, {2, 0}], "blocks must be nonempty and disjoint"),
    ([{0, 5}, {0, 1, 2}], "blocks must be nonempty and disjoint"),  # overlap outranks range
    ([{0, 1}], "blocks must cover the carrier"),  # uncovering
    ([{0, 1}, set(), {2}, {3}], "blocks must cover the carrier"),  # 3 is out of range
    ([{-1, 0}, {1, 2}], "blocks must cover the carrier"),
    ([], "blocks must cover the carrier"),
], ids=["overlap", "overlap-last", "overlap-and-range", "uncovering", "range", "negative", "none"])
def test_from_blocks_errors(blocks, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Congruence.from_blocks(3, blocks)
