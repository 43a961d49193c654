
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    are_equivalent,
    boolean_combine,
    build,
    complement,
    is_empty,
    subset_counterexample,
)
from treelab.cli import save_dbta
from treelab.errors import CapExceededError
from treelab.fixtures import (
    CORPUS,
    L_EVEN,
    L_PAIR,
    L_POTT,
    L_ROOT_G,
    L_TRUE_AND,
    L_TRUE_OR,
    L_TWO,
    SIG_GCD,
    SIG_MONO,
    corpus_dbta,
)
from treelab.oracle import is_mix, sweep_reachable, word_realized
from treelab.paths import (
    Dtta,
    determinize,
    dtta_accepts,
    dtta_to_dbta,
    is_doubly_deterministic,
    is_universal_path,
    mix_elements,
    mixes,
    path_nfa,
    separate_topdown,
)
from treelab.trees import (
    Letter,
    RankedAlphabet,
    enumerate_trees,
    path_words,
    render_tree,
)


# --- path words, and the automata run on them ----------------------------------


def enumerate_path_words(alphabet, max_len):
    """All well-formed path words of length <= max_len, in deterministic order:
    (letter, child) steps, then a constant."""
    steps = [(letter, i) for letter in alphabet.letters for i in range(1, letter.arity + 1)]
    leaves = alphabet.constants
    out = []
    for length in range(1, max_len + 1):
        for prefix in itertools.product(steps, repeat=length - 1):
            for leaf in leaves:
                out.append(tuple(prefix) + (leaf,))
    return out


def nfa_accepts_word(nfa, word):
    current = set(nfa.initial)
    for letter, index in word[:-1]:
        nxt = set()
        for state in current:
            nxt |= nfa.transitions.get((state, letter.name, index), frozenset())
        current = nxt
    leaf = word[-1]
    assert isinstance(leaf, Letter)
    return any((state, leaf.name) in nfa.leaf_accept for state in current)


def dtta_accepts_word(dtta, word):
    state = dtta.initial
    for letter, index in word[:-1]:
        state = dtta.delta[(state, letter.name)][index - 1]
    leaf = word[-1]
    assert isinstance(leaf, Letter)
    return (state, leaf.name) in dtta.leaf_ok


# --- the independent path-word oracle (treelab.oracle) -------------------------


def oracle_is_mix(dbta, tree):
    return is_mix(dbta, sweep_reachable(dbta.algebra), tree)


def test_oracle_word_realized_agrees_with_enumeration():
    # sanity layer for the DP oracle itself: compare with raw enumeration
    for name in ("l_pair", "l_two", "l_true_or"):
        dbta = corpus_dbta(name)
        members = [t for t in enumerate_trees(dbta.alphabet, 9) if accepts(dbta, t)]
        realized = set().union(*[path_words(t) for t in members]) if members else set()
        reach = sweep_reachable(dbta.algebra)
        for word in enumerate_path_words(dbta.alphabet, 4):
            enumerated = word in realized
            assert word_realized(dbta, reach, word) == enumerated, (name, word)


# --- path automaton -----------------------------------------------------------


def test_path_nfa_pair_language():
    nfa = path_nfa(L_PAIR)
    g, c, d = SIG_GCD["g"], SIG_GCD["c"], SIG_GCD["d"]
    members = [t for t in enumerate_trees(SIG_GCD, 4) if accepts(L_PAIR, t)]
    realized = set().union(*[path_words(t) for t in members])
    assert realized == {((g, 1), c), ((g, 2), d)}
    for word in enumerate_path_words(SIG_GCD, 4):
        assert nfa_accepts_word(nfa, word) == (word in realized)


def test_path_nfa_empty_language():
    empty = Dbta(L_PAIR.algebra, frozenset())
    nfa = path_nfa(empty)
    assert not nfa.initial
    assert all(not nfa_accepts_word(nfa, w) for w in enumerate_path_words(SIG_GCD, 3))


def test_path_nfa_even_words():
    nfa = path_nfa(L_EVEN)
    members = [t for t in enumerate_trees(SIG_MONO, 8) if accepts(L_EVEN, t)]
    realized = set().union(*[path_words(t) for t in members])
    for word in enumerate_path_words(SIG_MONO, 8):
        assert nfa_accepts_word(nfa, word) == (word in realized)


def test_determinize_preserves_word_language():
    for name in ("l_pair", "l_two", "l_true_and", "l_pott"):
        dbta = corpus_dbta(name)
        nfa = path_nfa(dbta)
        dtta = determinize(nfa)
        for word in enumerate_path_words(dbta.alphabet, 6):
            assert dtta_accepts_word(dtta, word) == nfa_accepts_word(nfa, word), (name, word)


def test_determinize_pair_word_checks():
    dtta = determinize(path_nfa(L_PAIR))
    g, c, d = SIG_GCD["g"], SIG_GCD["c"], SIG_GCD["d"]
    assert dtta_accepts_word(dtta, ((g, 1), c))
    assert not dtta_accepts_word(dtta, ((g, 1), d))


def test_determinize_cap():
    with pytest.raises(CapExceededError):
        determinize(path_nfa(L_POTT), max_states=1)


def all_accepting_dtta():
    delta = {}
    for letter in SIG_GCD.letters:
        if letter.arity:
            delta[(0, letter.name)] = tuple(0 for _ in range(letter.arity))
    leaf_ok = frozenset((0, l.name) for l in SIG_GCD.letters if l.arity == 0)
    return Dtta(SIG_GCD, 1, 0, delta, leaf_ok)


def test_dtta_accepts_all_accepting():
    dtta = all_accepting_dtta()
    assert all(dtta_accepts(dtta, t) for t in enumerate_trees(SIG_GCD, 5))


def test_dtta_accepts_agrees_with_word_semantics():
    for name in ("l_pair", "l_true_and", "l_pott"):
        dbta = corpus_dbta(name)
        dtta = determinize(path_nfa(dbta))
        for tree in enumerate_trees(dbta.alphabet, 7):
            expected = all(dtta_accepts_word(dtta, w) for w in path_words(tree))
            assert dtta_accepts(dtta, tree) == expected


def test_dtta_to_dbta_agreement():
    for name in ("l_pair", "l_true_and", "l_pott", "l_two"):
        dtta = determinize(path_nfa(corpus_dbta(name)))
        flat = dtta_to_dbta(dtta)
        for tree in enumerate_trees(flat.alphabet, 7):
            assert accepts(flat, tree) == dtta_accepts(dtta, tree)


def test_dtta_to_dbta_all_accepting_full():
    flat = dtta_to_dbta(all_accepting_dtta())
    assert all(accepts(flat, t) for t in enumerate_trees(SIG_GCD, 5))


def test_dtta_to_dbta_all_rejecting_empty():
    dtta = all_accepting_dtta()
    rejecting = Dtta(dtta.alphabet, dtta.n_states, dtta.initial, dtta.delta, frozenset())
    flat = dtta_to_dbta(rejecting)
    assert is_empty(flat) is None


# --- the bitmask step against the tuple scan it replaced, on random inputs -----------

FGAB = RankedAlphabet.of(("f", 2), ("g", 1), ("a", 0), ("b", 0))
FGAB_TREES = enumerate_trees(FGAB, 6)


def scan_dtta_to_dbta(dtta):
    """``dtta_to_dbta`` with its former step: every state is tried, and each
    argument is searched for the state's successor."""
    states = range(dtta.n_states)

    def step(name, args):
        if not args:
            return tuple(state for state in states if (state, name) in dtta.leaf_ok)
        return tuple(
            state
            for state in states
            if all(successor in arg for successor, arg in zip(dtta.delta[(state, name)], args))
        )

    return build(
        dtta.alphabet, step, 10**6, "subset carrier", lambda subset: dtta.initial in subset,
        lambda subset: "{" + ",".join(map(str, subset)) + "}",
    )[1]


@st.composite
def fgab_dbtas(draw):
    size = draw(st.integers(1, 6))
    tables = {
        letter.name: tuple(
            draw(st.lists(st.integers(0, size - 1), min_size=size**letter.arity,
                          max_size=size**letter.arity))
        )
        for letter in FGAB.letters
    }
    accepting = draw(st.frozensets(st.integers(0, size - 1)))
    return Dbta(FiniteAlgebra(FGAB, size, tables), accepting)


@st.composite
def fgab_dttas(draw):
    # complete, with states that no successor names when the draws miss them
    n = draw(st.integers(1, 6))
    state = st.integers(0, n - 1)
    delta = {
        (q, letter.name): tuple(draw(st.lists(state, min_size=letter.arity, max_size=letter.arity)))
        for q in range(n)
        for letter in FGAB.letters
        if letter.arity
    }
    pairs = st.tuples(state, st.sampled_from([c.name for c in FGAB.constants]))
    return Dtta(FGAB, n, draw(state), delta, draw(st.frozensets(pairs)))


@settings(max_examples=30)
@given(fgab_dbtas(), fgab_dttas())
def test_dtta_to_dbta_matches_the_tuple_scan(dbta, dtta):
    for automaton in (determinize(path_nfa(dbta)), dtta):
        assert save_dbta(dtta_to_dbta(automaton)) == save_dbta(scan_dtta_to_dbta(automaton))


@settings(max_examples=15)
@given(fgab_dbtas())
def test_mixes_agree_with_the_oracle(dbta):
    closure = mixes(dbta)
    for tree in FGAB_TREES:
        assert accepts(closure, tree) == oracle_is_mix(dbta, tree), render_tree(tree)


# --- mixes ----------------------------------------------------------------------


def test_mixes_two_accepts_mixed_tree():
    closure = mixes(L_TWO)
    assert accepts(closure, next(t for t in enumerate_trees(SIG_GCD, 3) if render_tree(t) == "g(c,d)"))
    # and the definitional oracle agrees on all small trees
    for tree in enumerate_trees(SIG_GCD, 5):
        assert accepts(closure, tree) == oracle_is_mix(L_TWO, tree)


def test_mixes_pair_is_itself():
    equal, _ = are_equivalent(mixes(L_PAIR), L_PAIR)
    assert equal


def test_mixes_closure_laws_on_corpus():
    for name, dbta in CORPUS:
        closure = mixes(dbta)
        assert subset_counterexample(dbta, closure) is None, name
        equal, _ = are_equivalent(mixes(closure), closure)
        assert equal, name
        assert is_universal_path(closure)[0], name


def test_mixes_monotone_on_nested_pair():
    # L_PAIR is included in mixes(L_TWO) union L_PAIR trivially; use a real nested pair:
    union = boolean_combine("union", L_PAIR, L_TWO)
    lower, upper = mixes(L_PAIR), mixes(union)
    assert subset_counterexample(lower, upper) is None


def test_mixes_leastness_against_corpus_supersets():
    for name, lang in CORPUS:
        closure = mixes(lang)
        for other_name, other in CORPUS:
            if other.alphabet != lang.alphabet:
                continue
            if not is_universal_path(other)[0]:
                continue
            if subset_counterexample(lang, other) is not None:
                continue  # not a superset
            assert subset_counterexample(closure, other) is None, (name, other_name)


# --- universal path and doubly deterministic ------------------------------------


def test_universal_path_verdicts():
    assert is_universal_path(L_TRUE_AND)[0]
    assert is_universal_path(L_POTT)[0]
    assert is_universal_path(L_PAIR)[0]
    verdict, witness = is_universal_path(L_TRUE_OR)
    assert not verdict
    assert oracle_is_mix(L_TRUE_OR, witness) and not accepts(L_TRUE_OR, witness)
    verdict, witness = is_universal_path(L_TWO)
    assert not verdict
    assert render_tree(witness) in ("g(c,d)", "g(d,c)")
    assert oracle_is_mix(L_TWO, witness) and not accepts(L_TWO, witness)


def test_universal_path_matches_per_path_oracle():
    for name in ("l_true_and", "l_true_or", "l_pott", "l_pair", "l_two"):
        dbta = corpus_dbta(name)
        trees = enumerate_trees(dbta.alphabet, 7)
        # L is universal-path iff L equals the set of its path mixes (desk scale)
        oracle = all(accepts(dbta, t) == oracle_is_mix(dbta, t) for t in trees)
        assert is_universal_path(dbta)[0] == oracle, name


def test_doubly_deterministic_verdicts():
    assert is_doubly_deterministic(L_ROOT_G)
    assert is_doubly_deterministic(L_EVEN)
    assert not is_doubly_deterministic(L_TRUE_AND)


def test_doubly_deterministic_cross_check():
    for name in ("l_root_g", "l_even", "l_true_and", "l_pair"):
        dbta = corpus_dbta(name)
        expected = is_universal_path(dbta)[0] and is_universal_path(complement(dbta))[0]
        assert is_doubly_deterministic(dbta) == expected


# --- separation -------------------------------------------------------------------


def test_separate_pair_from_two():
    separator = separate_topdown(L_PAIR, L_TWO)
    assert separator is not None
    positive, negative = (L_PAIR, L_TWO) if separator.accepts_side == 0 else (L_TWO, L_PAIR)
    for tree in enumerate_trees(SIG_GCD, 7):
        if accepts(positive, tree):
            assert dtta_accepts(separator.dtta, tree)
        if accepts(negative, tree):
            assert not dtta_accepts(separator.dtta, tree)


def test_separate_self_absent():
    assert separate_topdown(L_PAIR, L_PAIR) is None
    assert separate_topdown(L_TRUE_AND, L_TRUE_AND) is None


def test_separate_universal_from_complement():
    separator = separate_topdown(L_TRUE_AND, complement(L_TRUE_AND))
    assert separator is not None and separator.accepts_side == 0
    for tree in enumerate_trees(L_TRUE_AND.alphabet, 6):
        assert dtta_accepts(separator.dtta, tree) == accepts(L_TRUE_AND, tree)


# --- mix elements -------------------------------------------------------------------


def test_mix_elements_empty():
    assert mix_elements(L_TWO.algebra, set()) == frozenset()


def test_mix_elements_two_classifier():
    algebra = L_TWO.algebra
    # values: g(c,c) and g(d,d) both evaluate to 2; g(c,d) also lands in the mix
    assert 2 in mix_elements(algebra, {2})
    # a tree with value 3 (e.g. g(c,d)... which is 3 here) arises as a mix of value-2 trees
    from treelab.automata import evaluate
    from treelab.trees import parse_tree

    assert evaluate(algebra, parse_tree("g(c,d)", SIG_GCD)) == 3
    assert 3 in mix_elements(algebra, {2})


def test_mix_elements_reflexive_on_reachable():
    from treelab.automata import reachable_elements

    for name in ("l_two", "l_true_and", "l_pott"):
        algebra = corpus_dbta(name).algebra
        for element in sorted(reachable_elements(algebra)):
            assert element in mix_elements(algebra, {element})
