"""The brute-force oracles, and the `oracle verify` suites that check the
constructions against them on small enumerated corpora.  The path-word
oracle's carrier comes from a naive sweep, not from ``automata.reach``, so it
shares no kernel with ``path_nfa``."""

from __future__ import annotations

import itertools
from typing import Iterator

from . import fixtures
from .automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    are_equivalent,
    boolean_combine,
    corpus_values,
    subset_counterexample,
    tabulate,
)
from .cascade import (
    Cascade,
    CtlFormula,
    annotate,
    annotated_alphabet,
    cascade_flatten,
    ctl_label,
    ctl_render,
    nest,
    random_formula_corpus,
)
from .paths import is_universal_path, mixes
from .transduce import dtop_preimage, dtop_word
from .trees import (
    Letter,
    PathWord,
    Tree,
    enumerate_trees,
    parse_tree,
    path_words,
    render_tree,
    tree_at,
    tree_corpus,
)


def sweep_reachable(algebra: FiniteAlgebra) -> list[int]:
    """The sorted tree-reachable elements: every letter is applied to every
    tuple of the known elements until a sweep adds none."""
    known: set[int] = set()
    changed = True
    while changed:
        changed = False
        for letter in algebra.alphabet.letters:
            for args in itertools.product(sorted(known), repeat=letter.arity):
                value = algebra.op(letter.name, args)
                if value not in known:
                    known.add(value)
                    changed = True
    return sorted(known)


def word_realized(dbta: Dbta, reach: list[int], word: PathWord) -> bool:
    """Some member tree shows the path word.  Dynamic programming from the leaf
    up over the values a tree can take while it shows the rest of the word on
    its spine, the other children at any value of ``reach`` (sorted)."""
    algebra = dbta.algebra
    possible = {algebra.op(word[-1].name, ())}
    for letter, position in reversed(word[:-1]):
        nxt = set()
        for spine in possible:
            for others in itertools.product(reach, repeat=letter.arity - 1):
                args = others[: position - 1] + (spine,) + others[position - 1 :]
                nxt.add(algebra.op(letter.name, args))
        possible = nxt
    return bool(possible & dbta.accepting)


def is_mix(dbta: Dbta, reach: list[int], tree: Tree) -> bool:
    """Every path word of the tree is realized, tried in the order of their
    renderings, so the short-circuit does the same work every run."""
    words = sorted(
        path_words(tree),
        key=lambda word: [f"{s[0].name}.{s[1]}" if isinstance(s, tuple) else s.name for s in word],
    )
    return all(word_realized(dbta, reach, word) for word in words)


def ctl_disagreement(
    corpus: list[tuple[CtlFormula, Cascade]], letters: list[Letter], kids: list[tuple[int, ...]]
) -> tuple[CtlFormula, int] | None:
    """The first formula of ``corpus`` whose flattened cascade and labelling,
    each run once over a node list (``trees.tree_corpus``), disagree on an
    entry, and the position of its first such entry; None when all agree."""
    for formula, cascade in corpus:
        flat = cascade_flatten(cascade)
        values = corpus_values(flat.algebra, letters, kids)
        for at, (value, holds) in enumerate(zip(values, ctl_label(formula, letters, kids))):
            if (value in flat.accepting) != holds:
                return formula, at
    return None


# --- oracle verify ---------------------------------------------------------------


class Mismatch(Exception):
    """An oracle suite disagreed with the construction it checks."""


def check(ok: bool, suite: str, *detail) -> None:
    """Raise Mismatch unless ok; the detail parts are rendered only on failure."""
    if not ok:
        parts = (render_tree(p) if isinstance(p, Tree) else str(p) for p in detail)
        raise Mismatch(f"{suite}: {' '.join(parts)}")


def universal_path_suite(max_nodes: int) -> int:
    """`is_universal_path` against "every mix of a member is a member" on the
    trees of at most ``max_nodes`` nodes; the number of trees checked.  A
    ``no`` verdict's witness must itself be a mix outside the language.  The
    bounded oracle must agree with a ``yes``, and with a ``no`` whose witness
    has at most ``max_nodes`` nodes: a larger one it cannot see."""
    suite = "universal-path-oracle"
    checks = 0
    for name in ("l_true_and", "l_true_or", "l_pott", "l_pair", "l_two"):
        dbta = fixtures.corpus_dbta(name)
        verdict, witness = is_universal_path(dbta)
        trees = enumerate_trees(dbta.alphabet, max_nodes)
        reach = sweep_reachable(dbta.algebra)
        if witness is not None:
            ok = is_mix(dbta, reach, witness) and not accepts(dbta, witness)
            check(ok, suite, "witness", witness, "is no rejected mix of", name)
        if witness is None or witness.size() <= max_nodes:
            oracle = all(accepts(dbta, tree) for tree in trees if is_mix(dbta, reach, tree))
            check(verdict == oracle, suite, "verdict disagrees on", name)
        checks += len(trees)
    return checks


def suites(max_nodes: int, count: int, seed: int) -> Iterator[tuple[str, int]]:
    """Run each suite in turn on trees of at most ``max_nodes`` nodes and
    yield its name and number of checks; ``count`` random CTL formulas are
    drawn from ``seed``."""
    checks = 0
    suite = "trees-roundtrip-paths"
    for name, dbta in fixtures.CORPUS:
        for tree in enumerate_trees(dbta.alphabet, max_nodes):
            check(parse_tree(render_tree(tree), dbta.alphabet) == tree, suite, name, tree)
            check(len(path_words(tree)) == tree.leaf_count(), suite, name, tree)
            checks += 1
    yield suite, checks

    checks = 0
    for left, right in (("l_pair", "l_two"), ("l_true_and", "l_true_and")):
        d1, d2 = fixtures.corpus_dbta(left), fixtures.corpus_dbta(right)
        union = boolean_combine("union", d1, d2)
        inter = boolean_combine("intersection", d1, d2)
        diff = boolean_combine("difference", d1, d2)
        for tree in enumerate_trees(d1.alphabet, max_nodes):
            a, b = accepts(d1, tree), accepts(d2, tree)
            case = (left, right, tree)
            check(accepts(union, tree) == (a or b), "boolean-ops", "union", *case)
            check(accepts(inter, tree) == (a and b), "boolean-ops", "intersection", *case)
            check(accepts(diff, tree) == (a and not b), "boolean-ops", "difference", *case)
            checks += 3
    yield "boolean-ops", checks

    checks = 0
    pre = dtop_preimage(fixtures.K_POTT, fixtures.HOM_DUP)
    for tree in enumerate_trees(fixtures.SIG_LINE, max_nodes):
        image = dtop_word(fixtures.HOM_DUP, tree)
        check(accepts(pre, tree) == accepts(fixtures.K_POTT, image), "hom-preimage", tree)
        checks += 1
    yield "hom-preimage", checks

    checks = 0
    suite = "mixes-closure-laws"
    for name, dbta in fixtures.CORPUS:
        closure = mixes(dbta)
        check(subset_counterexample(dbta, closure) is None, suite, f"L not within mixes({name})")
        check(are_equivalent(mixes(closure), closure)[0], suite, f"mixes({name}) not idempotent")
        check(is_universal_path(closure)[0], suite, f"mixes({name}) not universal-path")
        checks += 3
    yield suite, checks

    yield "universal-path-oracle", universal_path_suite(max_nodes)

    checks = 0
    for alphabet in (fixtures.SIG_POTT, fixtures.SIG_GCD):
        letters, kids = tree_corpus(alphabet, max_nodes)
        corpus = random_formula_corpus(seed, alphabet, count)
        found = ctl_disagreement(corpus, letters, kids)
        if found is not None:
            formula, at = found
            check(False, "ctl-compile-vs-eval", ctl_render(formula), tree_at(letters, kids, at))
        checks += len(corpus) * len(letters)
    yield "ctl-compile-vs-eval", checks

    checks = 0
    langs = [fixtures.L_TRUE_AND]
    annotated = annotated_alphabet(fixtures.SIG_AND, 1)
    # top = "the root's own annotation bit is set"
    tables = tabulate(annotated, (0, 1), lambda name, args: int(name.endswith("|1")))
    top = Dbta(FiniteAlgebra(annotated, 2, tables), frozenset({1}))
    nested = nest(langs, top)
    for tree in enumerate_trees(fixtures.SIG_AND, max_nodes):
        ok = accepts(nested, tree) == accepts(top, annotate(tree, langs))
        check(ok, "nest-adjunction", tree)
        checks += 1
    yield "nest-adjunction", checks
