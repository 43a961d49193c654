"""The definitional path-word oracle.  Its carrier comes from a naive sweep,
not from ``automata.reach``, so it shares no kernel with ``path_nfa``."""

from __future__ import annotations

import itertools

from .automata import Dbta, FiniteAlgebra
from .trees import PathWord, Tree, path_words


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
