"""Syntactic algebras (Myhill-Nerode for trees), term definability, division.

The syntactic algebra of a recognized language is obtained by restricting the
recognizer to its tree-reachable elements and then quotienting by the coarsest
congruence that separates accepting from non-accepting elements.  It divides
every other recognizer of the same language and is unique up to isomorphism.

The congruence engine here serves this module and ``structure``.  A basic
translation x -> f(c1..x..ck) varies one argument position of a letter and
fixes the others.  A partition is a congruence iff every basic translation
sends each class into a class, because a change of several arguments within
their classes factors into a chain of single-position changes.  So one table
of the distinct basic translations serves principal congruences, joins,
coarsest refinements, compatibility tests and quotients.  The closure is
Freese's worklist (R. Freese, Computing congruences efficiently, Algebra
Universalis 59, 2008): only pairs that merge two classes are mapped on.  Class
lists are numbered by least element, so each partition has one class list.

Term definability and the polynomial checks of ``structure`` share one clone
kernel, ``_clone``: tables over a list of argument tuples, closed by ``reach``.

Isomorphism and division are one search, ``_onto_maps``: maps from a subset
of one carrier onto another, assigned element by element, under which each
operation role of the target still has an operation of the source that
commutes.  An isomorphism is such a map from the whole carrier, each letter
its own role.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .automata import Dbta, FiniteAlgebra, reach, reachable, tabulate
from .errors import CapExceededError
from .trees import Term, Tree, Var


@dataclass(frozen=True)
class SyntacticResult:
    minimal: Dbta
    projection: Mapping[int, int]  # original reachable element -> minimal element


# --- the congruence engine (see the module docstring) ------------------------

Maps = tuple[tuple[int, ...], ...]


def _translations(algebra: FiniteAlgebra) -> dict[str, Maps]:
    """Per letter, in alphabet order, its distinct basic translations, each a
    stride slice of the letter's table indexed by the varying argument."""
    size = algebra.size
    out: dict[str, Maps] = {}
    for letter in algebra.alphabet.letters:
        table, maps = algebra.tables[letter.name], {}
        for position in range(letter.arity):
            stride = size ** (letter.arity - 1 - position)
            for high in range(0, len(table), stride * size):
                for base in range(high, high + stride):
                    maps[table[base : base + stride * size : stride]] = None
        out[letter.name] = tuple(maps)
    return out


def _all_translations(algebra: FiniteAlgebra) -> Maps:
    return tuple(dict.fromkeys(m for maps in _translations(algebra).values() for m in maps))


def _canonical(labels) -> list[int]:
    """Renumber class labels by first occurrence, i.e. by least element."""
    ids: dict = {}
    return [ids.setdefault(label, len(ids)) for label in labels]


def _closure(size: int, pairs, maps: Maps = ()) -> list[int]:
    """Finest partition that relates the pairs and that the maps send into
    itself, by union-find; a pair that merges two classes queues its images."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            queue.extend((m[x], m[y]) for m in maps)
    return _canonical(find(e) for e in range(size))


def _coarsest_refinement(maps: Maps, initial: list) -> list[int]:
    """Coarsest congruence refining the initial classes (Moore's loop): split
    each class by the classes of its images under every map until none splits."""
    classes = _canonical(initial)
    while True:
        refined = _canonical(zip(classes, *([classes[x] for x in m] for m in maps)))
        if refined == classes:
            return classes
        classes = refined


def _first_incompatible(translations: dict[str, Maps], classes: list[int]) -> str | None:
    """The first letter with a translation that splits a class, or None."""
    for name, maps in translations.items():
        for m in maps:
            image: dict[int, int] = {}
            for x, cls in enumerate(classes):
                if image.setdefault(cls, classes[m[x]]) != classes[m[x]]:
                    return name
    return None


def _representatives(classes: list[int]) -> list[int]:
    """The least element of each class of a canonical class list."""
    first: dict[int, int] = {}
    for element, cls in enumerate(classes):
        first.setdefault(cls, element)
    return list(first.values())


def _quotient_tables(algebra: FiniteAlgebra, classes: list[int]) -> dict[str, tuple[int, ...]]:
    """Letter tables on the classes of a congruence, read off representatives."""
    reps = _representatives(classes)
    return tabulate(algebra.alphabet, reps, lambda name, args: classes[algebra.op(name, args)])


def syntactic_algebra(dbta: Dbta) -> SyntacticResult:
    """Minimal recognizer of the language plus the projection onto it."""
    restriction = reachable(dbta)
    restricted = restriction.dbta
    algebra = restricted.algebra
    initial = [e in restricted.accepting for e in range(algebra.size)]
    classes = _coarsest_refinement(_all_translations(algebra), initial)
    names = None
    if algebra.element_names is not None:
        names = tuple(algebra.element_names[r] for r in _representatives(classes))
    minimal_algebra = FiniteAlgebra(
        algebra.alphabet, max(classes) + 1, _quotient_tables(algebra, classes), names
    )
    accepting = frozenset(classes[e] for e in restricted.accepting)
    projection = {old: classes[new] for old, new in restriction.old_to_new.items()}
    return SyntacticResult(Dbta(minimal_algebra, accepting), projection)


# --- isomorphism ------------------------------------------------------------


def find_isomorphism(
    a: FiniteAlgebra,
    b: FiniteAlgebra,
    accepting: tuple[frozenset[int], frozenset[int]] | None = None,
) -> tuple[int, ...] | None:
    """The lexicographically first carrier bijection making all letter tables
    commute, or None.

    A bijection between carriers of one size is a map from all of a's carrier
    onto b's, so this is ``_onto_maps`` with each letter as its own role.
    With ``accepting`` the bijection must also match the two accepting sets:
    an image that breaks them is dropped as it is tried.
    """
    if a.size != b.size:
        return None
    if {(l.name, l.arity) for l in a.alphabet.letters} != {
        (l.name, l.arity) for l in b.alphabet.letters
    }:
        return None
    fits = None
    if accepting is not None:
        fa, fb = accepting
        fits = lambda element, image: (element in fa) == (image in fb)
    roles = {letter.name: [letter.name] for letter in b.alphabet.letters}
    found = next(_onto_maps(b, a, range(a.size), roles, fits), None)
    return None if found is None else tuple(found[0].values())


# --- term definability ------------------------------------------------------


def _clone(algebra: FiniteAlgebra, points: Sequence[tuple]) -> tuple[list[tuple], Callable]:
    """The projections, as tables over ``points`` (argument tuples of one
    length), and the ``reach`` step that applies a letter to tables.  Letters
    act point by point, so the closure is the clone restricted to the points."""
    size = algebra.size

    def step(name: str, args: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
        index = args[0] if args else [0] * len(points)
        for part in args[1:]:
            index = [i * size + e for i, e in zip(index, part)]
        return tuple(map(algebra.tables[name].__getitem__, index))

    return list(zip(*points)), step


def term_definable(
    algebra: FiniteAlgebra,
    target: tuple[int, ...],
    arity: int,
    depth_cap: int,
) -> Term | None:
    """Breadth-first search for a term denoting the target table.

    Terms come as ``automata.reach`` finds them: by generation (depth 1 holds
    the variables, then the constants), then letter, then lexicographic order
    of the argument terms in the found order.  A term is dropped when an
    earlier one has its table, so the result is the first witness in this
    order, a documented tie-break.  None when the depth cap is exhausted.
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    if len(target) != algebra.size**arity:
        raise ValueError("target table has wrong length")
    projections, step = _clone(algebra, list(algebra.arg_tuples(arity)))
    bodies: dict[tuple[int, ...], Tree] = {}
    for i, table in enumerate(projections, start=1):
        bodies.setdefault(table, Var(i))
    for letter in algebra.alphabet.constants:
        bodies.setdefault(step(letter.name, ()), Tree(letter))
    goal, every_table = tuple(target), algebra.size ** len(target)
    closure = reach(algebra.alphabet, step, every_table, list(bodies), goal.__eq__, depth_cap - 1)
    if closure.hit is None:
        return None
    return Term(arity, closure.replay(closure.hit, bodies, Tree))


# --- division ---------------------------------------------------------------


@dataclass(frozen=True)
class DividesWitness:
    role_assignment: Mapping[str, str]  # letter of a -> letter of b
    subuniverse: frozenset[int]
    partition: tuple[frozenset[int], ...]


def divides(a: FiniteAlgebra, b: FiniteAlgebra, max_carrier: int = 6) -> DividesWitness | None:
    """Does ``a`` arise from ``b`` by reduct, subalgebra, then quotient?

    Operation roles of ``a`` (its letters) are assigned to operations of ``b``
    of the same arity; roles may share one operation of ``b``, matching the
    unindexed reading of division.  A quotient of a subalgebra S isomorphic
    to ``a`` is a homomorphism h from S onto ``a``, so with S and h fixed each
    role is checked on its own.  Search order, the witness's tie-break: S by
    bitmask (element e is bit e), maps h in lexicographic order of the images
    of S in increasing order, and per role the first operation of ``b`` under
    which S is closed and h commutes.  The partition lists h's blocks in the
    order of a's elements.  The maps h come from ``_onto_maps``, which drops
    a partial map once it fails, so the first complete one is the first in
    that order.  Exhaustive and capped: carriers above ``max_carrier`` raise
    CapExceededError rather than answering.
    """
    if a.size > max_carrier or b.size > max_carrier:
        message = f"divides search capped at carrier {max_carrier}"
        raise CapExceededError(message, "divides search", max(a.size, b.size), max_carrier)
    candidates = {  # a role without one fails every map at once
        role.name: [letter.name for letter in b.alphabet.letters if letter.arity == role.arity]
        for role in a.alphabet.letters
    }
    for mask in range(1, 1 << b.size):
        subset = [e for e in range(b.size) if mask >> e & 1]
        if len(subset) < a.size:
            continue
        for h, roles in _onto_maps(a, b, subset, candidates):
            blocks = tuple(frozenset(s for s in subset if h[s] == x) for x in range(a.size))
            assignment = {role: names[0] for role, names in roles.items()}
            return DividesWitness(assignment, frozenset(subset), blocks)
    return None


def _onto_maps(
    a: FiniteAlgebra, b: FiniteAlgebra, subset: Sequence[int], roles: dict[str, list[str]],
    fits: Callable[[int, int], bool] | None = None,
) -> Iterator[tuple[dict[int, int], dict[str, list[str]]]]:
    """The maps h from ``subset`` of b's carrier onto a's carrier under which
    each role of a (a letter) can take one of its ``roles``, operations of b:
    one that sends the subset into itself and commutes with h.  Each map
    comes with the operations each role can take, in lexicographic order of
    the images of the subset in increasing order.  With ``fits``, an image
    that fails ``fits(element, image)`` is not tried.  h is assigned element
    by element, and a partial map is dropped once it fails (see
    ``_open_roles``).
    """
    mask = sum(1 << e for e in subset)
    h: dict[int, int] = {}  # subset[:len(h)] -> a's elements
    alive = [roles]  # per mapped prefix, the operations each role may still take
    value = 0  # the next image to try for subset[len(h)]
    while value < a.size or h:
        if value < a.size:
            if fits is not None and not fits(subset[len(h)], value):
                value += 1
                continue
            h[subset[len(h)]] = value
            alive.append(_open_roles(a, b, mask, h, alive[-1]))
            if alive[-1] is not None and len(h) < len(subset):
                value = 0
                continue
            if alive[-1] is not None:
                yield dict(h), alive[-1]
        alive.pop()  # the last image failed or was yielded, or the element before has none left
        value = h.popitem()[1] + 1


def _open_roles(a: FiniteAlgebra, b: FiniteAlgebra, mask: int, h: dict[int, int], alive: dict):
    """Per role of ``a``, the operations of ``alive`` that send each tuple of
    mapped elements into the subset ``mask``, where h, once it maps the value,
    gives the role's; None if a role has none left or h can no longer be onto."""
    if len(set(h.values())) + mask.bit_count() - len(h) < a.size:
        return None
    left = {}
    for role in a.alphabet.letters:
        rows = [(args, a.op(role.name, [h[x] for x in args]))
                for args in itertools.product(h, repeat=role.arity)]
        left[role.name] = [name for name in alive[role.name] if all(
            mask >> (out := b.op(name, args)) & 1 and h.get(out, want) == want
            for args, want in rows
        )]
        if not left[role.name]:
            return None
    return left
