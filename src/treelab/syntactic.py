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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from .automata import Dbta, FiniteAlgebra, reachable
from .errors import CapExceededError
from .trees import Term, TermBody, TermNode, Var


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
    return {
        letter.name: tuple(
            classes[algebra.op(letter.name, args)]
            for args in itertools.product(reps, repeat=letter.arity)
        )
        for letter in algebra.alphabet.letters
    }


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
    """A carrier bijection making all letter tables commute, or None.

    Backtracking with per-assignment consistency pruning; feasible for
    carriers up to about 10.  With ``accepting`` the bijection must also match
    the two accepting sets.
    """
    if a.size != b.size:
        return None
    if {(l.name, l.arity) for l in a.alphabet.letters} != {
        (l.name, l.arity) for l in b.alphabet.letters
    }:
        return None
    size = a.size
    image: list[int | None] = [None] * size
    used = [False] * size

    def consistent() -> bool:
        if accepting is not None:
            fa, fb = accepting
            for e in range(size):
                if image[e] is not None and (e in fa) != (image[e] in fb):
                    return False
        for letter in a.alphabet.letters:
            for args in itertools.product(range(size), repeat=letter.arity):
                mapped = tuple(image[arg] for arg in args)
                if any(m is None for m in mapped):
                    continue
                target = image[a.op(letter.name, args)]
                if target is not None and target != b.op(letter.name, mapped):  # type: ignore[arg-type]
                    return False
        return True

    def assign(element: int) -> bool:
        if element == size:
            return True
        for candidate in range(size):
            if used[candidate]:
                continue
            image[element] = candidate
            used[candidate] = True
            if consistent() and assign(element + 1):
                return True
            image[element] = None
            used[candidate] = False
        return False

    if assign(0):
        return tuple(image)  # type: ignore[arg-type]
    return None


def dbta_isomorphic(d1: Dbta, d2: Dbta) -> tuple[int, ...] | None:
    return find_isomorphism(d1.algebra, d2.algebra, (d1.accepting, d2.accepting))


# --- term definability ------------------------------------------------------


def term_definable(
    algebra: FiniteAlgebra,
    target: tuple[int, ...],
    arity: int,
    depth_cap: int,
) -> Term | None:
    """Breadth-first search for a term denoting the target table.

    Terms are generated by depth (variables and constants at depth 1); among
    terms with the same induced table only the first is kept, so the result is
    the first witness in the documented order.  None when the cap is exhausted.
    """
    if depth_cap < 1:
        raise ValueError("depth_cap must be >= 1")
    if len(target) != algebra.size**arity:
        raise ValueError("target table has wrong length")
    envs = list(itertools.product(range(algebra.size), repeat=arity))
    goal = tuple(target)

    seen: dict[tuple[int, ...], TermBody] = {}
    by_depth: list[list[tuple[TermBody, tuple[int, ...]]]] = [[]]

    def consider(body: TermBody, values: tuple[int, ...], level: list) -> TermBody | None:
        if values in seen:
            return None
        seen[values] = body
        level.append((body, values))
        return body if values == goal else None

    level1: list[tuple[TermBody, tuple[int, ...]]] = []
    for i in range(1, arity + 1):
        values = tuple(env[i - 1] for env in envs)
        hit = consider(Var(i), values, level1)
        if hit is not None:
            return Term(arity, hit)
    for letter in algebra.alphabet.letters:
        if letter.arity != 0:
            continue
        constant = algebra.op(letter.name, ())
        hit = consider(TermNode(letter), tuple(constant for _ in envs), level1)
        if hit is not None:
            return Term(arity, hit)
    by_depth.append(level1)

    for depth in range(2, depth_cap + 1):
        level: list[tuple[TermBody, tuple[int, ...]]] = []
        pool = [entry for lvl in by_depth[1:] for entry in lvl]
        last = set(id(body) for body, _ in by_depth[depth - 1])
        for letter in algebra.alphabet.letters:
            if letter.arity == 0:
                continue
            for combo in itertools.product(pool, repeat=letter.arity):
                if not any(id(body) in last for body, _ in combo):
                    continue  # depth must be exactly one more than the deepest child
                values = tuple(
                    algebra.op(letter.name, [vals[k] for _, vals in combo])
                    for k in range(len(envs))
                )
                body = TermNode(letter, tuple(b for b, _ in combo))
                hit = consider(body, values, level)
                if hit is not None:
                    return Term(arity, hit)
        by_depth.append(level)
    return None


# --- division ---------------------------------------------------------------


@dataclass(frozen=True)
class DividesWitness:
    role_assignment: Mapping[str, str]  # letter of a -> letter of b
    subuniverse: frozenset[int]
    partition: tuple[frozenset[int], ...]


def _partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def divides(a: FiniteAlgebra, b: FiniteAlgebra, max_carrier: int = 6) -> DividesWitness | None:
    """Does ``a`` arise from ``b`` by reduct, subalgebra, then quotient?

    Operation roles of ``a`` (its letters) are assigned to operations of ``b``
    of the same arity; roles may share one operation of ``b``, matching the
    unindexed reading of division.  Exhaustive and capped: carriers above
    ``max_carrier`` raise CapExceededError rather than answering.
    """
    if a.size > max_carrier or b.size > max_carrier:
        raise CapExceededError(f"divides search capped at carrier {max_carrier}")
    roles = list(a.alphabet.letters)
    candidates: list[list[str]] = []
    for role in roles:
        names = [letter.name for letter in b.alphabet.letters if letter.arity == role.arity]
        if not names:
            return None
        candidates.append(names)

    for choice in itertools.product(*candidates):
        assignment = {role.name: picked for role, picked in zip(roles, choice)}
        for mask in range(1, 1 << b.size):
            order = [e for e in range(b.size) if mask >> e & 1]
            if len(order) < a.size:
                continue
            index = {element: i for i, element in enumerate(order)}
            tables = {
                role.name: tuple(
                    index.get(b.op(assignment[role.name], args), -1)
                    for args in itertools.product(order, repeat=role.arity)
                )
                for role in roles
            }
            if any(-1 in table for table in tables.values()):
                continue  # not closed under the assigned operations
            sub = FiniteAlgebra(a.alphabet, len(order), tables)
            translations = _translations(sub)
            for blocks in _partitions(list(range(len(order)))):
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
                if find_isomorphism(a, quotient) is not None:
                    return DividesWitness(
                        assignment,
                        frozenset(order),
                        tuple(frozenset(order[i] for i in block) for block in blocks),
                    )
    return None
