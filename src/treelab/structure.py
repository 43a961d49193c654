"""Structure of finite algebras: congruences, polynomial clones, pair checks.

Polynomial generation, the minimality test (every unary polynomial constant or
bijective), or-pairs and their separation by path mixes, the bounded strongly
abelian check, and the two-element-lattice divisor screen.  The bounded checks
are labelled: a bounded pass is not a proof.  Polynomials are closed by
``reach`` on the clone kernel of ``syntactic``, over just the points a check
reads, and each check is a goal that stops the closure at its answer.  An
unordered pair's four points serve both its orders, so one closure gives
its or- and and-pairs, and carriers up to 8 are exact.

A congruence is the class list of the congruence engine in ``syntactic``: one
table of basic translations per algebra serves principal congruences, joins,
compatibility tests and quotients (see the notes there), and ``reach`` joins
principal congruences into the whole lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import DEFAULT_CARRIER_CAP, Dbta, FiniteAlgebra, Reach, reach, reachable
from .errors import CapExceededError, IncompatiblePartitionError
from .fixtures import ALG_LATTICE
from .paths import mix_elements
from .syntactic import (
    DividesWitness,
    _all_translations,
    _canonical,
    _clone,
    _closure,
    _first_incompatible,
    _quotient_tables,
    _translations,
    divides,
)
from .trees import Letter, RankedAlphabet


@dataclass(frozen=True)
class Congruence:
    """A partition of the carrier compatible with all operations, as the
    congruence engine's class list: element e is in class ``classes[e]``, and
    classes (and ``blocks``) go by least element, so each partition has one
    list.  The identity congruence is all singletons; the full one, one block.
    """

    classes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.classes)

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        members: list[set[int]] = [set() for _ in range(max(self.classes, default=-1) + 1)]
        for element, cls in enumerate(self.classes):
            members[cls].add(element)
        return tuple(map(frozenset, members))

    @staticmethod
    def from_blocks(size: int, blocks) -> "Congruence":
        labels: dict[int, int] = {}
        for index, block in enumerate(blocks):
            for element in block:
                if labels.setdefault(element, index) != index:
                    raise ValueError("blocks must be nonempty and disjoint")
        if labels.keys() != set(range(size)):
            raise ValueError("blocks must cover the carrier")
        return Congruence.from_classes([labels[e] for e in range(size)])

    @staticmethod
    def from_classes(classes) -> "Congruence":
        return Congruence(tuple(_canonical(classes)))

    @staticmethod
    def identity(size: int) -> "Congruence":
        return Congruence(tuple(range(size)))

    @staticmethod
    def full(size: int) -> "Congruence":
        return Congruence((0,) * size)

    def refines(self, other: "Congruence") -> bool:
        theirs: dict[int, int] = {}
        return all(theirs.setdefault(mine, t) == t for mine, t in zip(self.classes, other.classes))

    def join(self, other: "Congruence") -> "Congruence":
        labels, first = list(self.classes), {}  # first: other's class -> its least element
        for element, cls in enumerate(other.classes):
            kept, merged = labels[first.setdefault(cls, element)], labels[element]
            if kept != merged:
                labels = [kept if label == merged else label for label in labels]
        return Congruence.from_classes(labels)


def is_compatible(algebra: FiniteAlgebra, congruence: Congruence) -> bool:
    return _first_incompatible(_translations(algebra), congruence.classes) is None


def principal_congruence(algebra: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Finest congruence relating a and b: the closure of the pair under the
    basic translations (Freese's worklist)."""
    return Congruence(tuple(_closure(algebra.size, [(a, b)], _all_translations(algebra))))


def _principal_congruences(algebra: FiniteAlgebra) -> list[Congruence]:
    """The distinct principal congruences of pairs of distinct elements."""
    maps = _all_translations(algebra)
    return list(dict.fromkeys(
        Congruence(tuple(_closure(algebra.size, [pair], maps)))
        for pair in itertools.combinations(range(algebra.size), 2)
    ))


def blocks_key(congruence: Congruence) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """A total sort key: the blocks in order, each as (size, sorted elements).

    Two blocks at the same position compare first by size, so a proper
    subset comes first, as it did when blocks were compared as sets.
    """
    return tuple((len(block), tuple(sorted(block))) for block in congruence.blocks)


def all_congruences(algebra: FiniteAlgebra, max_carrier: int = 8) -> list[Congruence]:
    """The whole congruence lattice.  Every congruence is the join of the
    principal congruences of its pairs, so ``reach`` finds them all from the
    identity and the principals, one unary letter joining on each principal;
    its cap, n**n class lists, is never hit."""
    size = algebra.size
    if size > max_carrier:
        message = f"congruence enumeration capped at carrier {max_carrier}"
        raise CapExceededError(message, "congruence enumeration", size, max_carrier)
    principals = _principal_congruences(algebra)
    joins = {f"p{i}": principal for i, principal in enumerate(principals)}
    letters = RankedAlphabet(tuple(Letter(name, 1) for name in joins))
    step = lambda name, args: args[0].join(joins[name])
    found = reach(letters, step, size**size, [Congruence.identity(size)] + principals).values
    return sorted(
        found,
        key=lambda c: (len(c.blocks), tuple(sorted(min(b) for b in c.blocks)), blocks_key(c)),
    )


def minimal_nontrivial_congruences(algebra: FiniteAlgebra) -> list[Congruence]:
    """Inclusion-minimal non-identity congruences (all of them are principal)."""
    principals = _principal_congruences(algebra)
    minimal = [c for c in principals if not any(o != c and o.refines(c) for o in principals)]
    return sorted(minimal, key=blocks_key)


def quotient(algebra: FiniteAlgebra, congruence: Congruence) -> FiniteAlgebra:
    """Quotient algebra on the blocks; raises if the partition is incompatible."""
    if congruence.size != algebra.size:
        raise ValueError("partition size does not match the carrier")
    classes = congruence.classes
    letter = _first_incompatible(_translations(algebra), classes)
    if letter is not None:
        raise IncompatiblePartitionError(f"partition is not compatible with {letter}")
    return FiniteAlgebra(algebra.alphabet, len(congruence.blocks), _quotient_tables(algebra, classes))


# --- polynomial clones --------------------------------------------------------


@dataclass(frozen=True)
class PolFunctions:
    """n-ary polynomial operations as dense tables, with generation metadata."""

    arity: int
    tables: tuple[tuple[int, ...], ...]
    capped: bool
    rounds: int

    def __contains__(self, table: tuple[int, ...]) -> bool:
        return table in set(self.tables)


def generate_polynomials(
    algebra: FiniteAlgebra,
    arity: int,
    max_functions: int = 20000,
    max_rounds: int | None = None,
) -> PolFunctions:
    """Closure of projections and constants under the letter operations.

    Tables come in the order ``automata.reach`` finds them: the projections,
    the constants, then by generation, then letter, then lexicographic order
    of the argument tables in the found order.  This order is a documented
    tie-break (the strongly abelian check reports the first violating table).
    Stops at a fixpoint, or flags the result capped (an under-approximation)
    when a cap is hit.
    """
    closure = _polynomials(algebra, arity, max_functions, max_rounds)
    return PolFunctions(arity, closure.values, closure.capped, closure.rounds)


def _polynomials(algebra, arity, max_functions, max_rounds=None, goal=None) -> Reach:
    projections, step = _clone(algebra, list(algebra.arg_tuples(arity)))
    constants = [(c,) * algebra.size**arity for c in range(algebra.size)]
    return reach(algebra.alphabet, step, max_functions, projections + constants, goal, max_rounds)


def is_minimal_palfy(algebra: FiniteAlgebra, max_functions: int = 20000) -> bool:
    """Every unary polynomial is a constant or a bijection of the carrier.
    Generation stops at the first that is neither; the cap raises
    CapExceededError only when it is hit before such a polynomial."""

    def bad(table: tuple[int, ...]) -> bool:
        return len(set(table)) != 1 and sorted(table) != list(range(algebra.size))

    closure = _polynomials(algebra, 1, max_functions, goal=bad)
    if closure.capped and closure.hit is None:
        message, reached = "unary polynomial generation hit its cap", len(closure.values)
        raise CapExceededError(message, "unary polynomial generation", reached, max_functions)
    return closure.hit is None


@dataclass(frozen=True)
class PairReport:
    """Ordered pairs on which some binary polynomial acts like the Boolean
    operation, each with a witness table; ``capped``: some pair was left
    undecided by a closure that hit its cap."""

    pairs: tuple[tuple[int, int, tuple[int, ...]], ...]
    capped: bool


def _lattice_pairs(algebra: FiniteAlgebra) -> tuple[PairReport, PairReport]:
    """The or- and and-pairs: per pair a0 < a1, one ``reach`` over the binary
    polynomials restricted to its four points, up to both the join
    (a0, a1, a1, a1) and the meet (a0, a0, a0, a1); each is replayed over all
    points.  Letters act point by point, so the closure of (a1, a0), whose
    points are these reversed, is this one reversed table by table, found in
    the same order: a join here is an and-pair (a1, a0), a meet an or-pair."""
    size, ors, ands, capped = algebra.size, [], [], False
    projections, step = _clone(algebra, list(algebra.arg_tuples(2)))
    tables = projections + [(c,) * size**2 for c in range(size)]
    make = lambda letter, args: step(letter.name, args)
    for a0, a1 in itertools.combinations(range(size), 2):
        seeds, four_step = _clone(algebra, list(itertools.product((a0, a1), repeat=2)))
        seeds += [(c,) * 4 for c in range(size)]
        join, meet = (a0, a1, a1, a1), (a0, a0, a0, a1)
        missing = {join, meet}  # not yet found; the goal holds once both are
        goal = lambda table: missing.discard(table) or not missing
        closure = reach(algebra.alphabet, four_step, DEFAULT_CARRIER_CAP, seeds, goal)
        known = dict(zip(seeds, tables))
        for pattern, forward, backward in ((join, ors, ands), (meet, ands, ors)):
            if pattern not in missing:
                witness = closure.replay(pattern, known, make)
                forward.append((a0, a1, witness))
                backward.append((a1, a0, witness))
        capped = capped or (closure.capped and bool(missing))
    return PairReport(tuple(sorted(ors)), capped), PairReport(tuple(sorted(ands)), capped)


def or_pairs(algebra: FiniteAlgebra) -> PairReport:
    """Pairs (a0, a1) where some binary polynomial restricts to disjunction
    under a0 ~ 0, a1 ~ 1, in lexicographic order, each with such a polynomial's
    table.  Only the four points {a0, a1}**2 are closed, at most n**4 values
    under the carrier cap, so carriers up to 8 are exact; ``capped`` flags a
    pair whose closure hit the cap before the pattern.  One closure per
    unordered pair also gives the and-pairs (see ``_lattice_pairs``)."""
    return _lattice_pairs(algebra)[0]


def and_pairs(algebra: FiniteAlgebra) -> PairReport:
    """As ``or_pairs``, for conjunction."""
    return _lattice_pairs(algebra)[1]


# --- strongly abelian check -----------------------------------------------------


@dataclass(frozen=True)
class AbelianViolation:
    table: tuple[int, ...]
    arity: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    tail: tuple[int, ...]


@dataclass(frozen=True)
class AbelianVerdict:
    """violated(witness) or passed within the stated bounds (not a proof)."""

    violation: AbelianViolation | None
    arity_bound: int
    depth_bound: int

    @property
    def passed_bounded(self) -> bool:
        return self.violation is None


def strongly_abelian_check(
    algebra: FiniteAlgebra,
    congruence: Congruence,
    arity_bound: int = 2,
    depth_bound: int = 3,
    max_functions: int = 20000,
) -> AbelianVerdict:
    """Bounded search for a violation of the strongly abelian implication:
    f(a0..an) = f(b0..bn) forces f(a0, c1..cn) = f(b0, c1..cn) whenever the
    tuples are congruence-related position by position.  Raises
    IncompatiblePartitionError when the partition is not a congruence.  Per
    arity, ``reach`` generates the bounded polynomials in the order of
    ``generate_polynomials`` only up to the first table with a violation, and
    reports its first (left, then right, then tail, lexicographically).  More
    than ``max_functions`` tables of one arity before a violation raise
    CapExceededError: the depth bound was not reached."""
    if arity_bound < 1 or depth_bound < 1:
        raise ValueError("bounds must be >= 1")
    if not is_compatible(algebra, congruence):
        raise IncompatiblePartitionError("partition is not a congruence")
    classes = congruence.classes
    members = [sorted(block) for block in congruence.blocks]
    for arity in range(2, arity_bound + 1):
        points, related = list(algebra.arg_tuples(arity)), {}  # class tuple -> its points
        for point in points:
            related.setdefault(tuple([classes[x] for x in point]), []).append(point)
        violations: list[AbelianViolation] = []

        def violated(table: tuple[int, ...]) -> bool:
            f = dict(zip(points, table))
            for left in points:
                key = tuple([classes[x] for x in left])
                for right in related[key]:
                    if f[right] != f[left]:
                        continue
                    for tail in itertools.product(*[members[c] for c in key[1:]]):
                        if f[(left[0],) + tail] != f[(right[0],) + tail]:
                            violations.append(AbelianViolation(table, arity, left, right, tail))
                            return True
            return False

        closure = _polynomials(algebra, arity, max_functions, depth_bound, violated)
        if closure.hit is not None:
            return AbelianVerdict(violations[0], arity_bound, depth_bound)
        if len(closure.values) > max_functions:
            stage, reached = f"arity-{arity} polynomial generation", len(closure.values)
            message = f"{stage} hit its cap: {reached} tables, cap {max_functions}"
            raise CapExceededError(message, stage, reached, max_functions)
    return AbelianVerdict(None, arity_bound, depth_bound)


# --- divisor screens -------------------------------------------------------------


def lattice_divides(
    algebra: FiniteAlgebra,
    use_polynomial_closure: bool = False,
    max_carrier: int = 6,
    max_functions: int = 2000,
) -> DividesWitness | None:
    """Does the two-element lattice divide the algebra?

    With the flag, when the letters give no witness, the search runs again on
    the binary letters and generated binary polynomials, renamed p0, p1, ...
    (the lattice only has binary roles); a capped generation then raises
    CapExceededError (exit 3) rather than answer no.  A non-None result is a
    reconstructible witness.  Used as the necessary-condition screen: a
    language whose syntactic algebra is divided by the lattice is not
    definable in the path/chain classes.
    """
    witness = divides(ALG_LATTICE, algebra, max_carrier)
    if witness is not None or not use_polynomial_closure:
        return witness
    pol2 = generate_polynomials(algebra, 2, max_functions)
    own = [algebra.tables[letter.name] for letter in algebra.alphabet.letters if letter.arity == 2]
    names = [f"p{i}" for i in range(len(own) + len(pol2.tables))]
    binary = RankedAlphabet(tuple(Letter(name, 2) for name in names))
    pool = FiniteAlgebra(binary, algebra.size, dict(zip(names, own + list(pol2.tables))))
    witness = divides(ALG_LATTICE, pool, max_carrier)
    if witness is None and pol2.capped:
        message, reached = "binary polynomial generation hit its cap", len(pol2.tables)
        raise CapExceededError(message, "binary polynomial generation", reached, max_functions)
    return witness


@dataclass(frozen=True)
class SeparationEntry:
    a0: int
    a1: int
    separable: bool


@dataclass(frozen=True)
class SeparationReport:
    entries: tuple[SeparationEntry, ...]
    capped: bool

    @property
    def all_separable(self) -> bool:
        return all(entry.separable for entry in self.entries)


def orpair_separation(dbta: Dbta) -> SeparationReport:
    """Per or-pair of the reachable algebra, the mix-closure separation test.

    A pair (a0, a1) is separable by a deterministic top-down automaton iff
    a0 is not a mix element of {a1} or a1 is not a mix element of {a0}.  An
    inseparable pair certifies the language is not a path language.
    """
    restricted = reachable(dbta).dbta.algebra
    report = or_pairs(restricted)
    paired = dict.fromkeys(element for a0, a1, _ in report.pairs for element in (a0, a1))
    mix = {element: mix_elements(restricted, {element}) for element in paired}
    entries = tuple(
        SeparationEntry(a0, a1, a0 not in mix[a1] or a1 not in mix[a0])
        for a0, a1, _ in report.pairs
    )
    return SeparationReport(entries, report.capped)
