"""Structure of finite algebras: congruences, polynomial clones, pair checks.

Polynomial generation, the minimality test (every unary polynomial constant or
bijective), or-pairs and their separation by path mixes, the bounded strongly
abelian check, and the two-element-lattice divisor screen.  The bounded checks
are labelled: a bounded pass is not a proof.

Congruences are computed by the congruence engine in ``syntactic``: one table
of basic translations per algebra serves principal congruences, joins,
compatibility tests and quotients (see the notes there).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import Dbta, FiniteAlgebra, reachable
from .errors import CapExceededError, IncompatiblePartitionError
from .fixtures import ALG_LATTICE
from .paths import mix_elements
from .syntactic import (
    DividesWitness,
    _all_translations,
    _closure,
    _first_incompatible,
    _quotient_tables,
    _translations,
    divides,
)
from .trees import Letter, RankedAlphabet


@dataclass(frozen=True)
class Congruence:
    """A partition of the carrier compatible with all operations.

    Blocks are canonical: internally sorted, ordered by least element.  The
    identity congruence is all singletons; the full one has a single block.
    """

    size: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block or block & seen:
                raise ValueError("blocks must be nonempty and disjoint")
            seen |= block
        if seen != set(range(self.size)):
            raise ValueError("blocks must cover the carrier")
        mins = [min(block) for block in self.blocks]
        if mins != sorted(mins):
            raise ValueError("blocks must be ordered by least element")

    @staticmethod
    def from_blocks(size: int, blocks) -> "Congruence":
        canonical = tuple(
            sorted((frozenset(block) for block in blocks if block), key=min)
        )
        return Congruence(size, canonical)

    @staticmethod
    def from_classes(classes: list[int]) -> "Congruence":
        groups: dict[int, set[int]] = {}
        for element, cls in enumerate(classes):
            groups.setdefault(cls, set()).add(element)
        return Congruence.from_blocks(len(classes), groups.values())

    @staticmethod
    def identity(size: int) -> "Congruence":
        return Congruence.from_blocks(size, [{e} for e in range(size)])

    @staticmethod
    def full(size: int) -> "Congruence":
        return Congruence.from_blocks(size, [set(range(size))])

    def class_of(self) -> list[int]:
        out = [0] * self.size
        for index, block in enumerate(self.blocks):
            for element in block:
                out[element] = index
        return out

    def relates(self, a: int, b: int) -> bool:
        classes = self.class_of()
        return classes[a] == classes[b]

    def refines(self, other: "Congruence") -> bool:
        theirs = other.class_of()
        return all(
            theirs[a] == theirs[b]
            for block in self.blocks
            for a in block
            for b in block
        )

    def is_identity(self) -> bool:
        return len(self.blocks) == self.size

    def is_full(self) -> bool:
        return len(self.blocks) == 1

    def join(self, other: "Congruence") -> "Congruence":
        blocks = self.blocks + other.blocks
        pairs = [(min(block), element) for block in blocks for element in block]
        return Congruence.from_classes(_closure(self.size, pairs))


def is_compatible(algebra: FiniteAlgebra, congruence: Congruence) -> bool:
    return _first_incompatible(_translations(algebra), congruence.class_of()) is None


def principal_congruence(algebra: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Finest congruence relating a and b: the closure of the pair under the
    basic translations (Freese's worklist)."""
    maps = _all_translations(algebra)
    return Congruence.from_classes(_closure(algebra.size, [(a, b)], maps))


def _principal_congruences(algebra: FiniteAlgebra) -> set[Congruence]:
    """The principal congruences of all pairs of distinct elements."""
    maps = _all_translations(algebra)
    return {
        Congruence.from_classes(_closure(algebra.size, [pair], maps))
        for pair in itertools.combinations(range(algebra.size), 2)
    }


def all_congruences(algebra: FiniteAlgebra, max_carrier: int = 8) -> list[Congruence]:
    """The whole congruence lattice: joins of principal congruences.

    Every congruence is the join of the principal congruences of its pairs,
    so joining each congruence found with each principal one reaches them all.
    """
    if algebra.size > max_carrier:
        raise CapExceededError(f"congruence enumeration capped at carrier {max_carrier}")
    principals = _principal_congruences(algebra)
    found: set[Congruence] = {Congruence.identity(algebra.size)} | principals
    worklist = list(found)
    while worklist:
        current = worklist.pop()
        for other in principals:
            joined = current.join(other)
            if joined not in found:
                found.add(joined)
                worklist.append(joined)
    return sorted(found, key=lambda c: (len(c.blocks), tuple(sorted(min(b) for b in c.blocks)), c.blocks))


def minimal_nontrivial_congruences(algebra: FiniteAlgebra) -> list[Congruence]:
    """Inclusion-minimal non-identity congruences (all of them are principal)."""
    principals = _principal_congruences(algebra)
    nontrivial = [c for c in principals if not c.is_identity()]
    minimal = []
    for candidate in nontrivial:
        if not any(other != candidate and other.refines(candidate) for other in nontrivial):
            minimal.append(candidate)
    return sorted(minimal, key=lambda c: c.blocks)


def quotient(algebra: FiniteAlgebra, congruence: Congruence) -> FiniteAlgebra:
    """Quotient algebra on the blocks; raises if the partition is incompatible."""
    if congruence.size != algebra.size:
        raise ValueError("partition size does not match the carrier")
    classes = congruence.class_of()
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

    Stops at a fixpoint, or flags the result capped (still usable as an
    under-approximation) when a cap is hit.
    """
    size = algebra.size
    n_points = size**arity
    envs = list(itertools.product(range(size), repeat=arity))

    seen: set[tuple[int, ...]] = set()
    ordered: list[tuple[int, ...]] = []

    def add(table: tuple[int, ...]) -> bool:
        if table in seen:
            return False
        seen.add(table)
        ordered.append(table)
        return True

    for i in range(arity):
        add(tuple(env[i] for env in envs))
    for constant in range(size):
        add(tuple(constant for _ in range(n_points)))

    capped = False
    rounds = 0
    frontier = list(ordered)
    while frontier:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            capped = True
            rounds -= 1
            break
        new: list[tuple[int, ...]] = []
        pool = list(ordered)
        for letter in algebra.alphabet.letters:
            if letter.arity == 0:
                continue
            frontier_set = set(frontier)
            for combo in itertools.product(pool, repeat=letter.arity):
                if not any(part in frontier_set for part in combo):
                    continue
                table = tuple(
                    algebra.op(letter.name, [part[k] for part in combo])
                    for k in range(n_points)
                )
                if add(table):
                    new.append(table)
                    if len(ordered) > max_functions:
                        return PolFunctions(arity, tuple(ordered), True, rounds)
        frontier = new
    return PolFunctions(arity, tuple(ordered), capped, rounds)


def is_minimal_palfy(algebra: FiniteAlgebra, max_functions: int = 20000) -> bool:
    """Every unary polynomial is a constant or a bijection of the carrier."""
    pol1 = generate_polynomials(algebra, 1, max_functions)
    if pol1.capped:
        raise CapExceededError("unary polynomial generation hit its cap")
    for table in pol1.tables:
        constant = len(set(table)) == 1
        bijection = sorted(table) == list(range(algebra.size))
        if not constant and not bijection:
            return False
    return True


@dataclass(frozen=True)
class PairReport:
    """Ordered pairs on which some binary polynomial acts like the Boolean
    operation, each with a witness table; capped generation is flagged."""

    pairs: tuple[tuple[int, int, tuple[int, ...]], ...]
    capped: bool


def _binary_pairs(algebra: FiniteAlgebra, pattern, max_functions: int) -> PairReport:
    pol2 = generate_polynomials(algebra, 2, max_functions)
    size = algebra.size
    found = []
    for a0 in range(size):
        for a1 in range(size):
            if a0 == a1:
                continue
            expected = pattern(a0, a1)
            for table in pol2.tables:
                values = (
                    table[a0 * size + a0],
                    table[a0 * size + a1],
                    table[a1 * size + a0],
                    table[a1 * size + a1],
                )
                if values == expected:
                    found.append((a0, a1, table))
                    break
    return PairReport(tuple(found), pol2.capped)


def or_pairs(algebra: FiniteAlgebra, max_functions: int = 20000) -> PairReport:
    """Pairs (a0, a1) where some binary polynomial restricts to disjunction
    under a0 ~ 0, a1 ~ 1."""
    return _binary_pairs(algebra, lambda a0, a1: (a0, a1, a1, a1), max_functions)


def and_pairs(algebra: FiniteAlgebra, max_functions: int = 20000) -> PairReport:
    return _binary_pairs(algebra, lambda a0, a1: (a0, a0, a0, a1), max_functions)


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
    tuples are congruence-related position by position."""
    if arity_bound < 1 or depth_bound < 1:
        raise ValueError("bounds must be >= 1")
    size = algebra.size
    classes = congruence.class_of()

    def related(xs: tuple[int, ...], ys: tuple[int, ...]) -> bool:
        return all(classes[x] == classes[y] for x, y in zip(xs, ys))

    for arity in range(2, arity_bound + 1):
        pol = generate_polynomials(algebra, arity, max_functions, max_rounds=depth_bound)
        for table in pol.tables:
            def apply(args: tuple[int, ...]) -> int:
                index = 0
                for arg in args:
                    index = index * size + arg
                return table[index]

            for left in itertools.product(range(size), repeat=arity):
                for right in itertools.product(range(size), repeat=arity):
                    if not related(left, right) or apply(left) != apply(right):
                        continue
                    block = [congruence.blocks[classes[left[i]]] for i in range(1, arity)]
                    for tail in itertools.product(*[sorted(b) for b in block]):
                        if apply((left[0],) + tail) != apply((right[0],) + tail):
                            return AbelianVerdict(
                                AbelianViolation(table, arity, left, right, tail),
                                arity_bound,
                                depth_bound,
                            )
    return AbelianVerdict(None, arity_bound, depth_bound)


# --- divisor screens -------------------------------------------------------------


def lattice_divides(
    algebra: FiniteAlgebra,
    use_polynomial_closure: bool = False,
    max_carrier: int = 6,
    max_functions: int = 2000,
) -> DividesWitness | None:
    """Does the two-element lattice divide the algebra?

    With the flag, the operation pool is first extended by generated binary
    polynomials (the lattice only has binary operation roles).  A non-None
    result is a reconstructible witness.  Used as the necessary-condition
    screen: a language whose syntactic algebra is divided by the lattice is
    not definable in the path/chain classes.
    """
    pool = algebra
    if use_polynomial_closure:
        pol2 = generate_polynomials(algebra, 2, max_functions)
        letters = list(algebra.alphabet.letters)
        tables = dict(algebra.tables)
        existing = {table for name, table in algebra.tables.items()
                    if algebra.alphabet[name].arity == 2}
        counter = 0
        for table in pol2.tables:
            if table in existing:
                continue
            name = f"p{counter}"
            counter += 1
            letters.append(Letter(name, 2))
            tables[name] = table
        pool = FiniteAlgebra(RankedAlphabet(tuple(letters)), algebra.size, tables)
    return divides(ALG_LATTICE, pool, max_carrier)


@dataclass(frozen=True)
class SeparationEntry:
    a0: int
    a1: int
    witness: tuple[int, ...]  # the or-pair polynomial table
    separable: bool
    mix_of_a0: frozenset[int]
    mix_of_a1: frozenset[int]


@dataclass(frozen=True)
class SeparationReport:
    entries: tuple[SeparationEntry, ...]
    capped: bool

    @property
    def all_separable(self) -> bool:
        return all(entry.separable for entry in self.entries)

    def inseparable(self) -> tuple[SeparationEntry, ...]:
        return tuple(entry for entry in self.entries if not entry.separable)


def orpair_separation(dbta: Dbta, max_functions: int = 20000) -> SeparationReport:
    """Per or-pair of the reachable algebra, the mix-closure separation test.

    A pair (a0, a1) is separable by a deterministic top-down automaton iff
    a0 is not a mix element of {a1} or a1 is not a mix element of {a0}.  An
    inseparable pair certifies the language is not a path language.
    """
    restricted = reachable(dbta).dbta.algebra
    report = or_pairs(restricted, max_functions)
    entries = []
    mixes_of: dict[int, frozenset[int]] = {}

    def mix_of(element: int) -> frozenset[int]:
        if element not in mixes_of:
            mixes_of[element] = mix_elements(restricted, {element})
        return mixes_of[element]

    for a0, a1, witness in report.pairs:
        mix0, mix1 = mix_of(a0), mix_of(a1)
        separable = (a0 not in mix1) or (a1 not in mix0)
        entries.append(SeparationEntry(a0, a1, witness, separable, mix0, mix1))
    return SeparationReport(tuple(entries), report.capped)
