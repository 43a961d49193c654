"""Standard example alphabets, algebras and languages shared by tests and the CLI.

Depth convention: the root has depth 0, so "even depth" includes the root.
"""

from __future__ import annotations

from .automata import Dbta, FiniteAlgebra, product_algebra
from .transduce import Dtop
from .trees import RankedAlphabet, Term, Tree, Var

# unary numerals: s/1, z/0; L_EVEN = even node count
SIG_MONO = RankedAlphabet.of(("s", 1), ("z", 0))
ALG_PARITY_MONO = FiniteAlgebra(SIG_MONO, 2, {"z": (1,), "s": (1, 0)})
L_EVEN = Dbta(ALG_PARITY_MONO, frozenset({0}))

# f2/2, f1/1, f0/0; L_POTT = every leaf at even depth
SIG_POTT = RankedAlphabet.of(("f2", 2), ("f1", 1), ("f0", 0))
ALG_POTT = FiniteAlgebra(
    SIG_POTT,
    3,
    {
        "f0": (0,),
        # f1(a): 0 if a = 1, 1 if a = 0, bot otherwise
        "f1": (1, 0, 2),
        # f2(a,b): 0 if a = b = 1, 1 if a = b = 0, bot otherwise
        "f2": (1, 2, 2, 2, 0, 2, 2, 2, 2),
    },
    element_names=("0", "1", "bot"),
)
DBTA_POTT = Dbta(ALG_POTT, frozenset({0}))
L_POTT = DBTA_POTT

# same condition without the unary letter
SIG_POTT_K = RankedAlphabet.of(("f2", 2), ("f0", 0))
ALG_POTT_K = FiniteAlgebra(
    SIG_POTT_K,
    3,
    {"f0": (0,), "f2": (1, 2, 2, 2, 0, 2, 2, 2, 2)},
    element_names=("0", "1", "bot"),
)
K_POTT = Dbta(ALG_POTT_K, frozenset({0}))

# unary lines: the unique leaf at even depth
SIG_LINE = RankedAlphabet.of(("f1", 1), ("f0", 0))
ALG_LINE = FiniteAlgebra(SIG_LINE, 2, {"f0": (0,), "f1": (1, 0)})
L_LINE_EVEN = Dbta(ALG_LINE, frozenset({0}))

# Boolean formulas with conjunction only / disjunction only / both
SIG_AND = RankedAlphabet.of(("and", 2), ("one", 0), ("zero", 0))
ALG_AND = FiniteAlgebra(SIG_AND, 2, {"one": (1,), "zero": (0,), "and": (0, 0, 0, 1)})
L_TRUE_AND = Dbta(ALG_AND, frozenset({1}))

SIG_OR = RankedAlphabet.of(("or", 2), ("one", 0), ("zero", 0))
ALG_OR = FiniteAlgebra(SIG_OR, 2, {"one": (1,), "zero": (0,), "or": (0, 1, 1, 1)})
L_TRUE_OR = Dbta(ALG_OR, frozenset({1}))

SIG_BOOL = RankedAlphabet.of(("and", 2), ("or", 2), ("one", 0), ("zero", 0))
ALG_BOOL = FiniteAlgebra(
    SIG_BOOL,
    2,
    {"one": (1,), "zero": (0,), "and": (0, 0, 0, 1), "or": (0, 1, 1, 1)},
)
L_TRUE_BOOL = Dbta(ALG_BOOL, frozenset({1}))

# g/2, c/0, d/0 with two tiny finite languages
SIG_GCD = RankedAlphabet.of(("g", 2), ("c", 0), ("d", 0))
ALG_PAIR = FiniteAlgebra(
    SIG_GCD,
    4,
    {
        "c": (0,),
        "d": (1,),
        # g(c,d) hits 2; anything else sinks to 3
        "g": tuple(2 if (a, b) == (0, 1) else 3 for a in range(4) for b in range(4)),
    },
    element_names=("c", "d", "ok", "sink"),
)
L_PAIR = Dbta(ALG_PAIR, frozenset({2}))

ALG_TWO = FiniteAlgebra(
    SIG_GCD,
    4,
    {
        "c": (0,),
        "d": (1,),
        "g": tuple(2 if (a, b) in ((0, 0), (1, 1)) else 3 for a in range(4) for b in range(4)),
    },
    element_names=("c", "d", "ok", "sink"),
)
L_TWO = Dbta(ALG_TWO, frozenset({2}))

ALG_ROOT_G = FiniteAlgebra(
    SIG_GCD,
    2,
    {"c": (0,), "d": (0,), "g": (1, 1, 1, 1)},
)
L_ROOT_G = Dbta(ALG_ROOT_G, frozenset({1}))

L_EMPTY_GCD = Dbta(ALG_ROOT_G, frozenset())
L_FULL_GCD = Dbta(ALG_ROOT_G, frozenset({0, 1}))

# duplicating homomorphism, a one-state DTOP: f0 -> f0, f1(x) -> f2(x,x);
# lines become balanced trees
HOM_DUP = Dtop(
    SIG_LINE,
    SIG_POTT_K,
    1,
    1,
    {
        ("f0", 1): Term(0, Tree(SIG_POTT_K["f0"])),
        ("f1", 1): Term(1, Tree(SIG_POTT_K["f2"], (Var(1), Var(1)))),
    },
)

# a redundant recognizer of L_POTT: product with the node-count parity algebra
ALG_PARITY_POTT = FiniteAlgebra(
    SIG_POTT,
    2,
    {"f0": (1,), "f1": (1, 0), "f2": (1, 0, 0, 1)},
)
_ALG_POTT_X_PARITY = product_algebra(ALG_POTT, ALG_PARITY_POTT)
DBTA_POTT_REDUNDANT = Dbta(_ALG_POTT_X_PARITY, frozenset({0, 1}))  # (0, p) for both p

# two-element semilattice and lattice as bare operation signatures (no constants)
SIG_SEMILATTICE = RankedAlphabet.of(("meet", 2))
ALG_SEMILATTICE = FiniteAlgebra(SIG_SEMILATTICE, 2, {"meet": (0, 0, 0, 1)})

SIG_LATTICE = RankedAlphabet.of(("join", 2), ("meet", 2))
ALG_LATTICE = FiniteAlgebra(SIG_LATTICE, 2, {"join": (0, 1, 1, 1), "meet": (0, 0, 0, 1)})

# the corpus used by cross-cutting property suites and `treelab oracle verify`
CORPUS: tuple[tuple[str, Dbta], ...] = (
    ("l_even", L_EVEN),
    ("l_pott", L_POTT),
    ("l_pott_redundant", DBTA_POTT_REDUNDANT),
    ("k_pott", K_POTT),
    ("l_line_even", L_LINE_EVEN),
    ("l_true_and", L_TRUE_AND),
    ("l_true_or", L_TRUE_OR),
    ("l_true_bool", L_TRUE_BOOL),
    ("l_pair", L_PAIR),
    ("l_two", L_TWO),
    ("l_root_g", L_ROOT_G),
    ("l_empty_gcd", L_EMPTY_GCD),
    ("l_full_gcd", L_FULL_GCD),
)


def corpus_dbta(name: str) -> Dbta:
    for key, dbta in CORPUS:
        if key == name:
            return dbta
    raise KeyError(name)
