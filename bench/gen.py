"""Seeded input generators, written in the text formats `treelab.cli` reads.

Everything here is plain data: an alphabet is a tuple of (name, arity) pairs,
a tree is a nested ``(label, children)`` tuple, and an automaton is a
`TableDbta` whose tables list results in lexicographic argument order (the
order of `op` lines in a dbta file).  Nothing here imports `treelab`, so the
answer checks built on these values never use the code under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

FGAB = (("f", 2), ("g", 1), ("a", 0), ("b", 0))
SIG_POTT = (("f2", 2), ("f1", 1), ("f0", 0))
SIG_GCD = (("g", 2), ("c", 0), ("d", 0))


@dataclass(frozen=True)
class TableDbta:
    alphabet: tuple[tuple[str, int], ...]
    size: int
    tables: dict[str, tuple[int, ...]]
    accept: frozenset[int]

    def op(self, name: str, args) -> int:
        index = 0
        for arg in args:
            index = index * self.size + arg
        return self.tables[name][index]


def letters_text(alphabet, keyword: str = "letter") -> str:
    return "".join(f"{keyword} {name} {arity}\n" for name, arity in alphabet)


def ops_text(alphabet, size: int, tables) -> str:
    out = []
    for name, arity in alphabet:
        for args, value in zip(itertools.product(range(size), repeat=arity), tables[name]):
            middle = "".join(f" {x}" for x in args)
            out.append(f"op {name}{middle} -> {value}\n")
    return "".join(out)


def dbta_text(dbta: TableDbta) -> str:
    return (
        letters_text(dbta.alphabet)
        + f"carrier {dbta.size}\n"
        + ops_text(dbta.alphabet, dbta.size, dbta.tables)
        + "accept" + "".join(f" {e}" for e in sorted(dbta.accept)) + "\n"
    )


def _random_accept(rng: random.Random, size: int) -> frozenset[int]:
    accept = {e for e in range(size) if rng.random() < 0.5}
    if not accept or len(accept) == size:
        accept ^= {rng.randrange(size)}
    return frozenset(accept)


def random_dbta(rng: random.Random, size: int, alphabet=FGAB) -> TableDbta:
    """Uniformly random tables: nearly every element and product pair is reachable."""
    tables = {
        name: tuple(rng.randrange(size) for _ in range(size**arity)) for name, arity in alphabet
    }
    return TableDbta(tuple(alphabet), size, tables, _random_accept(rng, size))


def permuted(rng: random.Random, dbta: TableDbta) -> TableDbta:
    """An isomorphic copy under a random renaming of the carrier."""
    perm = list(range(dbta.size))
    rng.shuffle(perm)
    inverse = {new: old for old, new in enumerate(perm)}
    tables = {
        name: tuple(
            perm[dbta.op(name, [inverse[x] for x in args])]
            for args in itertools.product(range(dbta.size), repeat=arity)
        )
        for name, arity in dbta.alphabet
    }
    return TableDbta(dbta.alphabet, dbta.size, tables, frozenset(perm[e] for e in dbta.accept))


def with_flipped(dbta: TableDbta, element: int) -> TableDbta:
    return TableDbta(dbta.alphabet, dbta.size, dbta.tables, dbta.accept ^ {element})


def padded(rng: random.Random, dbta: TableDbta, dead: int) -> TableDbta:
    """Same language, bigger carrier: a node-count parity factor (x, p) -> 2x+p,
    then ``dead`` unreachable elements whose rows point anywhere."""
    size = 2 * dbta.size + dead
    tables = {}
    for name, arity in dbta.alphabet:
        rows = []
        for args in itertools.product(range(size), repeat=arity):
            if any(x >= 2 * dbta.size for x in args):
                rows.append(rng.randrange(size))
            else:
                parity = (1 + sum(x % 2 for x in args)) % 2
                rows.append(2 * dbta.op(name, [x // 2 for x in args]) + parity)
        tables[name] = tuple(rows)
    accept = frozenset(2 * e + p for e in dbta.accept for p in (0, 1))
    return TableDbta(dbta.alphabet, size, tables, accept)


def shift_register(rng: random.Random, size: int) -> TableDbta:
    """Each level shifts one bit into the value: g(x) = 2x+c, f(x, y) = 2x+bit(y)
    (mod size), so a value remembers the last few turns taken along a path."""
    bit = [rng.randrange(2) for _ in range(size)]
    c = rng.randrange(2)
    tables = {
        "f": tuple((2 * x + bit[y]) % size for x in range(size) for y in range(size)),
        "g": tuple((2 * x + c) % size for x in range(size)),
        "a": (0,),
        "b": (1 % size,),
    }
    return TableDbta(FGAB, size, tables, _random_accept(rng, size))


def _table(alphabet, size, rows, accept) -> TableDbta:
    return TableDbta(alphabet, size, rows, frozenset(accept))


_SIG_AND = (("and", 2), ("one", 0), ("zero", 0))
_SIG_MONO = (("s", 1), ("z", 0))
_GCD_PAIRS = [(x, y) for x in range(4) for y in range(4)]

# The builtin languages the `paths` workload names as `@name`, transcribed as
# plain tables so their answers can be checked without the code under test.
CORPUS = {
    "l_pott": _table(SIG_POTT, 3, {"f2": (1, 2, 2, 2, 0, 2, 2, 2, 2), "f1": (1, 0, 2), "f0": (0,)}, {0}),
    "l_even": _table(_SIG_MONO, 2, {"s": (1, 0), "z": (1,)}, {0}),
    "l_true_and": _table(_SIG_AND, 2, {"and": (0, 0, 0, 1), "one": (1,), "zero": (0,)}, {1}),
    "l_pair": _table(
        SIG_GCD, 4, {"g": tuple(2 if p == (0, 1) else 3 for p in _GCD_PAIRS), "c": (0,), "d": (1,)}, {2}
    ),
    "l_two": _table(
        SIG_GCD, 4,
        {"g": tuple(2 if p in ((0, 0), (1, 1)) else 3 for p in _GCD_PAIRS), "c": (0,), "d": (1,)},
        {2},
    ),
    "l_root_g": _table(SIG_GCD, 2, {"g": (1, 1, 1, 1), "c": (0,), "d": (0,)}, {1}),
}


# --- transducers and matrix homomorphisms ------------------------------------


def _random_term(rng: random.Random, names, variables, depth: int) -> str:
    """A term over the ``names`` letters whose leaves are constants or the
    given variable names, each name used at most once."""
    pool = list(variables)
    rng.shuffle(pool)

    def go(depth: int) -> str:
        roll = rng.random()
        if depth > 0 and roll < 0.3:
            return f"{names['g']}({go(depth - 1)})"
        if depth > 0 and roll < 0.55:
            return f"{names['f']}({go(depth - 1)},{go(depth - 1)})"
        if pool and rng.random() < 0.85:
            return pool.pop()
        return rng.choice(names["leaves"])

    return go(depth)


_OUT_NAMES = {"f": "f", "g": "g", "leaves": ["a", "b"]}


def random_dtop_text(rng: random.Random, n_states: int, linear: bool = False) -> tuple[str, dict]:
    """A DTOP from f/2,g/1,a,b to itself, shaped like the transducer tests'
    ``random_dtop``: every rule is a small random term over qP.xI variables,
    and a child may be copied into several states.  A ``linear`` DTOP instead
    relabels: each node becomes one node of the same arity, its children
    (possibly swapped) each read in one random state, so the output has exactly
    as many nodes as the input.  Returns the file text and the rules as
    {(letter, state): term text}."""
    rules = {}
    for name, arity in FGAB:
        for state in range(1, n_states + 1):
            kids = [f"q{rng.randint(1, n_states)}.x{j}" for j in range(1, arity + 1)]
            if not linear:
                variables = [
                    f"q{p}.x{j}" for j in range(1, arity + 1) for p in range(1, n_states + 1)
                ]
                rules[(name, state)] = _random_term(rng, _OUT_NAMES, variables, 2)
            elif arity == 0:
                rules[(name, state)] = rng.choice(_OUT_NAMES["leaves"])
            else:
                rng.shuffle(kids)
                rules[(name, state)] = f"{name}({','.join(kids)})"
    init = rng.randint(1, n_states)
    text = (
        letters_text(FGAB, "input")
        + letters_text(FGAB, "output")
        + f"states {n_states}\ninit {init}\n"
        + "".join(f"rule {q} {name} -> {term}\n" for (name, q), term in rules.items())
    )
    return text, {"rules": rules, "init": init, "states": n_states}


_BASE = (("m", 2), ("u", 1))


def random_matrix_text(rng: random.Random, base_size: int, width: int) -> tuple[str, dict]:
    """A matrix-power hom from f/2,g/1,a,b into the width-th power of a random
    base algebra over m/2, u/1; coordinates are random polynomial terms."""
    base_tables = {
        name: tuple(rng.randrange(base_size) for _ in range(base_size**arity))
        for name, arity in _BASE
    }
    names = {"f": "m", "g": "u", "leaves": [f"@{e}" for e in range(base_size)]}
    tuples = {}
    for name, arity in FGAB:
        variables = [f"x{k}" for k in range(1, width * arity + 1)]
        tuples[name] = [_random_term(rng, names, variables, 2) for _ in range(width)]
    text = (
        letters_text(FGAB, "input")
        + letters_text(_BASE, "base")
        + f"carrier {base_size}\n"
        + ops_text(_BASE, base_size, base_tables)
        + f"width {width}\n"
        + "".join(
            f"tuple {name} {i} -> {term}\n"
            for name, terms in tuples.items()
            for i, term in enumerate(terms, start=1)
        )
    )
    return text, {"base": TableDbta(_BASE, base_size, base_tables, frozenset()), "tuples": tuples}


# --- trees ---------------------------------------------------------------------


def random_split_tree(rng: random.Random, nodes: int, alphabet=FGAB, unary: float = 0.2):
    """A tree with ``nodes`` nodes; binary nodes split the remaining count
    uniformly at random, so depth grows like log(nodes).  Without a unary
    letter only odd sizes exist, and an even request gets one node fewer."""
    binary = [name for name, arity in alphabet if arity == 2]
    unaries = [name for name, arity in alphabet if arity == 1]
    leaves = [name for name, arity in alphabet if arity == 0]
    # iterative build: a task is (count, slot list, index); slots are filled bottom-up
    if not unaries and nodes % 2 == 0:
        nodes -= 1
    root: list = [None]
    stack = [(nodes, root, 0)]
    pending = []
    while stack:
        count, slot, index = stack.pop()
        if count == 1:
            slot[index] = (rng.choice(leaves), ())
            continue
        if not binary or (unaries and (count == 2 or rng.random() < unary)):
            kids = [None]
            pending.append((slot, index, rng.choice(unaries), kids))
            stack.append((count - 1, kids, 0))
            continue
        left = rng.randint(1, count - 2)
        if not unaries:
            left |= 1  # both parts odd: full binary trees have odd sizes
        kids = [None, None]
        pending.append((slot, index, rng.choice(binary), kids))
        stack.append((left, kids, 0))
        stack.append((count - 1 - left, kids, 1))
    for slot, index, label, kids in reversed(pending):
        slot[index] = (label, tuple(kids))
    return root[0]


def spine_tree(rng: random.Random, depth: int, base_nodes: int, alphabet=FGAB):
    """``depth`` unary nodes above a random-split tree."""
    unary = next(name for name, arity in alphabet if arity == 1)
    tree = random_split_tree(rng, base_nodes, alphabet)
    for _ in range(depth):
        tree = (unary, (tree,))
    return tree


def render(tree) -> str:
    """``name`` or ``name(t1,...,tn)``, iteratively, so depth is unbounded."""
    out = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        label, children = item
        out.append(label)
        if children:
            stack.append(")")
            for i in range(len(children) - 1, -1, -1):
                stack.append(children[i])
                if i:
                    stack.append(",")
            stack.append("(")
    return "".join(out)


def postorder(tree) -> list:
    """Nodes children-first; the root is last."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node[1])
    out.reverse()
    return out


def depth_of(tree) -> int:
    deepest = 0
    stack = [(tree, 1)]
    while stack:
        (label, children), d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((child, d + 1) for child in children)
    return deepest


def small_trees(alphabet, max_nodes: int) -> list:
    """Every tree with at most ``max_nodes`` nodes."""
    by_size: list[list] = [[]]
    for size in range(1, max_nodes + 1):
        level = []
        for name, arity in alphabet:
            if arity == 0:
                if size == 1:
                    level.append((name, ()))
            elif arity == 1:
                level.extend((name, (t,)) for t in by_size[size - 1])
            else:
                for left in range(1, size - 1):
                    for lt in by_size[left]:
                        level.extend((name, (lt, rt)) for rt in by_size[size - 1 - left])
        by_size.append(level)
    return [t for level in by_size for t in level]


def tree_sample(rng: random.Random, alphabet, count: int, max_nodes: int) -> list:
    """All trees up to 4 nodes plus ``count`` random-split trees of up to ``max_nodes``."""
    sample = small_trees(alphabet, 4)
    sample += [random_split_tree(rng, rng.randint(5, max_nodes), alphabet) for _ in range(count)]
    return sample


# --- CTL formulas -----------------------------------------------------------------
# A formula is a tuple: ("lbl", name), ("not", f), ("and"|"or", l, r),
# ("next", i, f), ("eu", path, goal), ("du", frozenset of (name, i), frozenset of names).


def ctl_text(formula) -> str:
    kind = formula[0]
    if kind == "lbl":
        return f"lbl({formula[1]})"
    if kind == "not":
        return f"!{ctl_text(formula[1])}"
    if kind in ("and", "or"):
        op = "&" if kind == "and" else "|"
        return f"({ctl_text(formula[1])} {op} {ctl_text(formula[2])})"
    if kind == "next":
        return f"X{formula[1]} {ctl_text(formula[2])}"
    if kind == "eu":
        return f"E[{ctl_text(formula[1])} U {ctl_text(formula[2])}]"
    pairs = ", ".join(f"{n}.{i}" for n, i in sorted(formula[1]))
    return f"DU[{pairs} ; {', '.join(sorted(formula[2]))}]"


def random_atom(rng: random.Random, alphabet, kind: str):
    """A fresh letter test (``kind`` "lbl") or direction-sensitive until ("du")."""
    names = [name for name, _ in alphabet]
    if kind == "lbl":
        return ("lbl", rng.choice(names))
    pairs = [(name, i) for name, arity in alphabet for i in range(1, arity + 1)]
    xs = frozenset(p for p in pairs if rng.random() < 0.5)
    ys = frozenset(n for n in names if rng.random() < 0.4) or frozenset({rng.choice(names)})
    return ("du", xs, ys)


def random_formula(rng: random.Random, alphabet, width: int):
    """A formula whose compiled cascade is about ``width`` bits wide.

    Costs follow the compiler: a letter test, Boolean connective or
    direction-sensitive until adds 1, Next adds 2, EU adds 3, negation adds
    nothing.  Shared subformulas and a negated result move the exact figure,
    which `oracle.compiled_shape` derives.
    """
    max_arity = max(arity for _, arity in alphabet)

    def go(budget: int):
        if budget < 3:
            f = random_atom(rng, alphabet, "lbl" if rng.random() < 0.6 else "du")
        else:
            kinds = ["and", "or", "next"] + (["eu", "eu"] if budget >= 5 else [])
            kind = rng.choice(kinds)
            if kind == "next":
                f = ("next", rng.randint(1, max_arity), go(budget - 2))
            else:
                cost = 3 if kind == "eu" else 1
                left = rng.randint(1, budget - cost - 1)
                f = (kind, go(left), go(budget - cost - left))
        return ("not", f) if rng.random() < 0.2 else f

    return go(width)


def refill_atoms(rng: random.Random, formula, alphabet):
    """The same connective skeleton with every atom redrawn (of the same kind)."""
    kind = formula[0]
    if kind in ("lbl", "du"):
        return random_atom(rng, alphabet, kind)
    if kind == "not":
        return ("not", refill_atoms(rng, formula[1], alphabet))
    if kind == "next":
        return ("next", formula[1], refill_atoms(rng, formula[2], alphabet))
    return (kind, refill_atoms(rng, formula[1], alphabet), refill_atoms(rng, formula[2], alphabet))
