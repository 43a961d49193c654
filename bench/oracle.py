"""The benchmark's own reference semantics, used to check every report.

These are small, direct implementations over the plain data of `gen`: a
table fold for automata, a top-down run for DTTAs, substitution for DTOPs,
polynomial evaluation for matrix homs, a bottom-up labelling for CTL, and
path-word membership by dynamic programming.  None of them calls `treelab`.
All tree walks are iterative, so tree depth is not limited by recursion.
"""

from __future__ import annotations

import itertools
import re

from gen import TableDbta, postorder

_TOKEN = re.compile(r"\s*([A-Za-z0-9_@.|']+|[(),])")


def parse_tree(text: str):
    """Inverse of `gen.render`; names may contain `.` and `@` (variables, constants)."""
    tokens = _TOKEN.findall(text)
    stack: list[tuple[str, list]] = []
    last = None
    for i, tok in enumerate(tokens):
        if tok == "(":
            continue
        if tok == ",":
            stack[-1][1].append(last)
            continue
        if tok == ")":
            label, kids = stack.pop()
            kids.append(last)
            last = (label, tuple(kids))
            continue
        if i + 1 < len(tokens) and tokens[i + 1] == "(":
            stack.append((tok, []))
        else:
            last = (tok, ())
    if stack or last is None:
        raise ValueError(f"malformed tree text {text[:40]!r}")
    return last


def parse_dbta(text: str) -> TableDbta:
    """A `dbta` blob as `treelab` prints it."""
    alphabet, rows, size, accept = [], {}, 0, frozenset()
    for line in text.splitlines():
        cells = line.split("#", 1)[0].split()
        if not cells:
            continue
        if cells[0] == "letter":
            alphabet.append((cells[1], int(cells[2])))
            rows[cells[1]] = {}
        elif cells[0] == "carrier":
            size = int(cells[1])
        elif cells[0] == "op":
            rows[cells[1]][tuple(int(x) for x in cells[2:-2])] = int(cells[-1])
        elif cells[0] == "accept":
            accept = frozenset(int(x) for x in cells[1:])
    tables = {
        name: tuple(rows[name][args] for args in itertools.product(range(size), repeat=arity))
        for name, arity in alphabet
    }
    return TableDbta(tuple(alphabet), size, tables, accept)


def fold(dbta: TableDbta, tree) -> int:
    """Value of the tree: each node's table entry at its children's values.
    Shared subtrees (a DTOP output copies them) are evaluated once."""
    value: dict[int, int] = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        if id(node) in value:
            stack.pop()
            continue
        pending = [child for child in node[1] if id(child) not in value]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        value[id(node)] = dbta.op(node[0], [value[id(c)] for c in node[1]])
    return value[id(tree)]


def accepts(dbta: TableDbta, tree) -> bool:
    return fold(dbta, tree) in dbta.accept


def reachable(dbta: TableDbta) -> set[int]:
    known: set[int] = set()
    while True:
        new = {
            dbta.op(name, args)
            for name, arity in dbta.alphabet
            for args in itertools.product(sorted(known), repeat=arity)
        } - known
        if not new:
            return known
        known |= new


def minimal_size(dbta: TableDbta) -> int:
    """Carrier of the minimal recognizer: Moore-style refinement of the
    reachable elements, starting from accepting vs rejecting."""
    reach = sorted(reachable(dbta))
    cls = {e: int(e in dbta.accept) for e in reach}
    while True:
        signature = {}
        for e in reach:
            sig = [cls[e]]
            for name, arity in dbta.alphabet:
                for pos in range(arity):
                    for others in itertools.product(reach, repeat=arity - 1):
                        args = others[:pos] + (e,) + others[pos:]
                        sig.append(cls[dbta.op(name, args)])
            signature[e] = tuple(sig)
        ids: dict[tuple, int] = {}
        new = {e: ids.setdefault(signature[e], len(ids)) for e in reach}
        if len(ids) == len(set(cls.values())):
            return max(len(ids), 1)
        cls = new


# --- path words -----------------------------------------------------------------


class PathOracle:
    """Membership of root-to-leaf path words in the path language of a DBTA:
    some member tree shows the word along one of its paths."""

    def __init__(self, dbta: TableDbta):
        self.dbta = dbta
        self.reach = sorted(reachable(dbta))
        self.memo: dict[tuple, frozenset[int]] = {}

    def _values(self, word: tuple) -> frozenset[int]:
        """Values a tree can take while showing ``word`` on its spine."""
        if word in self.memo:
            return self.memo[word]
        leaf = word[-1]
        values = frozenset({self.dbta.op(leaf, ())})
        for k in range(len(word) - 2, -1, -1):
            name, position = word[k]
            arity = dict(self.dbta.alphabet)[name]
            values = frozenset(
                self.dbta.op(name, others[: position - 1] + (spine,) + others[position - 1 :])
                for spine in values
                for others in itertools.product(self.reach, repeat=arity - 1)
            )
        self.memo[word] = values
        return values

    def word_ok(self, word: tuple) -> bool:
        return bool(self._values(word) & self.dbta.accept)

    def is_mix(self, tree) -> bool:
        """Every path word of the tree occurs in some member of the language."""
        return all(self.word_ok(word) for word in path_words(tree))


def mix_carrier(dbta: TableDbta) -> int:
    """Carrier of the mix closure's bottom-up automaton, which sets the cost
    of every `paths` decision on the language.

    The path automaton reads a path word root to leaf; its subset
    construction (the empty subset included) is a deterministic top-down
    automaton, and the value of a tree is the set of its states from which
    every path of the tree is accepted.  Sets are bitmasks over those states.
    """
    reach = sorted(reachable(dbta))
    arity = dict(dbta.alphabet)
    succ: dict[tuple, set[int]] = {}
    for name, k in dbta.alphabet:
        for args in itertools.product(reach, repeat=k):
            value = dbta.op(name, args)
            for i, arg in enumerate(args):
                succ.setdefault((value, name, i), set()).add(arg)
    start = frozenset(dbta.accept & set(reach))
    index = {start: 0}
    order = [start]
    delta: list[dict[str, tuple[int, ...]]] = []
    for subset in order:  # grows while iterating: breadth-first subset construction
        row = {}
        for name, k in dbta.alphabet:
            targets = []
            for i in range(k):
                target = frozenset(x for e in subset for x in succ.get((e, name, i), ()))
                if target not in index:
                    index[target] = len(order)
                    order.append(target)
                targets.append(index[target])
            row[name] = tuple(targets)
        delta.append(row)
    # pre[name][i][s]: states whose i-th successor under name is s
    pre = {name: [[0] * len(order) for _ in range(k)] for name, k in dbta.alphabet}
    for q, row in enumerate(delta):
        for name, targets in row.items():
            for i, s in enumerate(targets):
                pre[name][i][s] |= 1 << q

    def union(name: str, i: int, mask: int) -> int:
        out = 0
        for s in range(len(order)):
            if mask >> s & 1:
                out |= pre[name][i][s]
        return out

    reached = {
        sum(1 << q for q, subset in enumerate(order) if dbta.op(name, ()) in subset)
        for name, k in dbta.alphabet if k == 0
    }
    while True:
        pool = sorted(reached)
        new = set()
        for name, k in dbta.alphabet:
            if k == 0:
                continue
            unions = [{m: union(name, i, m) for m in pool} for i in range(k)]
            for masks in itertools.product(pool, repeat=arity[name]):
                value = -1
                for i, m in enumerate(masks):
                    value &= unions[i][m]
                new.add(value)
        new -= reached
        if not new:
            return len(reached)
        reached |= new


def path_words(tree) -> list[tuple]:
    out = []
    stack = [(tree, ())]
    while stack:
        (label, children), prefix = stack.pop()
        if not children:
            out.append(prefix + (label,))
        for i, child in enumerate(children, start=1):
            stack.append((child, prefix + ((label, i),)))
    return out


# --- DTTA ------------------------------------------------------------------------


def parse_dtta(text: str) -> dict:
    dtta = {"delta": {}, "ok": set(), "init": 0, "states": 0}
    for line in text.splitlines():
        cells = line.split()
        if not cells:
            continue
        if cells[0] == "states":
            dtta["states"] = int(cells[1])
        elif cells[0] == "init":
            dtta["init"] = int(cells[1])
        elif cells[0] == "delta":
            dtta["delta"][(int(cells[1]), cells[2])] = tuple(int(x) for x in cells[4:])
        elif cells[0] == "leaf" and cells[4] == "accept":
            dtta["ok"].add((int(cells[1]), cells[2]))
    return dtta


def dtta_accepts(dtta: dict, tree) -> bool:
    """All-paths semantics: every leaf is reached in a state accepting its letter."""
    stack = [(tree, dtta["init"])]
    while stack:
        (label, children), state = stack.pop()
        if not children:
            if (state, label) not in dtta["ok"]:
                return False
            continue
        successors = dtta["delta"][(state, label)]
        stack.extend(zip(children, successors))
    return True


# --- transducers and matrix homs ---------------------------------------------------


def dtop_apply(dtop: dict, tree):
    """Output tree of a DTOP from its initial state (rules as term text)."""
    rules = {key: parse_tree(term) for key, term in dtop["rules"].items()}
    states = range(1, dtop["states"] + 1)
    out: dict[tuple[int, int], tuple] = {}
    for node in postorder(tree):
        for q in states:
            out[(id(node), q)] = _substitute(
                rules[(node[0], q)],
                lambda var: out[(id(node[1][var[1] - 1]), var[0])],
            )
    return out[(id(tree), dtop["init"])]


_VAR = re.compile(r"q(\d+)\.x(\d+)$")


def _substitute(term, lookup):
    """Replace `qP.xJ` leaves by lookup((P, J)); terms here are a few nodes deep."""
    label, children = term
    if not children:
        match = _VAR.match(label)
        return lookup((int(match[1]), int(match[2]))) if match else term
    return (label, tuple(_substitute(child, lookup) for child in children))


def matrix_eval(mh: dict, tree) -> tuple[int, ...]:
    base: TableDbta = mh["base"]
    polys = {name: [parse_tree(t) for t in terms] for name, terms in mh["tuples"].items()}
    values: dict[int, tuple[int, ...]] = {}
    for node in postorder(tree):
        flat = tuple(v for child in node[1] for v in values[id(child)])
        values[id(node)] = tuple(_poly(base, p, flat) for p in polys[node[0]])
    return values[id(tree)]


def _poly(base: TableDbta, body, flat) -> int:
    label, children = body
    if not children:
        if label.startswith("@"):
            return int(label[1:])
        if label.startswith("x") and label[1:].isdigit():
            return flat[int(label[1:]) - 1]
    return base.op(label, [_poly(base, child, flat) for child in children])


# --- CTL ---------------------------------------------------------------------------


def ctl_holds(formula, tree) -> bool:
    """Bottom-up labelling, one pass per subformula.

    E[p U g] holds at v iff g(v), or some child c has R(c), where
    R(u) = g(u) or (p(u) and some child of u has R); the root and the witness
    are exempt from p.  DU[xs ; ys] holds at v iff label(v) is in ys, or some
    i-th child satisfies it and (label(v), i) is in xs.
    """
    nodes = postorder(tree)
    memo: dict = {}

    def label(f) -> dict[int, bool]:
        if f in memo:
            return memo[f]
        kind = f[0]
        out: dict[int, bool] = {}
        if kind == "lbl":
            out = {id(n): n[0] == f[1] for n in nodes}
        elif kind == "not":
            sub = label(f[1])
            out = {k: not v for k, v in sub.items()}
        elif kind in ("and", "or"):
            left, right = label(f[1]), label(f[2])
            both = (lambda a, b: a and b) if kind == "and" else (lambda a, b: a or b)
            out = {k: both(left[k], right[k]) for k in left}
        elif kind == "next":
            sub = label(f[2])
            out = {id(n): len(n[1]) >= f[1] and sub[id(n[1][f[1] - 1])] for n in nodes}
        elif kind == "eu":
            path, goal = label(f[1]), label(f[2])
            reach: dict[int, bool] = {}
            for n in nodes:
                below = any(reach[id(c)] for c in n[1])
                reach[id(n)] = goal[id(n)] or (path[id(n)] and below)
                out[id(n)] = goal[id(n)] or below
        else:
            xs, ys = f[1], f[2]
            for n in nodes:
                out[id(n)] = n[0] in ys or any(
                    out[id(c)] and (n[0], i) in xs for i, c in enumerate(n[1], start=1)
                )
        memo[f] = out
        return out

    return label(formula)[id(tree)]


def compiled_shape(formula) -> tuple[list[int], tuple[int, int]]:
    """Layer widths and output (layer, coordinate) of the compiled cascade.

    Mirrors the compilation scheme: one layer per letter test, connective and
    until (width 1), Next (width 2), EU (width 2 then 1); negation flips a
    polarity; identical subformulas compile once; a negated result gets one
    more width-1 layer.
    """
    widths: list[int] = []
    memo: dict = {}

    def go(f) -> tuple[int, int, bool]:
        if f in memo:
            return memo[f]
        kind = f[0]
        if kind == "not":
            layer, coord, neg = go(f[1])
            ref = (layer, coord, not neg)
        elif kind in ("and", "or"):
            go(f[1])
            go(f[2])
            widths.append(1)
            ref = (len(widths) - 1, 0, False)
        elif kind == "next":
            go(f[2])
            widths.append(2)
            ref = (len(widths) - 1, 1, False)
        elif kind == "eu":
            go(f[1])
            go(f[2])
            widths.extend((2, 1))
            ref = (len(widths) - 1, 0, False)
        else:
            widths.append(1)
            ref = (len(widths) - 1, 0, kind == "du")
        memo[f] = ref
        return ref

    layer, coord, neg = go(formula)
    if neg:
        widths.append(1)
        layer, coord = len(widths) - 1, 0
    return widths, (layer, coord)
