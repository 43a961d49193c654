"""The four workloads: seeded lists of CLI queries, each with an answer check.

A workload is built from one `random.Random`; its inputs are written as text
files before any timing starts, and the program sees only those files, argv
and TREELAB_SEED.  Sizes come from fixed schedules, so another seed changes
the tables, trees and formulas but not how big they are.  Where cost depends
on more than size (`paths` languages, `ctl verify` formulas), a slot holds a
fixed design draw instead.  The seed also shuffles the query order.

Each check returns (agrees with the known answer, size of what the query
printed, in states).  Answers come from construction (a permuted copy is
equivalent, a flipped reachable accepting bit is not) or from the
benchmark's own evaluators in `oracle`, on a fixed seeded sample of small
trees.  A verdict the sample cannot refute counts as agreeing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle
from gen import FGAB, SIG_GCD, SIG_POTT


@dataclass
class Query:
    kind: str
    argv: list[str]
    check: Callable[[str], tuple[bool, int]]
    env_seed: int | None = None  # TREELAB_SEED, for the commands that read it


class Files:
    """Writes generated inputs under one directory, numbered in creation order."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        root.mkdir(parents=True, exist_ok=True)

    def write(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.root / f"{self.count:04d}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)


class Samples:
    """One fixed sample of small trees per alphabet, drawn from its own seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.by_alphabet: dict[tuple, list] = {}

    def __call__(self, alphabet) -> list:
        if alphabet not in self.by_alphabet:
            rng = random.Random(f"{self.seed}/{alphabet}")
            self.by_alphabet[alphabet] = gen.tree_sample(rng, alphabet, 40, 12)
        return self.by_alphabet[alphabet]


def _agrees(text: str, sample: list, member: Callable) -> tuple[bool, int]:
    """The printed automaton accepts exactly the sample trees ``member`` names."""
    dbta = oracle.parse_dbta(text)
    return all(oracle.accepts(dbta, t) == member(t) for t in sample), dbta.size


def _separates(witness: str, left: gen.TableDbta, right: gen.TableDbta) -> bool:
    tree = oracle.parse_tree(witness)
    return oracle.accepts(left, tree) != oracle.accepts(right, tree)


def _build(slots, makers, rng: random.Random, tiny: bool) -> list[Query]:
    """One query per slot (kind, *params), in shuffled order.  ``tiny`` keeps
    the first slot of each kind; schedules list their cheapest slot first."""
    if tiny:
        first = {}
        for slot in slots:
            first.setdefault(slot[0], slot)
        slots = list(first.values())
    queries = [makers[kind](*params) for kind, *params in slots]
    rng.shuffle(queries)
    return queries


# --- decide ----------------------------------------------------------------------

# an independent pair fills all n**2 product elements, a permuted pair reaches
# about n of them; independent pairs stop at 17 to keep a pass near 8 s
PERMUTED_SIZES = [6, 7, 8, 9, 10, 11, 12, 12, 13, 14, 14, 15, 16, 16, 17, 18, 19, 20, 20, 24]
INDEPENDENT_SIZES = [6, 7, 8, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17]
MINIMIZE_SIZES = [6, 7, 8, 9, 10, 11, 12, 13, 14] * 3
BOOL_SIZES = [(4, 4), (4, 6), (5, 5), (6, 6), (6, 8), (7, 7), (8, 8), (8, 10), (9, 9), (10, 10), (10, 12), (12, 12)]
PREIMAGE_SIZES = [(4, 1), (8, 1), (12, 1), (16, 1), (4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (3, 3), (4, 3), (5, 3)]
MATRIX_SIZES = [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)]


def decide(rng: random.Random, files: Files, samples: Samples, tiny: bool = False) -> list[Query]:
    sample = samples(FGAB)

    def equiv(kind: str, n: int, flip: bool) -> Query:
        left = gen.random_dbta(rng, n)
        if kind == "equiv-perm":
            right = left
            if flip:
                right = gen.with_flipped(left, rng.choice(sorted(oracle.reachable(left))))
            right = gen.permuted(rng, right)
        else:
            right = gen.random_dbta(rng, n)

        def check(report: str) -> tuple[bool, int]:
            head, _, witness = report.strip().partition(" ")
            if head == "different":
                return _separates(witness, left, right), 0
            if kind == "equiv-perm":
                return head == "equivalent" and not flip, 0
            return head == "equivalent" and not any(
                oracle.accepts(left, t) != oracle.accepts(right, t) for t in sample
            ), 0

        argv = ["equiv", "--lang", files.write("dbta", gen.dbta_text(left)),
                "--other", files.write("dbta", gen.dbta_text(right))]
        return Query(kind, argv, check)

    def minimize(n: int, dead: int) -> Query:
        dbta = gen.padded(rng, gen.random_dbta(rng, n), dead)
        expected = oracle.minimal_size(dbta)

        def check(report: str) -> tuple[bool, int]:
            head, _, blob = report.partition("\n")
            ok, size = _agrees(blob, sample, lambda t: oracle.accepts(dbta, t))
            return ok and head == f"carrier {expected}" and size == expected, size

        return Query("minimize", ["minimize", "--lang", files.write("dbta", gen.dbta_text(dbta))], check)

    def difference(n1: int, n2: int) -> Query:
        d1, d2 = gen.random_dbta(rng, n1), gen.random_dbta(rng, n2)
        argv = ["bool", "--kind", "difference",
                "--lang", files.write("dbta", gen.dbta_text(d1)),
                "--other", files.write("dbta", gen.dbta_text(d2))]
        return Query("bool-difference", argv, lambda report: _agrees(
            report, sample, lambda t: oracle.accepts(d1, t) and not oracle.accepts(d2, t)))

    def preimage(n: int, states: int) -> Query:
        dbta = gen.random_dbta(rng, n)
        text, dtop = gen.random_dtop_text(rng, states)
        argv = ["dtop", "preimage", "--dtop", files.write("dtop", text),
                "--lang", files.write("dbta", gen.dbta_text(dbta))]
        return Query("dtop-preimage", argv, lambda report: _agrees(
            report, sample, lambda t: oracle.accepts(dbta, oracle.dtop_apply(dtop, t))))

    def flatten(base: int, width: int) -> Query:
        text, mh = gen.random_matrix_text(rng, base, width)
        tuples = sorted(rng.sample(range(base**width), max(1, base**width // 3)))
        accept = {tuple((t // base**k) % base for k in reversed(range(width))) for t in tuples}
        argv = ["matrix", "flatten", "--matrix", files.write("matrix", text),
                "--accept", ";".join(",".join(map(str, t)) for t in sorted(accept))]
        return Query("matrix-flatten", argv, lambda report: _agrees(
            report, sample, lambda t: oracle.matrix_eval(mh, t) in accept))

    slots = (
        [("equiv-perm", n, i % 2 == 1) for i, n in enumerate(PERMUTED_SIZES)]
        + [("equiv-indep", n, False) for n in INDEPENDENT_SIZES]
        + [("minimize", n, 2 + i % 5) for i, n in enumerate(MINIMIZE_SIZES[:25])]
        + [("bool-difference", *s) for s in BOOL_SIZES]
        + [("dtop-preimage", *s) for s in PREIMAGE_SIZES]
        + [("matrix-flatten", *s) for s in MATRIX_SIZES]
    )
    makers = {
        "equiv-perm": lambda n, flip: equiv("equiv-perm", n, flip),
        "equiv-indep": lambda n, flip: equiv("equiv-indep", n, flip),
        "minimize": minimize,
        "bool-difference": difference,
        "dtop-preimage": preimage,
        "matrix-flatten": flatten,
    }
    return _build(slots, makers, rng, tiny)


# --- paths -----------------------------------------------------------------------

# Shift registers as (carrier, mix-closure carrier).  A paths decision costs
# about (carrier * closure carrier)**2, and draws of one carrier vary 50x in
# cost.  Even renaming the carrier of one draw moves its cost up to 3x, since
# fixpoint rounds follow the numbering.  So every shift-register and random
# slot holds one fixed design draw (a shift register with its target closure
# size), and so does each `oracle verify` seed: one seed's corpus drew a
# width-16 formula, which took 2 s and 20 MB more.  The seed orders the queries.
UNIVERSAL_SHIFTS = [(8, 6), (8, 12), (8, 24), (10, 6), (10, 12), (10, 20), (12, 6), (12, 10),
                    (12, 20), (14, 8), (14, 16), (14, 24), (16, 10), (16, 20), (16, 32)]
DOUBLY_SHIFTS = [(8, 8), (10, 10), (12, 12), (14, 14), (16, 16), (10, 20), (14, 20), (16, 24)]
MIXES_SHIFTS = [(8, 8), (8, 20), (10, 10), (10, 30), (12, 12), (12, 20), (14, 14), (14, 30),
                (16, 16), (16, 40)]
SEPARATE_SHIFTS = [(8, 8), (10, 10), (12, 12), (8, 16), (10, 20), (12, 20)]
RANDOM_SIZES = [4, 5, 6, 7, 8, 9, 10]
CORPUS_SEPARATIONS = [
    ("l_pair", "l_two"), ("l_two", "l_pair"), ("l_root_g", "l_pair"),
    ("l_pair", "l_root_g"), ("l_two", "l_root_g"), ("l_root_g", "l_two"),
]


def shift_register_near(rng: random.Random, n: int, target: int) -> gen.TableDbta:
    """A shift register whose mix closure has ``target`` elements, or the
    closest of 2000 draws."""
    best, best_gap = None, None
    for _ in range(2000):
        dbta = gen.shift_register(rng, n)
        gap = abs(oracle.mix_carrier(dbta) - target)
        if best is None or gap < best_gap:
            best, best_gap = dbta, gap
        if gap == 0:
            break
    return best


def _complement(dbta: gen.TableDbta) -> gen.TableDbta:
    return gen.TableDbta(dbta.alphabet, dbta.size, dbta.tables,
                         frozenset(range(dbta.size)) - dbta.accept)


def paths(rng: random.Random, files: Files, samples: Samples, tiny: bool = False) -> list[Query]:
    def language(source: str, param):
        """(argv reference, plain tables) for a corpus language, or for the
        slot's shift-register or random design draw."""
        if source == "corpus":
            return f"@{param}", gen.CORPUS[param]
        *size, slot = param
        design_rng = random.Random(f"paths/{slot}")
        if source == "shift":
            dbta = shift_register_near(design_rng, *size)
        else:
            dbta = gen.random_dbta(design_rng, *size)
        return files.write("dbta", gen.dbta_text(dbta)), dbta

    def no_mix_outside(dbta) -> bool:
        """No sample tree is a path mix of the language while outside it."""
        mix = oracle.PathOracle(dbta)
        return not any(mix.is_mix(t) and not oracle.accepts(dbta, t) for t in samples(dbta.alphabet))

    def universal(source, param) -> Query:
        ref, dbta = language(source, param)

        def check(report: str) -> tuple[bool, int]:
            words = report.split()
            if words == ["yes"]:
                return no_mix_outside(dbta), 0
            witness = oracle.parse_tree(words[2])
            return (words[:2] == ["no", "witness"] and not oracle.accepts(dbta, witness)
                    and oracle.PathOracle(dbta).is_mix(witness)), 0

        return Query("universal-path", ["universal-path", "--lang", ref], check)

    def doubly(source, param) -> Query:
        ref, dbta = language(source, param)

        def check(report: str) -> tuple[bool, int]:
            if report.strip() == "yes":
                return no_mix_outside(dbta) and no_mix_outside(_complement(dbta)), 0
            return report.strip() == "no", 0

        return Query("doubly-det", ["doubly-det", "--lang", ref], check)

    def mixes(source, param) -> Query:
        ref, dbta = language(source, param)
        mix = oracle.PathOracle(dbta)
        carrier = oracle.mix_carrier(dbta)

        def check(report: str) -> tuple[bool, int]:
            ok, size = _agrees(report, samples(dbta.alphabet), mix.is_mix)
            return ok and size == carrier, size

        return Query("mixes", ["mixes", "--lang", ref], check)

    def separate(source, first, second) -> Query:
        ref0, d0 = language(source, first)
        ref1, d1 = language(source, second)

        def check(report: str) -> tuple[bool, int]:
            head, _, blob = report.partition("\n")
            if head == "none":
                return True, 0
            side = int(head.split()[-1])
            inside, outside = (d0, d1) if side == 0 else (d1, d0)
            dtta = oracle.parse_dtta(blob)
            ok = all(
                oracle.dtta_accepts(dtta, t) == oracle.accepts(inside, t)
                for t in samples(d0.alphabet)
                if oracle.accepts(inside, t) or oracle.accepts(outside, t)
            )
            return ok and head.startswith("separator accepts-side"), dtta["states"]

        return Query("separate", ["separate", "--lang", ref0, "--other", ref1], check)

    def oracle_verify(seed: int) -> Query:
        def check(report: str) -> tuple[bool, int]:
            lines = report.splitlines()
            return lines[-1:] == ["ok"] and sum(line.startswith("suite ") for line in lines) == 7, 0

        return Query("oracle-verify", ["oracle", "verify", "--count", "3"], check, env_seed=seed)

    corpus = ["l_pott", "l_pair", "l_two", "l_true_and", "l_even"]
    randoms = RANDOM_SIZES + RANDOM_SIZES[:3]
    slots = (
        [("universal-path", "shift", (*p, f"up{i}")) for i, p in enumerate(UNIVERSAL_SHIFTS)]
        + [("universal-path", "random", (n, f"up-r{i}")) for i, n in enumerate(randoms)]
        + [("universal-path", "corpus", name) for name in corpus]
        + [("doubly-det", "shift", (*p, f"dd{i}")) for i, p in enumerate(DOUBLY_SHIFTS)]
        + [("doubly-det", "random", (n, f"dd-r{i}")) for i, n in enumerate(RANDOM_SIZES[:4] * 2)]
        + [("doubly-det", "corpus", name) for name in ["l_pott", "l_two", "l_root_g", "l_pair"]]
        + [("mixes", "shift", (*p, f"mix{i}")) for i, p in enumerate(MIXES_SHIFTS)]
        + [("mixes", "random", (n, f"mix-r{i}")) for i, n in enumerate(randoms)]
        + [("mixes", "corpus", name) for name in corpus]
        + [("separate", "random", (n, f"sep-r{i}"), (n, f"sep-r{i}b"))
           for i, n in enumerate(RANDOM_SIZES[:5] + RANDOM_SIZES[:3])]
        + [("separate", "shift", (*p, f"sep{i}"), (*p, f"sep{i}b"))
           for i, p in enumerate(SEPARATE_SHIFTS)]
        + [("separate", "corpus", a, b) for a, b in CORPUS_SEPARATIONS]
        + [("oracle-verify", random.Random(f"paths/oracle{i}").randrange(10**6)) for i in range(5)]
    )
    makers = {
        "universal-path": universal, "doubly-det": doubly, "mixes": mixes,
        "separate": separate, "oracle-verify": oracle_verify,
    }
    return _build(slots, makers, rng, tiny)


# --- ctl -------------------------------------------------------------------------

# Compile cost grows with the letters of every layer, |alphabet| * 2**(bits
# before it), so it is fixed by the formula's skeleton.  Each slot has a fixed
# design formula of its width; for `ctl compile` the seed redraws its atoms.
# Verification cost also follows the atoms and the corpus seed, which seeds
# moved by 20%, so `ctl verify` slots keep their design formula or seed.
COMPILE_WIDTHS = list(range(2, 14)) * 3 + [14, 14, 15, 16]
VERIFY_WIDTHS = list(range(2, 14)) * 3 + [10, 11, 12, 13]
CORPUS_COUNTS = [5, 10, 15, 20] * 5
CORPUS_MAX_WIDTH = 10
ALPHABETS = {"@sig_pott": SIG_POTT, "@sig_gcd": SIG_GCD}


def formula_of_width(rng: random.Random, alphabet, width: int):
    """A random formula whose compiled cascade is exactly ``width`` wide,
    or the closest of 200 draws."""
    best = None
    for _ in range(200):
        formula = gen.random_formula(rng, alphabet, width)
        got = sum(oracle.compiled_shape(formula)[0])
        if got <= 16 and (best is None or abs(got - width) < abs(best[0] - width)):
            best = (got, formula)
        if got == width:
            break
    return best[1]


def design_formula(ref: str, width: int, slot: str):
    """The slot's fixed design formula of compiled width ``width``."""
    return formula_of_width(random.Random(f"ctl/{slot}"), ALPHABETS[ref], width)


def shaped_formula(rng: random.Random, ref: str, width: int, slot: str):
    """The slot's design skeleton with atoms drawn from ``rng``, redrawn
    until the compiled layer widths match the design's."""
    design = design_formula(ref, width, slot)
    widths = oracle.compiled_shape(design)[0]
    for _ in range(100):
        formula = gen.refill_atoms(rng, design, ALPHABETS[ref])
        if oracle.compiled_shape(formula)[0] == widths:
            return formula
    return design


def ctl(rng: random.Random, files: Files, samples: Samples, tiny: bool = False) -> list[Query]:
    def compile_query(ref: str, width: int, slot: str) -> Query:
        alphabet = ALPHABETS[ref]
        formula = shaped_formula(rng, ref, width, slot)
        widths, (out_layer, out_coord) = oracle.compiled_shape(formula)
        expected = [f"layers {len(widths)}", f"total-width {sum(widths)}"]
        expected += [
            f"layer {i} width {w} letters {len(alphabet) << sum(widths[:i])}"
            for i, w in enumerate(widths)
        ]
        expected.append(f"output {out_layer} {out_coord}")
        states = sum(1 << w for w in widths)
        argv = ["ctl", "compile", "--alphabet", ref, "--formula", gen.ctl_text(formula)]
        return Query("ctl-compile", argv, lambda report: (report.splitlines() == expected, states))

    def agreement(trees: int, formulas: int) -> str:
        return f"agree on {trees * formulas} checks ({formulas} formulas, {trees} trees)"

    def verify_query(ref: str, width: int, slot: str) -> Query:
        formula = design_formula(ref, width, slot)
        expected = agreement(len(gen.small_trees(ALPHABETS[ref], 8)), 1)
        argv = ["ctl", "verify", "--alphabet", ref, "--formula", gen.ctl_text(formula)]
        return Query("ctl-verify", argv, lambda report: (report.strip() == expected, 0))

    def corpus_query(ref: str, count: int, slot: str) -> Query:
        expected = agreement(len(gen.small_trees(ALPHABETS[ref], 8)), count)
        argv = ["ctl", "verify", "--alphabet", ref, "--count", str(count),
                "--max-width", str(CORPUS_MAX_WIDTH)]
        return Query("ctl-verify-corpus", argv, lambda report: (report.strip() == expected, 0),
                     env_seed=random.Random(f"ctl/{slot}").randrange(10**6))

    refs = list(ALPHABETS)
    slots = (
        [("ctl-compile", refs[i % 2], w, f"compile/{i}") for i, w in enumerate(COMPILE_WIDTHS)]
        + [("ctl-verify", refs[i % 2], w, f"verify/{i}") for i, w in enumerate(VERIFY_WIDTHS)]
        + [("ctl-verify-corpus", refs[i % 2], c, f"corpus/{i}") for i, c in enumerate(CORPUS_COUNTS)]
    )
    makers = {"ctl-compile": compile_query, "ctl-verify": verify_query,
              "ctl-verify-corpus": corpus_query}
    return _build(slots, makers, rng, tiny)


# --- bigtrees --------------------------------------------------------------------

TREE_SIZES = [2000, 2500, 3000, 3500, 4000, 5000, 6000, 8000, 10000, 20000]
CTL_TREE_SIZES = [200, 500, 1000, 1500, 2000]
SPINE_DEPTH = 2000


def bigtrees(rng: random.Random, files: Files, samples: Samples, tiny: bool = False) -> list[Query]:
    def membership(kind: str, nodes: int) -> Query:
        dbta = gen.random_dbta(rng, rng.randint(4, 12))
        tree = gen.random_split_tree(rng, nodes)
        return _membership(kind, files.write("dbta", gen.dbta_text(dbta)), dbta, tree)

    def transduce(nodes: int, states: int) -> Query:
        tree = gen.random_split_tree(rng, nodes)
        if states > 1:
            # dtop_apply runs every (state, child) pair, so its work grows like
            # states**depth: keep these trees shallow
            while gen.depth_of(tree) > 9:
                tree = gen.random_split_tree(rng, nodes)
        text, dtop = gen.random_dtop_text(rng, states, linear=True)
        return _transduce(files.write("dtop", text), dtop, tree)

    def ctl_eval(ref: str, nodes: int) -> Query:
        formula = formula_of_width(rng, ALPHABETS[ref], rng.randint(2, 12))
        tree = gen.random_split_tree(rng, nodes, ALPHABETS[ref])
        return _ctl_eval(ref, formula, tree)

    refs = list(ALPHABETS)
    slots = (
        [("accepts", n) for n in TREE_SIZES * 3]
        + [("eval", n) for n in TREE_SIZES * 2 + TREE_SIZES[::2]]
        + [("dtop-apply", n, 1) for n in TREE_SIZES * 2]
        + [("dtop-apply", n, 2) for n in [30, 35, 40, 45, 50]]
        + [("ctl-eval", refs[i % 2], n) for i, n in enumerate(CTL_TREE_SIZES * 4)]
    )
    makers = {
        "accepts": lambda n: membership("accepts", n),
        "eval": lambda n: membership("eval", n),
        "dtop-apply": transduce,
        "ctl-eval": ctl_eval,
    }
    return _build(slots, makers, rng, tiny)


def deep_spines(rng: random.Random, files: Files) -> list[Query]:
    """One query per bigtrees command on a tree with a unary spine of
    SPINE_DEPTH nodes.  The runner keeps them out of the timed loop and
    reports how many fail."""
    dbta = gen.random_dbta(rng, 6)
    ref = files.write("dbta", gen.dbta_text(dbta))
    text, dtop = gen.random_dtop_text(rng, 1, linear=True)
    formula = formula_of_width(rng, SIG_POTT, 6)
    return [
        _membership("accepts", ref, dbta, gen.spine_tree(rng, SPINE_DEPTH, 100)),
        _membership("eval", ref, dbta, gen.spine_tree(rng, SPINE_DEPTH, 100)),
        _transduce(files.write("dtop", text), dtop, gen.spine_tree(rng, SPINE_DEPTH, 100)),
        _ctl_eval("@sig_pott", formula, gen.spine_tree(rng, SPINE_DEPTH, 100, SIG_POTT)),
    ]


def _membership(kind: str, ref: str, dbta, tree) -> Query:
    value = oracle.fold(dbta, tree)
    expected = f"value {value}" if kind == "eval" else ("yes" if value in dbta.accept else "no")
    argv = [kind, "--lang", ref, "--tree", gen.render(tree)]
    return Query(kind, argv, lambda report: (report.strip() == expected, 0))


def _transduce(ref: str, dtop: dict, tree) -> Query:
    expected = gen.render(oracle.dtop_apply(dtop, tree))
    nodes = len(gen.postorder(tree))
    argv = ["dtop", "apply", "--dtop", ref, "--tree", gen.render(tree)]
    return Query("dtop-apply", argv, lambda report: (report.strip() == expected, nodes))


def _ctl_eval(ref: str, formula, tree) -> Query:
    expected = "yes" if oracle.ctl_holds(formula, tree) else "no"
    argv = ["ctl", "eval", "--alphabet", ref, "--formula", gen.ctl_text(formula),
            "--tree", gen.render(tree)]
    return Query("ctl-eval", argv, lambda report: (report.strip() == expected, 0))


WORKLOADS = {"decide": decide, "paths": paths, "ctl": ctl, "bigtrees": bigtrees}
