"""treelab: regular tree languages as finite algebras.

Trees and terms, bottom-up automata and syntactic-algebra minimization, path
languages and the mix closure, top-down transducers with the matrix-power
correspondence, wreath-product cascades with CTL compilation, and structural
checks on finite algebras.
"""

from .errors import (
    AlphabetMismatchError,
    CapExceededError,
    IncompatiblePartitionError,
    ParseError,
    TreelabError,
)
from .trees import (
    Context,
    Letter,
    RankedAlphabet,
    Term,
    Tree,
    Var,
    apply_context,
    enumerate_contexts,
    enumerate_trees,
    parse_term,
    parse_tree,
    parse_word,
    path_words,
    preorder,
    render_tree,
    tree_of,
)
from .automata import (
    Dbta,
    FiniteAlgebra,
    accepts,
    are_equivalent,
    boolean_combine,
    complement,
    eval_term_in_algebra,
    evaluate,
    is_empty,
    reachable,
    with_constants,
)
from .syntactic import SyntacticResult, divides, find_isomorphism, syntactic_algebra, term_definable
from .paths import (
    Dtta,
    PathNfa,
    Separator,
    determinize,
    dtta_accepts,
    dtta_to_dbta,
    is_doubly_deterministic,
    is_universal_path,
    mix_elements,
    mixes,
    path_nfa,
    separate_topdown,
)
from .transduce import (
    Dtop,
    MatrixHom,
    dtop_apply,
    dtop_preimage,
    dtop_to_matrix_hom,
    dtop_word,
    matrix_hom_to_dtops,
    matrix_power_language,
)
from .cascade import (
    Cascade,
    CtlFormula,
    Layer,
    SemiPoly,
    annotate,
    cascade_flatten,
    ctl_compile,
    ctl_eval,
    ctl_parse,
    nest,
    sequential_compose,
    until_language,
)
from .structure import (
    Congruence,
    all_congruences,
    and_pairs,
    generate_polynomials,
    is_minimal_palfy,
    lattice_divides,
    minimal_nontrivial_congruences,
    or_pairs,
    orpair_separation,
    principal_congruence,
    quotient,
    strongly_abelian_check,
)

__version__ = "0.1.0"
