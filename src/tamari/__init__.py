"""Tamari intervals, meandering diagrams, and bicolored blossoming trees.

A library for the bijection between intervals of the Tamari lattice and
bicolored blossoming trees, built from two half-steps: the diagram drawing
of a pair of binary trees (a meandering diagram, a tree exactly when the
pair is an interval) and the planar closure of a blossoming tree.  On top
of the bijection sit family classifiers (synchronized, modern, infinitely
modern, Kreweras), exact counting formulas including self-dual refinements,
and an exact uniform random sampler driven by the cycle lemma.
"""

from .errors import (
    InvalidBlossoming,
    InvalidBracketVector,
    InvalidDecomposition,
    InvalidDiagram,
    InvalidDyckWord,
    InvalidSequence,
    NotAnInterval,
    NotATree,
    NotDerisable,
    SizeMismatch,
    TamariError,
    UnsupportedSize,
)
from .trees import (
    LEAF,
    BinaryTree,
    bracket_vector,
    canopy,
    contact_vector,
    degree_vector,
    descent_vector,
    dual_bracket_vector,
    dual_degree_vector,
    dyck_from_tree,
    enumerate_binary_trees,
    mirror,
    right_rotations,
    smooth_arcs,
    tamari_leq,
    tree_from_bracket_vector,
    tree_from_dual_bracket_vector,
    tree_from_dyck,
)
from .intervals import (
    NonCrossingPartition,
    TamariInterval,
    bi_length_vector,
    canopy_type_counts,
    derise,
    dual_interval,
    enumerate_intervals,
    interval_from_text,
    interval_to_text,
    iota,
    is_infinitely_modern,
    is_k_modern,
    is_kreweras,
    is_modern,
    is_new,
    is_self_dual,
    is_synchronized,
    is_trivial,
    make_interval,
    refines,
    rise,
)
from .meandering import (
    MeanderingDiagram,
    compose,
    decompose,
    diagram_from_json,
    diagram_to_json,
    flawed_pairs,
    from_tree_pair,
    half_turn,
    is_meandering_tree,
    non_kreweras_pairs,
    to_tree_pair,
)
from .blossoming import (
    BlossomingTree,
    closure,
    from_interval,
    from_meandering,
    is_half_turn_symmetric,
    reflect,
    reflect_interval,
    switch_colors,
    to_interval,
    to_meandering,
)
from .counting import (
    Family,
    count,
    count_by_canopy_matches,
    count_self_dual,
    count_synchronized_by_types,
    narayana,
    tally,
    trivariate_coefficients,
)
from .sampler import (
    RandomSource,
    sample_blossoming,
    sample_composition,
    sample_interval,
)
from .render import Figure, render_blossoming, render_meandering, render_smooth

__version__ = "0.1.0"
