"""Homology of Milnor fiber boundaries of central plane arrangements.

The pipeline: incidence combinatorics of a projective line arrangement ->
curve-configuration graph -> string insertion and Euler data -> closed
plumbing graph -> first homology via Smith normal form.  A plumbing
calculus engine and the closed-form generic-arrangement algebra ride along
for cross-checking.
"""

__version__ = "0.1.0"

from .arrangement import (
    IncidenceData,
    MultiPoint,
    ProjLine,
    generate_family,
    incidence_from_lines,
    intersect_lines,
    is_generic,
    load_arrangement,
)
from .calculus import MoveSpec, apply_move, apply_script
from .curve_config import build_gamma_c
from .graph_core import (
    Edge,
    PlumbingGraph,
    Vertex,
    first_betti_of_graph,
    graph_from_json,
    graph_to_json,
    to_dot,
    vertex_order,
)
from .homology import AbelianGroup, homology_of_graph, incidence_matrix, smith_normal_form
from .generic_algebra import (
    build_An,
    build_Xn,
    check_lemma_identities,
    generic_h1_closed_form,
)
from .pipeline import (
    betti_formula,
    boundary_graph,
    decorate_and_insert,
    probe_conjecture,
    projective_complement_euler,
    solve_euler,
    strip_arrowheads,
)
from .strings import StringGraph, build_string, hj_continued_fraction, solve_lambda
