"""Exact symbolic computation in free planar-tree algebras and their Hopf
structures: grafting calculus on planar rooted trees, the co-addition and
its dual shuffle product, dendriform / planar-forest / first-leaf-product
coproducts, primitive-space dimensions, and the graded Hopf isomorphisms
between the three binary-tree Hopf algebras."""

from .trees import (ANON, EMPTY, Forest, ParseError, PlanarTree, TreeError,
                    admissible_cuts, arity_census, binary_to_forest,
                    comb_graft, degraft, enumerate_forests, enumerate_ptrees,
                    enumerate_shuffles, enumerate_trees, forest_to_binary,
                    format_forest, format_malcev, format_tree, graft, leaf,
                    leaf_restrict, leaf_split, mirror, node, parse_forest,
                    parse_tree, reduced, relabel, right_comb_presentation,
                    sequence, sorted_children, substitute_at_leaf)
from .linear import (LinComb, RationalMatrix, apply_leg, format_poly,
                     kernel_basis, kernel_of, pairing, parse_poly, rank,
                     solve_exact, tensor)
from .magma import (associator, commutator, constants_basis,
                    constants_projection, dot, mu_count, partial_k,
                    partial_kj, partial_tree, taylor_expand,
                    ternary_associator, unit, var, vee)
from .dendriform import (Y, YLEAF, circ_alpha, corrected_comb, delta_bf,
                         delta_ck, delta_lr, over, prec, star, succ, under,
                         vee_leaf)
from .hopf import (antipode_left, antipode_right, coadd, coproduct,
                   is_primitive, nabla2, reduced_coproduct, shuffle)
from .primitives import (GradedComponent, component, highest_weight_basis,
                         jacobi_check, named_primitives, pbw_check,
                         prim_basis, prim_dim)
from .isos import psi, theta, verify_hopf_morphism, xi

__version__ = "0.1.0"
