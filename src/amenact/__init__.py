"""amenact: exact entropy arithmetic for amenable monoid actions.

The library computes, in exact arithmetic wherever a number is asserted:

* right Folner nets of finitely described cancellative monoids, their
  translation defects, and eps-tilings with checkable certificates;
* the averaged limit f(F_i)/|F_i| for subadditive set functions, with a
  two-variable product rule along a quotient with a good section;
* trajectory-growth entropy of monoid actions on discrete abelian groups,
  including induced actions on invariant subgroups and quotients and the
  additivity identity over torsion groups;
* character duality for finite products and for the compact duals of
  direct sums, pairing trajectory orders with cotrajectory indices.

The ``amenact`` command line runs scenario files against these pieces and
writes exact CSV tables; see ``amenact list``.
"""

from .abelian import (
    AbelianGroup,
    DirectSum,
    FiniteProduct,
    FiniteSubset,
    FreeZ,
    Subgroup,
    ell_of_order,
    minkowski_sum,
    quotient_group,
    subgroup_as_group,
)
from .actions import (
    Action,
    Endomorphism,
    EntropyEstimate,
    GroupIso,
    MatrixEndo,
    MonoidIso,
    ShiftEndo,
    addition_check,
    conjugate_action,
    ent_estimate,
    h_alg_estimate,
    identity_endo,
    locally_nilpotent_probe,
    quotient_and_sub_actions,
    restriction,
    scalar_endo,
    shift_endo,
    subgroup_trajectory,
    trajectory,
    trajectory_function,
)
from .duality import (
    DualGroup,
    OpenSubgroup,
    ProfiniteShiftAction,
    annihilator,
    annihilator_window,
    bridge_check,
    cotrajectory,
    cotrajectory_window,
    ct_check,
    dual_action,
    dual_endomorphism,
    h_top_estimate,
    subgroup_lattice,
)
from .folner import (
    CanonicalNet,
    DefectReport,
    FolnerNet,
    TilingWitness,
    box_net,
    check_tiling,
    greedy_tiler,
    is_eps_disjoint,
    kernel_box_net,
    product_net,
    remtil_check,
    semidirect_defect,
    split_extension_net,
    translate_net,
    verify_folner,
)
from .integral import (
    IntegralEstimate,
    SetFunction,
    card,
    card_pi,
    constant,
    fubini_check,
    integral,
    sample_axioms,
    shifted,
    theta,
    theta_function,
)
from .monoid import (
    BoxSubset,
    CappedAdd,
    FiniteAbelianMonoid,
    FreeAbelian,
    FreeCommutative,
    Monoid,
    MonoidHom,
    MSubset,
    ProductMonoid,
    Section,
    SemidirectZZ,
    fiber,
    fiber_conjugation,
    find_good_section,
    is_good_element,
    mod_hom,
    projection_hom,
    scale_hom,
    semidirect_quotient_hom,
    set_product,
    sym_diff_ratio,
)

__version__ = "0.1.0"
