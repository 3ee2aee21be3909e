"""Exact structure theory of symplectic nilpotent t-modules, orbit
classification of orthogonal groups over truncated polynomial rings, and
numerical verification of explicit Siegel-Weil identities."""

from .fields import QQ, GF, PrimeField, RationalField, CharacteristicTwoError
from .tpoly import TruncPoly
from .sntmodule import (
    SntModule, SntSubmodule, LagrangianFlag,
    NotTStableError, EnumerationGuardError, InvalidModuleError,
    make_H, direct_sum, standard_module, decompose, jordan_type,
    quasi_basis, is_t_lagrangian, standard_t_lagrangian,
    enumerate_t_lagrangians, rho_of, graph_of_rho, self_dual_map_space_dim,
)
from .spgroup import (
    SntAutomorphism, BlockProfile, NotAMemberError,
    is_member, block_profile, unipotent_radical_test,
    lie_algebra_basis, radical_lie_basis, random_element,
    sp_group_order, sp_ring_generators, group_closure, cayley, exp_nilpotent,
)
from .orbits import (
    OrthSpace, TensorSpace, TensorElement, OrbitInvariant,
    HypothesisFailedError, IsometryMismatchError,
    hyperbolic_plane, diagonal_space,
    f_matrix, image_of, t_sym, orbit_invariant, same_orbit,
    witt_lift, extend_isometry, witt_extend_field, transport,
    tangent_matrix, is_submersive,
    orthogonal_group_ring, brute_force_orbits, invariant_partition,
    random_orthogonal_ring,
)
from .analytic import (
    IntegralLattice, SiegelPoint, TruncationError, IdentityReport,
    e8, e8e8, d16_plus, rank16_genus, AUT_E8, AUT_E8E8, AUT_D16_PLUS,
    primitive_counts, bernoulli_number, sigma_power,
    theta_basic, theta_colinear, eisenstein_q, eisenstein_lhs,
    mass_constant, verify_identity,
)

__version__ = "0.1.0"
