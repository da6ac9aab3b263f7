"""hierspec: spectral theory of the hierarchical (Dyson) Laplacian.

Exact spectra, heat kernels, resolvents, the walk annihilated at a
point, Schrodinger perturbations, and the bound-state counting
functionals, all with certified series evaluation and brute-force
matrix cross-checks.
"""

__version__ = "0.1.0"

from .errors import (CertificationError, DivergentIntegralError, DomainError,
                     SpectrumProximityError)
from .lattice import (CubeRef, LatticeParams, Site, WalkTrajectory, cube_of,
                      cube_sites, hier_distance, rho, rho_of_distance,
                      sample_end_sites, sample_walk, site_digits,
                      site_from_digits)
from .hierops import (HaarBasis, SpectrumSummary, VolumeGrid, apply_laplacian,
                      assemble_dense, dense_spectrum, dirichlet_spectrum,
                      expm_action, lanczos_extreme)
from .closedform import (green_tail_integral, green_tail_partial_sum,
                         heat_exterior_mass, heat_kernel, heat_profile, ids,
                         ids_profile, resolvent, resolvent_expansion,
                         resolvent_zero, resolvent_zero_constant, theta,
                         zeta_poles, zeta_spectral)
from .annihilated import (a_coefficient, annihilated_resolvent_zero, p1_diag,
                          p1_small_t, p1_tail_integral,
                          p1_weighted_tail_integral, resolvent_annihilated,
                          resolvent_tilde)
from .schrodinger import (EigenReport, Potential, count_above_threshold,
                          delta_potential, positive_spectrum,
                          potential_from_json, potential_to_json,
                          powerlaw_potential, secular_coupling_threshold,
                          secular_eigenvalue, volume_coupling_threshold)
from .bounds import (BoundReport, bound_report, evaluate_functionals,
                     fitted_constant_range, functional)
