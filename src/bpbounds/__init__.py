"""Finite-dimensional bounds on belief-propagation decodable thresholds of
binary and Z_m LDPC code ensembles over memoryless channels.

Importing the package loads numpy and no scipy: each scipy module is
imported inside the functions that use it, never in a per-step loop."""

from .channels import (Bsc, Bec, BiAwgn, BiLaplace, BiRayleigh, Bnsc,
                       BscMixture, MscChannel, MscMixture, CbVector,
                       NoisePair, ReverseBnsc, cb_of, sb_of, pe_of,
                       noise_pair_of, reverse_form, msc_decompose, symmetrize,
                       cb_vector_of, cutoff_rate, pairwise_pe, msc_pe,
                       x_erasure_decompose, x_erasure_vector,
                       parse_channel_spec, CHANNEL_FAMILIES)
from .ensembles import (DegreeEnsemble, regular_ensemble, lambda_eval,
                        rho_eval, lambda2, rho_prime1, design_rate,
                        ensemble_from_json, ensemble_to_json)
from .extremal import (AtomicBscFamily, check_node_maximizer, check_node_dual,
                       variable_node_upper_family, s_envelope,
                       variable_node_pointwise_maximizer, lp_oracle,
                       check_transfer, variable_transfer)
from .binary_bounds import (IterationLimits, BoundTrajectory, ub_cb_step,
                            lb_cb_step, ub_sb_step, two_dim_check_step,
                            phi_variable_sb, two_dim_var_step, iterate_bound,
                            ub_sb_star,
                            SequenceMapperChannel, sequence_mapper_cb,
                            sb_matched_bsc_replacement)
from .zm import (cb_vec_convolve, cb_vec_pointwise, zm_bound_step,
                 zm_iterate, sufficient_stability,
                 necessary_stability_violated, gfq_stability,
                 convergence_rate)
from .de import (DE_MAX_ITER, DeVerdict, channel_density,
                 rayleigh_amplitude_marginal_density, de_decodable, de_threshold)
from .search import (ThresholdResult, RegionGrid, NonMonotoneError,
                     measure_threshold, channel_threshold, region_sweep)

__version__ = "0.1.0"
