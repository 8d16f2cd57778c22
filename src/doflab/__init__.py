"""Degrees-of-freedom bounds and optimal linear schemes for the multicell
MIMO multiple access channel, with Monte Carlo verification harnesses."""

from .bounds import (DofBoundReport, RX_HEAVY, TX_HEAVY, converse_two_cell,
                     dof_outer_bound, per_message_set_bound, antenna_profile,
                     two_user_ic_dof)
from .errors import (ConfigurationError, ContractError, DegeneracyError,
                     DimensionError, DoflabError, InputError, RankError)
from .linalg import (SubspaceBasis, Tolerance, intersection_dim,
                     null_space_basis, numeric_rank, orthonormalize_rows,
                     random_matrix, range_basis, seeded_rng)
from .network import (ChannelSet, NetworkConfig, channel_set,
                      channel_set_from_dict, channel_set_to_dict,
                      generate_channels)
from .schemes import (NSIA, RANDOM, Scheme, SchemeReport, ZF, build_nsia,
                      build_zf_precoders, pi_transform, verify_scheme)
from .simulation import (LemmaTrialReport, SlopeEstimate, SnrGrid,
                         estimate_dof_slope, interference_limited_rate,
                         monte_carlo_lemma1, monte_carlo_lemma2,
                         random_precoders, sum_rate)

__version__ = "0.1.0"
