"""Degrees-of-freedom bounds and optimal linear schemes for the multicell
MIMO multiple access channel, with Monte Carlo verification harnesses.

The package is lazy: ``import doflab`` loads none of its submodules, and so
neither numpy nor its BLAS.  A public name (``doflab.dof_outer_bound``) or a
submodule (``doflab.linalg``) loads its submodule on first use, by attribute
or by ``from doflab import``.  doflab.cli loads numpy, with OpenBLAS on
one thread, at its first numeric command (every command but ``bound``):
importing it, building its parser, ``bound``, ``--help`` and a usage
error load no numpy (see doflab.cli).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "bounds": ("DofBoundReport", "NSIA", "RANDOM", "RX_HEAVY", "TX_HEAVY", "ZF",
               "converse_two_cell", "dof_outer_bound", "per_message_set_bound",
               "antenna_profile", "two_user_ic_dof"),
    "errors": ("ConfigurationError", "ContractError", "DegeneracyError",
               "DimensionError", "DoflabError", "InputError", "RankError"),
    "linalg": ("SubspaceBasis", "Tolerance", "intersection_dim",
               "null_space_basis", "numeric_rank", "orthonormalize_rows",
               "random_matrix", "range_basis", "seeded_rng"),
    "network": ("ChannelSet", "NetworkConfig", "channel_set",
                "channel_set_from_dict", "channel_set_to_dict",
                "generate_channels"),
    "schemes": ("Scheme", "SchemeReport", "build_nsia", "build_zf_precoders",
                "pi_transform", "verify_scheme"),
    "simulation": ("LemmaTrialReport", "SlopeEstimate", "SnrGrid",
                   "estimate_dof_slope", "interference_limited_rate",
                   "monte_carlo_lemma1", "monte_carlo_lemma2",
                   "random_precoders", "sum_rate"),
}.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_SUBMODULES) + sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it as a package attribute
        return _import_module(f".{name}", __name__)
    if name in _EXPORTS:
        value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
