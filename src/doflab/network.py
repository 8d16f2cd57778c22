"""Network configuration and constant-coefficient channel generation.

An L-cell network with K users per cell: user (l, k) has M transmit
antennas, every base station has N receive antennas, and the channel from
user (l, k) to base station m is an N x M matrix drawn once (constant
coefficients, no fading process).  Cells and users are 1-based in all
interfaces, matching the usual lk subscript convention.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (DegeneracyError, DimensionError, InputError, is_int,
                     require_positive, require_seed)
from .linalg import Tolerance

log = logging.getLogger(__name__)

# Most redraws of one degenerate draw (draw_until) before it is refused: a
# tolerance just under Tolerance.require_rankable's limit makes a full-rank
# draw so rare that an unbounded redraw would never end.
MAX_REDRAWS = 1000

# The Python types json.loads gives a JSON number.
_JSON_NUMBERS = frozenset({int, float})


def draw_until(key: tuple[int, ...], shape: tuple[int, int], dist: str,
               rank_of, full: int, tol: Tolerance, warning: str | None,
               refusal: str):
    """``(h, result, rng)``: the first ``shape`` matrix drawn from the start
    of the ``key`` stream for which ``rank_of(h)`` gives ``(full, result)``,
    read-only, and the generator, right after it.  A failed draw is drawn
    again, at most MAX_REDRAWS times, logging ``warning`` (unless None) at
    the first redraw; then DegeneracyError says ``refusal``, the count and
    the tolerance."""
    rng = linalg.seeded_rng(*key)
    for redraw in range(MAX_REDRAWS + 1):
        if redraw == 1 and warning is not None:
            log.warning(warning)
        h = linalg.random_matrix(*shape, dist, rng)
        rank, result = rank_of(h)
        if rank == full:
            h.setflags(write=False)
            return h, result, rng
    raise DegeneracyError(f"{refusal} after {MAX_REDRAWS} redraws at "
                          f"rel_rank_tol={tol.rel_rank_tol}")


@dataclass(frozen=True)
class NetworkConfig:
    """Dimensions and generation parameters for one network realization."""

    L: int
    K: int
    M: int
    N: int
    beta: int = 1
    seed: int = 0
    dist: str = "complex-gaussian"
    tol: Tolerance = field(default_factory=Tolerance)

    def __post_init__(self):
        require_positive(L=self.L, K=self.K, M=self.M, N=self.N,
                         beta=self.beta)
        require_seed(self.seed)
        if self.dist not in linalg.DISTRIBUTIONS:
            raise InputError(
                f"unknown distribution {self.dist!r}, expected one of "
                f"{linalg.DISTRIBUTIONS}")
        self.tol.require_rankable(max(self.M, self.N), "max(M, N)")

    def interferers(self, m: int) -> list[tuple[int, int]]:
        """The users (l, k) that interfere at base station m: every user of
        the other cells, cells before users.  The 1-based position j of a
        user in this list keys base station m's per-link results (m, j);
        at L=2, j is the other cell's user k."""
        if not 1 <= m <= self.L:
            raise IndexError(f"cell index m={m} out of range 1..{self.L}")
        return [(l, k) for l in range(1, self.L + 1) if l != m
                for k in range(1, self.K + 1)]

    def to_dict(self) -> dict:
        return {"L": self.L, "K": self.K, "M": self.M, "N": self.N,
                "beta": self.beta, "seed": self.seed, "dist": self.dist,
                "rel_rank_tol": self.tol.rel_rank_tol}

    @classmethod
    def from_dict(cls, doc: dict) -> "NetworkConfig":
        if not isinstance(doc, dict):
            raise InputError(f"network config must be a JSON object, got {doc!r}")
        known = {"L", "K", "M", "N", "beta", "seed", "dist", "rel_rank_tol"}
        unknown = set(doc) - known
        if unknown:
            raise InputError(f"unknown network config keys: {sorted(unknown)}")
        kwargs = {k: doc[k] for k in ("L", "K", "M", "N") if k in doc}
        missing = {"L", "K", "M", "N"} - set(kwargs)
        if missing:
            raise InputError(f"network config missing keys: {sorted(missing)}")
        for opt in ("beta", "seed", "dist"):
            if opt in doc:
                kwargs[opt] = doc[opt]
        if "rel_rank_tol" in doc:
            kwargs["tol"] = Tolerance(doc["rel_rank_tol"])
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """All L*L*K channel matrices of one network realization, immutable.

    ``cross_nulls`` holds the factor of each cross link (m != l) that the
    schemes build from, keyed like ``channels``: the null space of its wide
    orientation (cross_null_bases), read-only and max(M, N) x |M - N|,
    which is checked when the set is made.  generate_channels and
    channel_set store it while checking the link, so no link is factored
    after the set is built.  ``==`` is identity.
    """

    config: NetworkConfig
    channels: dict[tuple[int, int, int], np.ndarray] = field(repr=False)
    cross_nulls: dict[tuple[int, int, int], np.ndarray] = field(repr=False)

    def __post_init__(self):
        cfg = self.config
        require_shapes("cross-link null space", self.cross_nulls,
                       (max(cfg.M, cfg.N), abs(cfg.M - cfg.N)),
                       {(m, l, k): f"null space of cross link (m={m}, l={l}, k={k})"
                        for m, l, k in _links(cfg) if m != l})

    def channel(self, m: int, l: int, k: int) -> np.ndarray:
        """Channel from user (l, k) to base station m (all 1-based)."""
        cfg = self.config
        if not 1 <= m <= cfg.L:
            raise IndexError(f"cell index m={m} out of range 1..{cfg.L}")
        if not 1 <= l <= cfg.L:
            raise IndexError(f"cell index l={l} out of range 1..{cfg.L}")
        if not 1 <= k <= cfg.K:
            raise IndexError(f"user index k={k} out of range 1..{cfg.K}")
        return self.channels[(m, l, k)]

    def cross_null(self, m: int, l: int, k: int) -> np.ndarray:
        """Stored null space of cross link (m, l, k)'s wide orientation."""
        if m == l:
            raise IndexError(f"link (m={m}, l={l}, k={k}) is not a cross link")
        self.channel(m, l, k)  # checks the indices
        return self.cross_nulls[(m, l, k)]


def require_shapes(what: str, arrays: dict, shape: tuple, names: dict):
    """Refuse ``arrays`` unless it maps exactly the keys of ``names`` to
    arrays (or nested lists) of ``shape``, naming the first one missing or
    misshapen, or a key the network does not have."""
    for key, name in names.items():
        if key not in arrays:
            raise DimensionError(f"{name} is missing")
        if np.shape(arrays[key]) != shape:
            raise DimensionError(f"{name} has shape {np.shape(arrays[key])}, "
                                 f"expected {shape}")
    if len(arrays) > len(names):
        extra = next(key for key in arrays if key not in names)
        raise DimensionError(f"{what} keyed {extra!r} is not in the network")


def cross_null_bases(config: NetworkConfig, h: np.ndarray):
    """linalg.null_space_bases of a stack of cross links' wide orientations:
    null(H) for zero forcing's precoders (N < M), null(H*) for null-space
    alignment's planes (N > M), |M - N|-dimensional when H has full rank."""
    cfg = config
    wide = h if cfg.N <= cfg.M else np.swapaxes(h.conj(), -1, -2)
    return linalg.null_space_bases(wide, abs(cfg.M - cfg.N), cfg.tol)


def _link_checks(config: NetworkConfig, links: list[tuple[int, int, int]],
                 h: np.ndarray) -> Iterator[tuple[int, np.ndarray | None]]:
    """The nondegeneracy check of a stack of links, link by link: yields,
    for each link (m, l, k) with matrix h[t] in order, its numeric rank
    and, for a cross link of full rank min(M, N), the read-only null space
    of its wide orientation (cross_null_bases; None for any other link).

    One full SVD covers the cross links and one singular-values-only SVD
    the direct links, before the first link is yielded.  A basis that
    failed the stacked Gram check raises its RankError at its link, so
    every refusal comes in link order."""
    cfg = config
    cross = [t for t, (m, l, _) in enumerate(links) if m != l]
    direct = [t for t, (m, l, _) in enumerate(links) if m == l]
    ranks = np.empty(len(links), dtype=int)
    ranks[direct] = linalg.numeric_ranks(h[direct], cfg.tol)
    bases = {}
    if cross:
        dims, stack, ok = cross_null_bases(cfg, h[cross])
        stack.setflags(write=False)  # a zf precoder is the null space itself
        ranks[cross] = max(cfg.M, cfg.N) - dims
        bases = dict(zip(cross, zip(stack, ok.tolist())))
    for t, rank in enumerate(ranks.tolist()):
        null = None
        if t in bases and rank == min(cfg.M, cfg.N):
            null, good = bases[t]
            if not good:
                linalg.require_orthonormal(null)
        yield rank, null


def _links(config: NetworkConfig) -> list[tuple[int, int, int]]:
    return [(m, l, k) for m in range(1, config.L + 1)
            for l in range(1, config.L + 1) for k in range(1, config.K + 1)]


def _checked_set(config: NetworkConfig, stacks, degenerate) -> ChannelSet:
    """The ChannelSet of ``stacks``, (links, h) pairs in (m, l, k) order with
    h the links' stack, made read-only and kept with no copy.  One stacked
    _link_checks per stack; a link of rank below min(M, N) goes to
    ``degenerate(link, rank)``, which returns (matrix, null) or raises."""
    cfg = config
    channels, nulls = {}, {}
    for chunk, h in stacks:
        h.setflags(write=False)
        for link, h_link, (rank, null) in zip(chunk, h,
                                              _link_checks(cfg, chunk, h)):
            if rank < min(cfg.M, cfg.N):
                h_link, null = degenerate(link, rank)
            channels[link] = h_link
            if null is not None:
                nulls[link] = null
    return ChannelSet(cfg, channels, nulls)


def generate_channels(config: NetworkConfig) -> ChannelSet:
    """Draw the full family of nondegenerate channel matrices.

    Each link (m, l, k) has its own stream (seed, m, l, k), so the set is
    bit-reproducible.  The links are drawn in stacks (linalg.stack_chunks)
    and checked by _checked_set; a rank-deficient link is drawn again on
    its own by draw_channel, so it is redrawn, logged and refused as alone.
    """
    cfg = config
    stacks = ((chunk, linalg.random_matrices(
                  [(cfg.N, cfg.M)], cfg.dist,
                  [(cfg.seed, *link) for link in chunk])[0])
              for chunk in linalg.stack_chunks(_links(cfg), cfg.N, cfg.M))
    return _checked_set(cfg, stacks, lambda link, _: draw_channel(cfg, *link))


def draw_channel(config: NetworkConfig, m: int, l: int,
                 k: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Channel from user (l, k) to base station m, read-only, and for a
    cross link the null space of its wide orientation (else None): by
    draw_until, from the (seed, m, l, k) stream, checked by _link_checks."""
    cfg = config
    return draw_until(
        (cfg.seed, m, l, k), (cfg.N, cfg.M), cfg.dist,
        lambda h: next(_link_checks(cfg, [(m, l, k)], h[None])),
        min(cfg.M, cfg.N), cfg.tol,
        f"degenerate channel draw at (m={m}, l={l}, k={k}); redrawing",
        f"channel (m={m}, l={l}, k={k}) is still degenerate")[:2]


def channel_set_to_dict(cs: ChannelSet) -> dict:
    """JSON-ready document: {config, channels: [{m, l, k, re, im}]}.

    ``re`` and ``im`` are row-major nested lists (one inner list per
    matrix row).  Field names are part of the CLI replay format.
    """
    entries = []
    for (m, l, k), h in sorted(cs.channels.items()):
        entries.append({"m": m, "l": l, "k": k,
                        "re": h.real.tolist(), "im": h.imag.tolist()})
    return {"config": cs.config.to_dict(), "channels": entries}


def channel_set_from_dict(doc: dict) -> ChannelSet:
    """Rebuild a ChannelSet from the document format above (channel_set
    checks the links).

    Each (m, l, k) may appear once, and every entry of ``re`` and ``im``
    must be a JSON number (an int or a float).  A link whose largest real or
    imaginary part is above 1e150 in magnitude, or nonzero and below
    1e-150, is refused: the products and norms the schemes form of two
    links must stay within double precision.  An all-zero link is left to
    channel_set's rank check.
    """
    if not isinstance(doc, dict) or set(doc) != {"config", "channels"}:
        raise InputError("channel document must be a JSON object with "
                         "exactly the keys 'config' and 'channels'")
    cfg = NetworkConfig.from_dict(doc["config"])
    if not isinstance(doc["channels"], list):
        raise InputError("'channels' must be a JSON list of channel entries")
    channels = {}
    for entry in doc["channels"]:
        if not isinstance(entry, dict) or set(entry) != {"m", "l", "k", "re", "im"}:
            raise InputError("channel entry must be a JSON object with exactly "
                             "the keys 'm', 'l', 'k', 're', 'im'")
        index = (entry["m"], entry["l"], entry["k"])
        # bool is an int subclass, and True would silently index cell 1
        if not all(is_int(i) for i in index):
            raise InputError(f"channel indices (m, l, k) must be integers, "
                             f"got {index!r}")
        name = "channel (m={}, l={}, k={})".format(*index)
        if index in channels:
            raise InputError(f"{name} is listed more than once")
        try:
            real, imag = (np.asarray(entry[part], dtype=float)
                          for part in ("re", "im"))
        except (TypeError, ValueError) as exc:
            raise InputError(f"{name} entries must be numbers: {exc}") from exc
        # checked apart: combined, a scalar or one-row part would broadcast
        # to the full shape, and inf in one part would become nan
        for part, values in (("re", real), ("im", imag)):
            if values.shape != (cfg.N, cfg.M):
                raise InputError(f"{name} {part!r} has shape {values.shape}, "
                                 f"expected ({cfg.N}, {cfg.M})")
            # numpy reads true as 1.0 and "1.5" as 1.5: only a JSON int or
            # float (never a bool, which is an int subclass) is a number
            if not all(_JSON_NUMBERS.issuperset(map(type, row))
                       for row in entry[part]):
                raise InputError(f"{name} {part!r} has an entry that is not "
                                 f"a JSON number")
            if not np.isfinite(values).all():
                raise InputError(f"{name} has non-finite entries")
        peak = max(np.abs(real).max(), np.abs(imag).max())
        if peak > 1e150 or 0 < peak < 1e-150:
            raise InputError(
                f"{name} has entries of magnitude up to {peak:.3e}, outside "
                f"the supported range [1e-150, 1e150]")
        channels[index] = real + 1j * imag
    return channel_set(cfg, channels)


def channel_set(config: NetworkConfig,
                channels: dict[tuple[int, int, int], np.ndarray]) -> ChannelSet:
    """The ChannelSet of read-only copies of ``channels``, keyed (m, l, k)
    like a draw.  Every link must be a finite N x M matrix, refused naming
    its (m, l, k) before any link is factored, and must pass a draw's
    nondegeneracy check (_checked_set, on stacks of the links); the first
    link in (m, l, k) order that fails it is refused."""
    cfg = config
    count = cfg.L * cfg.L * cfg.K  # compared before the triples are listed
    if len(channels) != count or set(channels) != set(links := _links(cfg)):
        raise InputError("channels do not cover exactly the "
                         f"{count} (m, l, k) triples of the config")
    for link in links:
        h = channels[link]
        name = "channel (m={}, l={}, k={})".format(*link)
        if np.shape(h) != (cfg.N, cfg.M):
            raise InputError(f"{name} has shape {np.shape(h)}, expected "
                             f"({cfg.N}, {cfg.M})")
        if not np.isfinite(h).all():
            raise InputError(f"{name} has non-finite entries")

    def refuse(link, rank):
        m, l, k = link
        raise InputError(
            f"channel (m={m}, l={l}, k={k}) has numeric rank {rank} at "
            f"rel_rank_tol={cfg.tol.rel_rank_tol}, below min(M, N)="
            f"{min(cfg.M, cfg.N)}: channels must be nondegenerate")

    stacks = ((chunk, np.stack([channels[link] for link in chunk]))
              for chunk in linalg.stack_chunks(links, cfg.N, cfg.M))
    return _checked_set(cfg, stacks, refuse)
