"""Momentum-space profiles of single-photon wavepackets.

A packet is described by a spherically symmetric profile g(k) on the positive
mass shell, normalized so that 2 pi * integral k |g(k)|^2 dk = 1 (the unit-norm
condition in the measure d^3k / 2|k|).  Two families are provided:

* Gaussian:     g(k) = N exp(-(k - k0)^2 / (4 sigma^2))
* Exponential:  g(k) = N k exp(-k / kappa)

Each profile also records a rigid displacement ``offset_d`` of the packet
center from the origin and a truncation wavenumber ``k_max`` beyond which the
profile carries less than ``TAIL_MASS_BOUND`` of its mass.  All downstream
quadratures integrate over [0, k_max] only.  The bound is on the dropped
momentum mass, not on the results: the amplitude error the cut leaves grows
like the square root of that mass, up to 1.56e-4 for exponential kappa = 2
against ``amp_tol`` 1e-9, and no density ladder at one k_max sees it.
Deriving the cut from the tolerance is ROADMAP item 1.

The two helicity states share one profile and are exactly orthogonal; their
overlap is a Kronecker delta in the helicity sign.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from lcdisc.errors import InvalidParameterError, NumericFailureError
from lcdisc.quadrature import GAUSS_W, GAUSS_X, gauss_panels

TAIL_MASS_BOUND = 1e-10

# candidates for k_max live on a geometric grid with this many segments
_TAIL_GRID_SEGMENTS = 4096
_TAIL_GRID_SPAN = 1e4
# blocks of about 1024 segments, whose (GAUSS_ORDER, block) temporaries
# stay in cache
_TAIL_BLOCKS = 4


class HelicityChannel(enum.Enum):
    """The two orthogonal photon helicity states."""

    PLUS = +1
    MINUS = -1


@dataclass(frozen=True)
class GaussianFamily:
    """Gaussian bump centered at wavenumber ``k0`` with width ``sigma``."""

    k0: float
    sigma: float

    def shape(self, k: np.ndarray) -> np.ndarray:
        u = (np.asarray(k, dtype=float) - self.k0) / (2.0 * self.sigma)
        return np.exp(-u * u)

    def far_cutoff(self) -> float:
        # exp(-(k-k0)^2/(4 sigma^2)) is below 1e-40 past 30 sigma
        return self.k0 + 30.0 * self.sigma

    @property
    def sigma_eff(self) -> float:
        return self.sigma

    def _validate(self) -> None:
        for name in ("k0", "sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise InvalidParameterError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class ExponentialFamily:
    """Profile k * exp(-k / kappa), vanishing linearly at k = 0."""

    kappa: float

    def shape(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        return k * np.exp(-k / self.kappa)

    def far_cutoff(self) -> float:
        # integrand k^3 exp(-2k/kappa) is below 1e-26 of its peak past 40 kappa
        return 40.0 * self.kappa

    @property
    def sigma_eff(self) -> float:
        # position-space tails extend over a scale ~ kappa, so the effective
        # momentum width entering coverage estimates is 1/kappa
        return 1.0 / self.kappa

    def _validate(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise InvalidParameterError("kappa must be finite and > 0")


Family = GaussianFamily | ExponentialFamily


@dataclass(frozen=True)
class MomentumProfile:
    """Normalized momentum profile with a rigid spatial offset.

    Immutable after construction, so instances can be shared freely.

    Attributes
    ----------
    family : GaussianFamily or ExponentialFamily
        Functional form of the unnormalized profile.
    norm_const : float
        Multiplier making 2 pi * integral k |g|^2 dk equal 1.
    offset_d : float
        Distance of the packet center from the origin.
    k_max : float
        Truncation wavenumber; mass above it is below ``TAIL_MASS_BOUND``.
    """

    family: Family
    norm_const: float
    offset_d: float
    k_max: float

    def magnitude(self, k: np.ndarray) -> np.ndarray:
        """Normalized g(k) for nonnegative wavenumbers."""
        return self.norm_const * self.family.shape(k)

    @property
    def sigma_eff(self) -> float:
        return self.family.sigma_eff


def make_profile(family: Family, offset_d: float = 0.0) -> MomentumProfile:
    """Construct a normalized profile and its truncation point.

    The norm integral is accumulated segment by segment on a geometric grid up
    to the family's far cutoff; ``k_max`` is the smallest grid point whose
    remaining tail mass falls below ``TAIL_MASS_BOUND`` of the total.
    """
    family._validate()
    if not (math.isfinite(offset_d) and offset_d >= 0.0):
        raise InvalidParameterError("offset_d must be finite and >= 0")

    k_far = family.far_cutoff()
    edges = np.geomspace(k_far / _TAIL_GRID_SPAN, k_far, _TAIL_GRID_SEGMENTS + 1)
    edges = np.concatenate(([0.0], edges))

    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    # mass of each segment under k |g|^2, unnormalized and without 2 pi,
    # with the nodes node-major, (GAUSS_ORDER, segments), a block of
    # segments at a time
    segment_mass = np.empty(half.size)
    block = -(-half.size // _TAIL_BLOCKS)
    for lo in range(0, half.size, block):
        h, m = half[lo:lo + block], mid[lo:lo + block]
        nodes = m + h * GAUSS_X[:, None]
        s = family.shape(nodes)
        terms = h * GAUSS_W[:, None] * (nodes * s * s)
        # pairwise, the order in which NumPy sums 8 terms
        while len(terms) > 1:
            terms = terms[0::2] + terms[1::2]
        segment_mass[lo:lo + block] = terms[0]

    total = float(segment_mass.sum())
    if not (math.isfinite(total) and total > 0.0):
        raise NumericFailureError("normalization integral is not finite",
                                  estimate=math.inf)

    tail = np.concatenate((np.cumsum(segment_mass[::-1])[::-1], [0.0]))
    covered = np.nonzero(tail / total < TAIL_MASS_BOUND)[0]
    k_max = float(edges[covered[0]])

    return MomentumProfile(
        family=family,
        norm_const=1.0 / math.sqrt(2.0 * math.pi * total),
        offset_d=float(offset_d),
        k_max=k_max,
    )


def momentum_norm(profile: MomentumProfile) -> float:
    """Evaluate 2 pi * integral_0^{k_max} k |g(k)|^2 dk.

    Equals 1 (up to the constructed tail bound) for profiles built by
    :func:`make_profile`; scales quadratically in ``norm_const``.
    """
    rule = gauss_panels(0.0, profile.k_max, max_width=profile.k_max / 1024.0)
    g = profile.magnitude(rule.nodes)
    return float(2.0 * math.pi * np.dot(rule.weights, rule.nodes * g * g))


def channel_overlap(channel_a: HelicityChannel, channel_b: HelicityChannel) -> float:
    """Inner product of two candidate states sharing one profile.

    The states differ only in helicity, so the overlap reduces to a Kronecker
    delta in the helicity sign: 1 for equal channels, 0 otherwise.
    """
    return 1.0 if channel_a is channel_b else 0.0
