"""Momentum-space profiles of single-photon wavepackets.

A packet is described by a spherically symmetric profile g(k) on the positive
mass shell, normalized so that 2 pi * integral k |g(k)|^2 dk = 1 (the unit-norm
condition in the measure d^3k / 2|k|).  Two families are provided:

* Gaussian:     g(k) = N exp(-(k - k0)^2 / (4 sigma^2))
* Exponential:  g(k) = N k exp(-k / kappa)

Each profile also records a rigid displacement ``offset_d`` of the packet
center from the origin and a truncation wavenumber ``k_max`` beyond which the
profile carries less than ``TAIL_MASS_BOUND`` of its closed-form mass.  All
downstream quadratures integrate over [0, k_max] only.  The bound is on the
dropped momentum mass, not on the results: the amplitude error the cut
leaves grows like the square root of that mass, up to 1.56e-4 for
exponential kappa = 2 against ``amp_tol`` 1e-9, and no density ladder at
one k_max sees it.  Deriving the cut from the tolerance is ROADMAP item 1.

The two helicity states share one profile and are exactly orthogonal; their
overlap is a Kronecker delta in the helicity sign.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from lcdisc.errors import InvalidParameterError, NumericFailureError
from lcdisc.quadrature import gauss_panels

TAIL_MASS_BOUND = 1e-10

# candidates for k_max live on a geometric grid with this many segments,
# this many to a decade, ending at the family's far cutoff
_TAIL_GRID_SEGMENTS = 4096
_TAIL_GRID_PER_DECADE = 1024


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

    def tail_mass(self, k: float) -> float:
        """integral_k^inf k' shape(k')^2 dk', in closed form (erfc)."""
        u = (k - self.k0) / self.sigma
        return (self.sigma * (self.sigma * math.exp(-0.5 * u * u))
                + self.k0 * self.sigma * math.sqrt(0.5 * math.pi)
                * math.erfc(u * math.sqrt(0.5)))

    def far_cutoff(self) -> float:
        # exp(-(k-k0)^2/(4 sigma^2)) is below 1e-40 past 30 sigma
        return self.k0 + 30.0 * self.sigma

    @property
    def momentum_width(self) -> float:
        """The k scale over which the shape changes."""
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

    def tail_mass(self, k: float) -> float:
        """integral_k^inf k' shape(k')^2 dk', (kappa/2)^4 Gamma(4, x)."""
        x, h = 2.0 * k / self.kappa, 0.5 * self.kappa
        return (h * h * (h * h) * math.exp(-x)
                * (6.0 + x * (6.0 + x * (3.0 + x))))

    def far_cutoff(self) -> float:
        # integrand k^3 exp(-2k/kappa) is below 1e-26 of its peak past 40 kappa
        return 40.0 * self.kappa

    @property
    def momentum_width(self) -> float:
        """The k scale over which the shape changes."""
        return self.kappa

    def _validate(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise InvalidParameterError("kappa must be finite and > 0")


Family = GaussianFamily | ExponentialFamily


@dataclass(frozen=True)
class MomentumProfile:
    """Normalized momentum profile with a rigid spatial offset.

    Immutable after construction, so instances can be shared freely.  The
    one thing a profile changes is a private store of the k sides it has
    built, the k nodes and envelope last built at each DENSITY_LADDER
    level with the frequency they resolve (``propagation._k_side``); a
    slot is reused only at that frequency, where a rebuild gives the same
    bits, so the store never changes a result.  It lives and dies with the
    profile and takes no part in its equality, hash or repr.

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
    # ladder level -> (frequency, k nodes, envelope), both arrays read-only
    _k_sides: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def magnitude(self, k: np.ndarray) -> np.ndarray:
        """Normalized g(k) for nonnegative wavenumbers."""
        return self.norm_const * self.family.shape(k)


def make_profile(family: Family, offset_d: float = 0.0) -> MomentumProfile:
    """Construct a normalized profile and its truncation point.

    The norm integral and its tails are the family's closed-form
    ``tail_mass``; ``k_max`` is the smallest point of a geometric grid over
    the four decades below the far cutoff whose tail is below
    ``TAIL_MASS_BOUND`` of the total.  A norm integral that overflows or
    underflows, or a grid none of whose points leaves so small a tail,
    raises ``NumericFailureError``.
    """
    family._validate()
    if not (math.isfinite(offset_d) and offset_d >= 0.0):
        raise InvalidParameterError("offset_d must be finite and >= 0")

    total = family.tail_mass(0.0)
    mass = 2.0 * math.pi * total
    if not 0.0 < mass < math.inf:
        raise NumericFailureError("normalization integral is not finite "
                                  "and positive", estimate=math.inf)

    # bisect for the first edge k_far 10^((i - 4096) / 1024) whose tail is
    # below the bound, computing only the dozen edges it probes; each edge
    # is the far cutoff times a power of ten fixed by i alone, so the
    # candidates, and k_max, dilate exactly with the family
    k_far = family.far_cutoff()

    def edge(i: int) -> float:
        return k_far * 10.0 ** ((i - _TAIL_GRID_SEGMENTS)
                                / _TAIL_GRID_PER_DECADE)

    bound = TAIL_MASS_BOUND * total
    cut = bisect.bisect_left(range(_TAIL_GRID_SEGMENTS + 1), True,
                             key=lambda i: family.tail_mass(edge(i)) < bound)
    if cut > _TAIL_GRID_SEGMENTS:
        # the far cutoff rounds into the bulk, as k0 + 30 sigma does to k0
        # when sigma is below half an ulp of k0
        raise NumericFailureError(
            f"no cut up to the far cutoff {k_far:.6g} leaves less than "
            f"{TAIL_MASS_BOUND:g} of the mass",
            estimate=family.tail_mass(k_far) / total)
    k_max = edge(cut)

    return MomentumProfile(
        family=family,
        norm_const=1.0 / math.sqrt(mass),
        offset_d=float(offset_d),
        k_max=k_max,
    )


def momentum_norm(profile: MomentumProfile) -> float:
    """Evaluate 2 pi * integral_0^{k_max} k |g(k)|^2 dk.

    Equals 1 (up to the constructed tail bound) for profiles built by
    :func:`make_profile`; scales quadratically in ``norm_const``.  The
    8-point panels are k_max / 1024 wide, or a quarter of the family's
    ``momentum_width`` where that is narrower, so a narrow Gaussian is
    resolved as well as a wide one.  A profile so narrow that [0, k_max]
    would need more than :data:`~lcdisc.quadrature.MAX_PANELS` such panels
    raises :class:`ResourceLimitError`.
    """
    width = min(profile.k_max / 1024.0, profile.family.momentum_width / 4.0)
    rule = gauss_panels(0.0, profile.k_max, max_width=width)
    g = profile.magnitude(rule.nodes)
    return float(2.0 * math.pi * np.dot(rule.weights, rule.nodes * g * g))


def channel_overlap(channel_a: HelicityChannel, channel_b: HelicityChannel) -> float:
    """Inner product of two candidate states sharing one profile.

    The states differ only in helicity, so the overlap reduces to a Kronecker
    delta in the helicity sign: 1 for equal channels, 0 otherwise.
    """
    return 1.0 if channel_a is channel_b else 0.0
