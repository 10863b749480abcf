"""Classical light-cone timing bounds (c = 1 throughout).

All times are laboratory-frame times.  A boosted observer sees contracted
lengths, but the clocks defining these bounds sit in the laboratory frame,
so none of the results are divided by the Lorentz factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from lcdisc.errors import InvalidParameterError


@dataclass(frozen=True)
class RulerTiming:
    """Minimal identification time for a pair of rulers.

    ``indistinguishable`` marks the degenerate equal-length case, where no
    amount of waiting reveals which ruler is present.
    """

    min_time: float
    indistinguishable: bool


def scan_time_ball(R: float) -> float:
    """Minimal time to collect all outcomes from a ball of radius R.

    The backward light cone of the observer event at the ball center covers
    the ball's equal-time cross-section only after a delay R/c, so the scan
    cannot finish sooner.
    """
    if not (math.isfinite(R) and R >= 0.0):
        raise InvalidParameterError("ball radius must be finite and >= 0")
    return R


def ruler_min_time(
    L1: float,
    L2: float,
    observer_position: float = 0.5,
) -> RulerTiming:
    """Minimal time to tell two rulers of known lengths apart.

    The observer sits at fraction ``observer_position`` in [0, 1] along the
    shorter ruler (0.5 is the midpoint).  Identification requires light from
    the far end of the shorter length L_min = min(L1, L2): once that much of
    the rod is confirmed present or absent the lengths are distinguished, so
    the bound is max(x, 1-x) * L_min, which reduces to L_min/2 for the
    midpoint and L_min for an endpoint observer.
    """
    for length in (L1, L2):
        if not (math.isfinite(length) and length > 0.0):
            raise InvalidParameterError("ruler length must be finite and > 0")
    x = float(observer_position)
    if not (math.isfinite(x) and 0.0 <= x <= 1.0):
        raise InvalidParameterError("observer_position must lie in [0, 1]")
    return RulerTiming(
        min_time=max(x, 1.0 - x) * min(L1, L2),
        indistinguishable=L1 == L2,
    )


def lorentz_factor(beta: float) -> float:
    """Length-contraction factor sqrt(1 - beta^2) for speed beta in [0, 1)."""
    if not (math.isfinite(beta) and 0.0 <= beta < 1.0):
        raise InvalidParameterError("beta must lie in [0, 1)")
    return math.sqrt(1.0 - beta * beta)
