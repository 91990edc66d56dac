"""Object-popularity samplers over large keyspaces.

The generator addresses objects by **rank** (0 = most popular) in a
keyspace of up to ~1M ObjectIds; samplers map uniform randomness onto
ranks under the configured skew.  Real object populations are heavily
skewed, and skew is what makes multi-tenant interference interesting:
one tenant's handful of hot keys concentrates load on the few hosts
that home them.

* :class:`ZipfSampler` — classic discrete Zipf(``alpha``): weight of
  rank ``r`` is ``1/(r+1)^alpha``.  O(n) precompute of the cumulative
  weights, O(log n) per draw via bisect — fine at a million ranks.
* :class:`ParetoSampler` — truncated continuous Pareto binned to ranks
  by inverse-CDF: O(1) per draw and no precompute, the heavy-tail
  alternative (hotter head, longer usable tail at equal ``alpha``).
* :class:`UniformSampler` — the no-skew control.
"""

from __future__ import annotations

import bisect
import itertools
import random
from array import array

__all__ = ["PopularitySampler", "ZipfSampler", "ParetoSampler",
           "UniformSampler", "make_popularity"]


class PopularitySampler:
    """Base: draws ranks in ``[0, keyspace)`` from a ``random.Random``."""

    kind = "abstract"

    def __init__(self, keyspace: int):
        if keyspace < 1:
            raise ValueError("keyspace must hold at least one object")
        self.keyspace = int(keyspace)

    def sample(self, rng: random.Random) -> int:
        """One rank draw (0 = hottest)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} keyspace={self.keyspace}>"


class ZipfSampler(PopularitySampler):
    """Discrete Zipf: P(rank r) proportional to ``1/(r+1)^alpha``."""

    kind = "zipf"

    def __init__(self, keyspace: int, alpha: float = 1.0):
        super().__init__(keyspace)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = float(alpha)
        weights = (1.0 / ((rank + 1) ** alpha) for rank in range(keyspace))
        # Packed doubles: the same values bisect finds in a list of
        # floats, at 8 bytes a rank instead of 32.
        self._cumulative = array("d", itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self, rng: random.Random) -> int:
        point = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)


class ParetoSampler(PopularitySampler):
    """Truncated Pareto binned to ranks; O(1) per draw, no precompute.

    The continuous CDF ``F(x) = 1 - x^-alpha`` on ``[1, keyspace+1)`` is
    renormalized to the truncation and inverted; the drawn coordinate's
    floor (minus one) is the rank.  Rank 0 is the hottest, as with Zipf.
    """

    kind = "pareto"

    def __init__(self, keyspace: int, alpha: float = 1.16):
        super().__init__(keyspace)
        if alpha <= 0:
            raise ValueError("Pareto alpha must be positive")
        self.alpha = float(alpha)
        # Mass of the truncated support [1, keyspace+1).
        self._mass = 1.0 - (keyspace + 1.0) ** (-alpha)

    def sample(self, rng: random.Random) -> int:
        u = rng.random() * self._mass
        x = (1.0 - u) ** (-1.0 / self.alpha)
        rank = int(x) - 1
        if rank >= self.keyspace:  # float edge at the truncation boundary
            rank = self.keyspace - 1
        return rank


class UniformSampler(PopularitySampler):
    """Every rank equally likely — the unskewed control."""

    kind = "uniform"

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.keyspace)


_SAMPLERS = {cls.kind: cls for cls in (ZipfSampler, ParetoSampler,
                                       UniformSampler)}


def make_popularity(kind: str, keyspace: int,
                    skew: float = 1.0) -> PopularitySampler:
    """Build the named sampler; ``skew`` is ignored for ``uniform``."""
    if kind == "uniform":
        return UniformSampler(keyspace)
    try:
        cls = _SAMPLERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown popularity model {kind!r} "
            f"(have: {', '.join(sorted(_SAMPLERS))})") from None
    return cls(keyspace, skew)
