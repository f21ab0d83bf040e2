"""Deterministic random-number streams for the simulation.

Every subsystem of the simulation (name generation, campaign wiring, post
emission, click modelling, ...) draws from its own named stream derived
from a single master seed.  This keeps the whole pipeline reproducible
while letting subsystems evolve independently: adding a draw to one
subsystem does not perturb any other subsystem's stream.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

__all__ = ["RngRegistry", "bounded_integers", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from *master_seed* and a stream *name*.

    The derivation is a stable hash (SHA-256), so the same
    ``(master_seed, name)`` pair always yields the same child seed on
    every platform and Python version.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def bounded_integers(
    rng: np.random.Generator, low: int | Sequence[int], high: Sequence[int]
) -> list[int]:
    """Draw ``integers(low[i], high[i])`` for every *i* in one call.

    The contract: the result equals the scalar sequence
    ``[int(rng.integers(lo, hi)) for lo, hi in zip(low, high)]`` and
    leaves ``rng.bit_generator.state`` exactly where that sequence
    would.  numpy's ``Generator.integers`` with a bound per element runs
    the same bounded Lemire draw per element as a scalar call, on the
    same buffered 32-bit stream (64-bit words for ranges above 2**32),
    so a loop whose stream sees *only* bounded integers can be replaced
    by one call here.  Width-1 ranges (``high == low + 1``) consume no
    bits, as in the scalar call.  *low* is one int for every element or
    a sequence as long as *high*; empty *high* draws nothing.

    A stream that also sees doubles, Poisson or other samplers between
    the integers must stay scalar: batching would reorder its draws.
    """
    if len(high) == 0:
        return []
    return rng.integers(
        np.asarray(low, dtype=np.int64), np.asarray(high, dtype=np.int64)
    ).tolist()


class RngRegistry:
    """A registry of named, independently seeded numpy ``Generator`` streams.

    >>> rngs = RngRegistry(master_seed=7)
    >>> a = rngs.stream("names").integers(0, 100)
    >>> b = RngRegistry(master_seed=7).stream("names").integers(0, 100)
    >>> int(a) == int(b)
    True
    """

    def __init__(self, master_seed: int = 2012) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        Repeated calls with the same name return the same generator
        object, so draws within one registry advance the stream.
        """
        if name not in self._streams:
            seed = derive_seed(self.master_seed, name)
            self._streams[name] = np.random.default_rng(seed)
        return self._streams[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for *name* (restarted stream)."""
        self._streams.pop(name, None)
        return self.stream(name)

    def spawn(self, name: str) -> "RngRegistry":
        """Return a child registry whose streams are independent of ours."""
        return RngRegistry(derive_seed(self.master_seed, f"spawn:{name}"))
