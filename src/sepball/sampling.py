"""Seeded random draws: GUE elements for ball scans and ``--element gue:R``,
and contractions for the starts of the cb lower-bound search.

Every sampler takes a ``numpy.random.Generator`` so callers control the
stream; deterministic child streams are derived with ``rng_from``.
"""

from __future__ import annotations

import numpy as np


def rng_from(*key) -> np.random.Generator:
    """Deterministic generator derived from an integer key tuple."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gue(rng: np.random.Generator, d: int) -> np.ndarray:
    """A GUE draw: Hermitian with independent Gaussian entries."""
    a = complex_gaussian(rng, (d, d))
    return (a + a.conj().T) / 2.0


def random_contraction(rng: np.random.Generator, d: int) -> np.ndarray:
    """A matrix of operator norm exactly 1."""
    a = complex_gaussian(rng, (d, d))
    return a / np.linalg.norm(a, 2)
