"""Seeded random ensembles used by scans, search procedures and tests.

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


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary via QR of a Ginibre matrix with the phase fix."""
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_contraction(rng: np.random.Generator, d: int) -> np.ndarray:
    """A matrix of operator norm exactly 1."""
    a = complex_gaussian(rng, (d, d))
    return a / np.linalg.norm(a, 2)


def random_kraus_choi(rng: np.random.Generator, n: int, m: int, terms: int = 0) -> np.ndarray:
    """Choi matrix (domain leg first) of a random completely positive map."""
    if terms <= 0:
        terms = max(2, min(n, m))
    choi = np.zeros((n * m, n * m), dtype=np.complex128)
    for _ in range(terms):
        k = complex_gaussian(rng, (m, n))  # one Kraus operator
        v = k.T.reshape(-1)  # vec with the domain index major
        choi += np.outer(v, v.conj())
    return choi


def random_hermitian_choi(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Choi of a random Hermiticity-preserving map (Hermitian Choi)."""
    return gue(rng, n * m)


def random_complex_choi(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Choi of a random linear map without further structure."""
    return complex_gaussian(rng, (n * m, n * m))


def random_unital_channel_choi(rng: np.random.Generator, d: int, terms: int = 3) -> np.ndarray:
    """Choi of a random mixed-unitary channel on M_d (unital and CP)."""
    weights = rng.dirichlet(np.ones(terms))
    choi = np.zeros((d * d, d * d), dtype=np.complex128)
    for w in weights:
        u = random_unitary(rng, d)
        v = u.T.reshape(-1)
        choi += w * np.outer(v, v.conj())
    return choi
