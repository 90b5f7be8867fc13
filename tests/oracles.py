"""Reference implementations that only the tests compare against.

No command needs these: the level-k amplification of a map as a map of
its own, the hat functional, the dilation of a contraction, the block
identity and norm of a bipartite element, and random map ensembles.  The
tests keep them here, with the same code and seeds as before they left
the package, so that their numbers do not change.
"""

from __future__ import annotations

import numpy as np

from sepball import algebra, maps, matcore
from sepball.errors import DimensionError
from sepball.sampling import complex_gaussian, gue


def amplify(f: maps.LinearMapRep, k: int) -> maps.LinearMapRep:
    """The map Id_k (x) f as a LinearMapRep on M_{k*dim_in} -> M_{k*dim_out}.

    Its Choi matrix is, up to the explicit flip of the two middle tensor
    legs, the Kronecker product of the rank-one pairing projector P_k
    with the Choi matrix of f.
    """
    if k < 1:
        raise DimensionError(f"amplification level must be positive, got {k}")
    n, m = f.dim_in, f.dim_out
    eye = np.eye(k)
    amp8 = np.einsum("ia,jb,rcsd->iracjsbd", eye, eye, f.choi4)
    d = k * n * k * m
    return maps.LinearMapRep(k * n, k * m, amp8.reshape(d, d))


def hat_functional(f: maps.LinearMapRep, x) -> complex:
    """The functional x -> Tr(sum_i a_i^T f(b_i)) for x = sum_i a_i (x) b_i.

    Here f maps M_m -> M_n and x lives on C^n (x) C^m, with f acting on
    the second leg; the pairing traces against the transposed first leg.
    """
    m, n = f.dim_in, f.dim_out
    a = matcore.as_matrix(x)
    if a.shape != (n * m, n * m):
        raise DimensionError(
            f"element shape {a.shape} does not match C^{n} (x) C^{m} "
            f"for a map M_{m} -> M_{n}"
        )
    x4 = a.reshape(n, m, n, m)
    return complex(np.einsum("iajb,aibj->", x4, f.choi4))


def norm(x: algebra.BipartiteElement) -> float:
    """Operator norm of an element: the largest over its block pairs."""
    return max(matcore.operator_norm(p) for p in x.parts)


def bipartite_identity(alg_a: algebra.FdAlgebra,
                       alg_b: algebra.FdAlgebra) -> algebra.BipartiteElement:
    parts = []
    for k in range(len(alg_a.blocks)):
        for l in range(len(alg_b.blocks)):
            d = alg_a.blocks[k] * alg_b.blocks[l]
            parts.append(np.eye(d, dtype=np.complex128))
    return algebra.BipartiteElement(alg_a, alg_b, tuple(parts))


def dilation_embed(x: algebra.BipartiteElement, r: float) -> algebra.BipartiteElement:
    """Embed a contraction into a positive corner element.

    For x on A (x) M_k with ||x|| <= 1 and 0 <= r <= 1 this returns

        y = [[1 (x) 1, r x], [r x*, 1 (x) 1]]  on  A (x) M_2k,

    whose distance from the identity is exactly r ||x||: the off-diagonal
    block matrix [[0, x], [x*, 0]] has the same norm as x.
    """
    if not (0.0 <= r <= 1.0):
        raise DimensionError(f"the contraction scale must be in [0, 1], got {r}")
    if len(x.alg_b.blocks) != 1:
        raise DimensionError("dilation needs a single-block second algebra")
    if norm(x) > 1.0 + 1e-12:
        raise DimensionError(f"element norm {norm(x):.6f} exceeds 1")
    k = x.alg_b.blocks[0]
    parts = []
    for (kk, _) in x.pairs():
        n = x.alg_a.blocks[kk]
        p4 = x.part(kk, 0).reshape(n, k, n, k)
        y6 = np.zeros((n, 2, k, n, 2, k), dtype=np.complex128)
        ident = np.einsum("ij,cd->icjd", np.eye(n), np.eye(k))
        y6[:, 0, :, :, 0, :] = ident
        y6[:, 1, :, :, 1, :] = ident
        y6[:, 0, :, :, 1, :] = r * p4
        y6[:, 1, :, :, 0, :] = r * np.transpose(p4.conj(), (2, 3, 0, 1))
        parts.append(y6.reshape(n * 2 * k, n * 2 * k))
    return algebra.BipartiteElement(
        x.alg_a, algebra.FdAlgebra((2 * k,)), tuple(parts))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar unitary via QR of a Ginibre matrix with the phase fix."""
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


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
