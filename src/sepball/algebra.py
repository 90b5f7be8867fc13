"""Finite-dimensional block algebras and elements of their tensor products.

An algebra is an ordered direct sum of full matrix blocks; an element of
``A (x) B`` is stored as one dense matrix per block pair ``(k, l)`` in
lexicographic order.  The block-diagonal form is exact: there is no
coupling between pairs, so norms, positivity and verdicts all reduce to
per-pair computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import DimensionError, SizeCapError

# Largest allowed sum of block sizes per algebra leg (dense arithmetic only).
BLOCK_SUM_CAP = 64


@dataclass(frozen=True)
class FdAlgebra:
    """Direct sum of full matrix blocks, e.g. blocks=(2, 3) for M_2 + M_3."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if len(blocks) == 0:
            raise DimensionError("an algebra needs at least one block")
        if any(b < 1 for b in blocks):
            raise DimensionError(f"block sizes must be positive, got {blocks}")
        if sum(blocks) > BLOCK_SUM_CAP:
            raise SizeCapError(
                f"sum of block sizes {sum(blocks)} exceeds the cap {BLOCK_SUM_CAP}"
            )

    @property
    def rank(self) -> int:
        return max(self.blocks)


@dataclass(frozen=True)
class BipartiteElement:
    """Element of A (x) B: one matrix of size n_k*m_l per block pair.

    Parts are stored in lexicographic (k, l) order; use :meth:`part` for
    access by pair index.
    """

    alg_a: FdAlgebra
    alg_b: FdAlgebra
    parts: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        expected = len(self.alg_a.blocks) * len(self.alg_b.blocks)
        if len(self.parts) != expected:
            raise DimensionError(
                f"expected {expected} parts for the block pairs, got {len(self.parts)}"
            )
        coerced = []
        for (k, l), p in zip(self.pairs(), self.parts):
            d = self.alg_a.blocks[k] * self.alg_b.blocks[l]
            m = matcore.as_matrix(p)
            if m.shape != (d, d):
                raise DimensionError(
                    f"part ({k},{l}) has shape {m.shape}, expected ({d}, {d})"
                )
            coerced.append(m)
        object.__setattr__(self, "parts", tuple(coerced))

    def pairs(self) -> list[tuple[int, int]]:
        return [(k, l)
                for k in range(len(self.alg_a.blocks))
                for l in range(len(self.alg_b.blocks))]

    def pair_dims(self, k: int, l: int) -> tuple[int, int]:
        return self.alg_a.blocks[k], self.alg_b.blocks[l]

    def part(self, k: int, l: int) -> np.ndarray:
        return self.parts[k * len(self.alg_b.blocks) + l]

    def hermitized(self) -> "BipartiteElement":
        """The Hermitian part (p + p*)/2 of every component; a
        ``DimensionError`` where it overflows the float range."""
        parts = []
        for (k, l), p in zip(self.pairs(), self.parts):
            h = (p + p.conj().T) / 2.0
            if not np.isfinite(h).all():
                raise DimensionError(f"part ({k},{l}): its Hermitian part "
                                     "overflows the float range")
            parts.append(h)
        return BipartiteElement(self.alg_a, self.alg_b, tuple(parts))


def assemble(alg_a: FdAlgebra, alg_b: FdAlgebra, pieces) -> BipartiteElement:
    """Element with the given (k, l) -> matrix parts.

    ``pieces`` maps (k, l) to a matrix (a dict or an iterable of pairs);
    absent block pairs are filled with zeros.
    """
    by_pair = {tuple(kl): m for kl, m in dict(pieces).items()}
    grid = {(k, l) for k in range(len(alg_a.blocks))
            for l in range(len(alg_b.blocks))}
    for kl in by_pair:
        if kl not in grid:
            raise DimensionError(f"block pair {kl} outside the "
                                 f"{len(alg_a.blocks)}x{len(alg_b.blocks)} grid")
    parts = []
    for k in range(len(alg_a.blocks)):
        for l in range(len(alg_b.blocks)):
            d = alg_a.blocks[k] * alg_b.blocks[l]
            if (k, l) in by_pair:
                parts.append(matcore.as_matrix(by_pair[(k, l)]))
            else:
                parts.append(np.zeros((d, d), dtype=np.complex128))
    return BipartiteElement(alg_a, alg_b, tuple(parts))


def identity_minus(x: BipartiteElement) -> BipartiteElement:
    """1 (x) 1 - x on the same algebras."""
    parts = tuple(np.eye(p.shape[0], dtype=np.complex128) - p for p in x.parts)
    return BipartiteElement(x.alg_a, x.alg_b, parts)
