"""Linear maps between matrix blocks in Choi form.

A map Phi: M_n -> M_m is stored through its Choi matrix
``C = sum_ij e_ij (x) Phi(e_ij)`` on C^n (x) C^m with the domain leg
first.  The module builds the Choi matrices of the named maps and
evaluates the amplifications Id_k (x) Phi and their adjoints; k = 1
evaluates the map itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import DimensionError


@dataclass(frozen=True)
class LinearMapRep:
    """Choi-form representation of a linear map M_{dim_in} -> M_{dim_out}."""

    dim_in: int
    dim_out: int
    choi: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = matcore.as_matrix(self.choi)
        d = self.dim_in * self.dim_out
        if self.dim_in < 1 or self.dim_out < 1:
            raise DimensionError("map dimensions must be positive")
        if c.shape != (d, d):
            raise DimensionError(
                f"choi matrix has shape {c.shape}, expected ({d}, {d}) "
                f"for a map M_{self.dim_in} -> M_{self.dim_out}"
            )
        object.__setattr__(self, "choi", c)

    @property
    def choi4(self) -> np.ndarray:
        """Choi tensor reshaped to (in, out, in, out)."""
        n, m = self.dim_in, self.dim_out
        return self.choi.reshape(n, m, n, m)


def transpose_map(n: int) -> LinearMapRep:
    return LinearMapRep(n, n, matcore.swap_operator(n))


def identity_map(n: int) -> LinearMapRep:
    return LinearMapRep(n, n, matcore.max_entangled_projector(n))


def reduction_map(n: int) -> LinearMapRep:
    """x -> Tr(x) 1 - x."""
    d = n * n
    return LinearMapRep(n, n, np.eye(d) - matcore.max_entangled_projector(n))


def embedded_transpose(d: int, n: int, m: int) -> LinearMapRep:
    """x -> pad(transpose of the top d x d corner of x), M_n -> M_m.

    The compression and padding are complete contractions, so the map
    keeps the transpose's norm behavior on the corner; it is unital as a
    map of the corner M_d into itself and contractive overall.
    """
    if d > min(n, m):
        raise DimensionError(f"corner size {d} does not fit into ({n}, {m})")
    return LinearMapRep(n, m, matcore.embedded_swap(d, n, m))


def apply_to_second_leg(f: LinearMapRep, x, first_dim: int) -> np.ndarray:
    """(Id_k (x) f)(x) for x on C^k (x) C^{dim_in}."""
    a = matcore.as_matrix(x)
    k, n, m = int(first_dim), f.dim_in, f.dim_out
    if a.shape != (k * n, k * n):
        raise DimensionError(
            f"input shape {a.shape} does not match C^{k} (x) C^{n}"
        )
    x4 = a.reshape(k, n, k, n)
    out = np.einsum("irjs,rcsd->icjd", x4, f.choi4)
    return np.ascontiguousarray(out.reshape(k * m, k * m))


def adjoint_apply_to_second_leg(f: LinearMapRep, a, first_dim: int) -> np.ndarray:
    """Hilbert-Schmidt adjoint of (Id_k (x) f) evaluated on a."""
    m4 = matcore.as_matrix(a).reshape(first_dim, f.dim_out, first_dim, f.dim_out)
    out = np.einsum("icjd,rcsd->irjs", m4, f.choi4.conj())
    kn = first_dim * f.dim_in
    return np.ascontiguousarray(out.reshape(kn, kn))
