"""Linear maps between matrix blocks in Choi form.

A map Phi: M_n -> M_m is stored through its Choi matrix
``C = sum_ij e_ij (x) Phi(e_ij)`` on C^n (x) C^m with the domain leg
first.  Complete positivity is positivity of C.  The module evaluates
maps, their amplifications Id_k (x) Phi and the adjoints of those, and
builds the Choi matrices of the named maps and of linear callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore, sampling
from .errors import DimensionError, LinearityError

LINEARITY_RTOL = 1e-10
PSD_SLACK = 1e-9


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


def choi_of_map(apply, n: int, m: int, rtol: float = LINEARITY_RTOL) -> LinearMapRep:
    """Build the Choi representation of a callable on matrices.

    Linearity is spot-checked on one seeded random pair; a violation
    beyond ``rtol`` (relative to the outputs) raises LinearityError.
    """
    rng = sampling.rng_from(0x5EBA11, n, m)
    x = sampling.complex_gaussian(rng, (n, n))
    y = sampling.complex_gaussian(rng, (n, n))
    a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
    lhs = matcore.as_matrix(apply(a * x + b * y))
    rhs = a * matcore.as_matrix(apply(x)) + b * matcore.as_matrix(apply(y))
    scale = max(1.0, matcore.frobenius_norm(lhs), matcore.frobenius_norm(rhs))
    if matcore.frobenius_norm(lhs - rhs) > rtol * scale:
        raise LinearityError(
            "callable failed the linearity spot check "
            f"(deviation {matcore.frobenius_norm(lhs - rhs):.3e})"
        )
    choi = np.zeros((n * m, n * m), dtype=np.complex128)
    c4 = choi.reshape(n, m, n, m)
    for i in range(n):
        for j in range(n):
            out = matcore.as_matrix(apply(matcore.matrix_unit(n, i, j)))
            if out.shape != (m, m):
                raise DimensionError(
                    f"apply returned shape {out.shape}, expected ({m}, {m})"
                )
            c4[i, :, j, :] = out
    return LinearMapRep(n, m, choi)


def apply_map(f: LinearMapRep, x) -> np.ndarray:
    """Evaluate the map on a matrix of its domain."""
    a = matcore.as_matrix(x)
    n = f.dim_in
    if a.shape != (n, n):
        raise DimensionError(f"input shape {a.shape} does not match M_{n}")
    return np.einsum("ij,iajb->ab", a, f.choi4)


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


def amplify(f: LinearMapRep, k: int) -> LinearMapRep:
    """The map Id_k (x) f as a LinearMapRep on M_{k*dim_in} -> M_{k*dim_out}.

    Its Choi matrix is, up to the explicit flip of the two middle tensor
    legs, the Kronecker product of the rank-one pairing projector P_k
    with the Choi matrix of f.
    """
    if k < 1:
        raise DimensionError(f"amplification level must be positive, got {k}")
    n, m = f.dim_in, f.dim_out
    if (k * n) * (k * m) > matcore.KRON_CAP:
        raise matcore.SizeCapError(
            f"amplified Choi would be {(k * n) * (k * m)}-dimensional, "
            f"beyond the cap {matcore.KRON_CAP}"
        )
    eye = np.eye(k)
    amp8 = np.einsum("ia,jb,rcsd->iracjsbd", eye, eye, f.choi4)
    d = k * n * k * m
    return LinearMapRep(k * n, k * m, amp8.reshape(d, d))


def is_completely_positive(f: LinearMapRep, tol: float = PSD_SLACK):
    """PSD check on the Choi matrix.

    Returns ``(flag, margin)`` where margin is the smallest eigenvalue.
    Raises HermiticityError when the Choi matrix is not Hermitian (such
    a map cannot be positive in any sense).
    """
    if tol < 0:
        raise DimensionError("tolerance must be nonnegative")
    w, _ = matcore.eig_hermitian(f.choi)
    margin = float(w[0])
    scale = max(1.0, matcore.frobenius_norm(f.choi))
    return margin >= -tol * scale, margin


def hat_functional(f: LinearMapRep, x) -> complex:
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
