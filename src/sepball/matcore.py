"""Dense complex linear-algebra kernels on a fixed bipartite factorization.

Everything downstream (maps, SDP cones, witnesses) reduces to the
operations here: Hermitian eigendecomposition, operator norm, Kronecker
products, and the partial trace / partial transpose of a matrix on
C^n (x) C^m.  All functions are pure; inputs are never mutated and every
result is a freshly allocated complex128 array in row-major order.

Index convention for the tensor factorization: the row index of
``a (x) b`` is ``i * b.rows + r`` where ``i`` indexes the first factor.
The first leg of a bipartite matrix is always the n-dimensional one.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DimensionError, HermiticityError

# Relative slack for the Hermitian symmetry check.
HERMITICITY_RTOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce input to a fresh 2-d complex128 array in C order."""
    a = np.array(m, dtype=np.complex128, order="C")
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got an array of ndim {a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError("matrices must have at least one row and column")
    return a


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def binary_exponent(m) -> int:
    """The least e >= 0 with every real and imaginary part of m below
    2**e (0 if one is not finite).  Scaling m by 2**-e is exact for every
    entry that stays normal, so its norms and eigenvalues scale back."""
    a = np.asarray(m)
    top = max(float(np.abs(a.real).max()), float(np.abs(a.imag).max()))
    return max(0, int(np.frexp(top)[1]))


def check_hermitian(m, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized matrix.

    The check is ``max_ij |m_ij - conj(m_ji)| <= rtol * max(1, ||m||_F)``,
    the norm taken on m scaled by ``binary_exponent`` so it cannot overflow.
    On success the exact Hermitian part ``m/2 + m^*/2`` (finite for finite
    m) is returned so that eigensolvers see a bitwise-symmetric input.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"Hermitian check needs a square matrix, got {a.shape}")
    dev = np.abs(a - a.conj().T)
    worst = float(dev.max())
    if worst > rtol:  # up to rtol it passes whatever the norm
        e = binary_exponent(a)
        bound = max(rtol, float(np.ldexp(rtol * frobenius_norm(a * 2.0 ** -e), e)))
        if worst > bound:
            i, j = np.unravel_index(int(dev.argmax()), dev.shape)
            raise HermiticityError(
                f"matrix is not Hermitian: |m[{i},{j}] - conj(m[{j},{i}])| "
                f"= {worst:.3e} exceeds {bound:.3e}"
            )
    return a / 2.0 + a.conj().T / 2.0


def eig_hermitian(m, rtol: float = HERMITICITY_RTOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending (real float64)
    and unitary ``v`` whose columns are the matching eigenvectors.
    """
    a = check_hermitian(m, rtol=rtol)
    try:
        w, v = scipy.linalg.eigh(a, driver="ev")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise ConvergenceError(f"Hermitian eigensolver hit its iteration limit: {exc}")
    return w, v


def eigvals_hermitian(m, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, without eigenvectors."""
    a = check_hermitian(m, rtol=rtol)
    try:
        return scipy.linalg.eigvalsh(a, driver="ev")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise ConvergenceError(f"Hermitian eigensolver hit its iteration limit: {exc}")


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = eig_hermitian(m)
    return float(w[0])


def operator_norm(m) -> float:
    """Largest singular value."""
    a = as_matrix(m)
    return float(np.linalg.norm(a, 2))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the row index ``i * b.rows + r``."""
    return np.kron(as_matrix(a), as_matrix(b))


def _split_shape(x: np.ndarray, dims) -> tuple[int, int]:
    n, m = int(dims[0]), int(dims[1])
    if n < 1 or m < 1:
        raise DimensionError(f"factor dimensions must be positive, got {(n, m)}")
    if x.shape != (n * m, n * m):
        raise DimensionError(
            f"matrix of shape {x.shape} does not factor as ({n}*{m}, {n}*{m})"
        )
    return n, m


def _check_leg(leg: str) -> str:
    if leg not in ("first", "second"):
        raise DimensionError(f"leg must be 'first' or 'second', got {leg!r}")
    return leg


def partial_transpose(x, dims, leg: str = "second") -> np.ndarray:
    """Transpose one tensor leg of a matrix on C^n (x) C^m."""
    a = as_matrix(x)
    n, m = _split_shape(a, dims)
    _check_leg(leg)
    t = a.reshape(n, m, n, m)
    if leg == "first":
        t = np.transpose(t, (2, 1, 0, 3))
    else:
        t = np.transpose(t, (0, 3, 2, 1))
    return np.ascontiguousarray(t.reshape(n * m, n * m))


def partial_trace(x, dims, leg: str = "first") -> np.ndarray:
    """Trace out one tensor leg; tracing ``first`` leaves an m x m matrix."""
    a = as_matrix(x)
    n, m = _split_shape(a, dims)
    _check_leg(leg)
    t = a.reshape(n, m, n, m)
    if leg == "first":
        return np.ascontiguousarray(np.einsum("iris->rs", t))
    return np.ascontiguousarray(np.einsum("irjr->ij", t))


def matrix_unit(d: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=np.complex128)
    e[i, j] = 1.0
    return e


def swap_operator(d: int) -> np.ndarray:
    """The swap F = sum_kl e_kl (x) e_lk on C^d (x) C^d."""
    f = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def max_entangled_projector(d: int) -> np.ndarray:
    """P = sum_kl e_kl (x) e_kl, the unnormalized maximally entangled projector."""
    p = np.zeros((d * d, d * d), dtype=np.complex128)
    for k in range(d):
        for l in range(d):
            p[k * d + k, l * d + l] = 1.0
    return p


def embedded_swap(a: int, n: int, m: int) -> np.ndarray:
    """Swap on the top a x a corner of C^n (x) C^m, zero elsewhere.

    Requires ``a <= min(n, m)``; the result has operator norm 1.
    """
    if a < 1 or a > min(n, m):
        raise DimensionError(f"cannot embed a swap of size {a} into ({n}, {m})")
    f = np.zeros((n * m, n * m), dtype=np.complex128)
    for i in range(a):
        for j in range(a):
            f[i * m + j, j * m + i] = 1.0
    return f

