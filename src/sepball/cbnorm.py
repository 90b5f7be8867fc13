"""Two-sided bounds on the completely bounded norm of a matrix map.

Upper bound: the smallest t admitting completely positive maps
phi_1, phi_2 with unit images of norm at most t such that

    [[ Choi(phi_1), Choi(psi)  ],
     [ Choi(psi)*,  Choi(phi_2)]]  >=  0.

Any such pair certifies ||psi||_cb <= sqrt(||phi_1|| ||phi_2||) <= t, and
the optimal t never exceeds min(dim_in, dim_out) * ||psi||.

Lower bound: the norm of Id_k (x) psi on seeded random and directed
contractions, maximized by alternating polar-decomposition updates.
The cb norm of a map into M_m is attained at amplification level
min(dim_in, dim_out), so the default level closes the sandwich for
the maps treated here.

The embedded corner transpose has both bounds in closed form
(``embedded_transpose_norm``); the program and the search serve every
other map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore, maps, sampling, sdp
from .errors import ConvergenceError, DimensionError

LOOSE_RELATIVE_WIDTH = 1e-3


@dataclass(frozen=True)
class MajorizingPair:
    """CP maps phi_1, phi_2 whose block matrix dominates the target."""

    phi1: maps.LinearMapRep
    phi2: maps.LinearMapRep
    target: maps.LinearMapRep

    def block_matrix(self) -> np.ndarray:
        b = self.target.choi
        q = b.shape[0]
        y = np.zeros((2 * q, 2 * q), dtype=np.complex128)
        y[:q, :q] = self.phi1.choi
        y[:q, q:] = b
        y[q:, :q] = b.conj().T
        y[q:, q:] = self.phi2.choi
        return y

    def psd_margin(self) -> float:
        return matcore.min_eigenvalue(self.block_matrix())

    def bound(self) -> float:
        """sqrt of the product of the unit-image norms."""
        return float(np.sqrt(
            _unit_image_norm(self.phi1) * _unit_image_norm(self.phi2)))


def _unit_image_norm(f: maps.LinearMapRep) -> float:
    unit = matcore.partial_trace(f.choi, (f.dim_in, f.dim_out), "first")
    return matcore.operator_norm(unit)


@dataclass(frozen=True)
class CbNormResult:
    lower: float
    upper: float
    pair: MajorizingPair
    witness: np.ndarray = field(repr=False)  # contraction attaining `lower`
    level: int
    loose: bool


def _upper_problem(psi: maps.LinearMapRep) -> sdp.SdpProblem:
    n, m = psi.dim_in, psi.dim_out
    q = n * m
    big = 2 * q
    blocks = (big, m, m, 1)
    zero = [np.zeros((d, d), dtype=np.complex128) for d in blocks]

    def fresh():
        return [z.copy() for z in zero]

    constraints = []
    b = psi.choi
    for u in range(q):
        for w in range(q):
            re = fresh()
            re[0][u, q + w] = 1.0
            re[0][q + w, u] = 1.0
            constraints.append((2.0 * float(b[u, w].real), re))
            im = fresh()
            im[0][u, q + w] = 1.0j
            im[0][q + w, u] = -1.0j
            constraints.append((2.0 * float(b[u, w].imag), im))

    eye_n = np.eye(n)
    for j, sblock in ((0, 1), (1, 2)):
        off = j * q
        for h in sdp.hermitian_basis(m):
            mats = fresh()
            mats[0][off:off + q, off:off + q] = matcore.kron(eye_n, h)
            mats[sblock] = h.astype(np.complex128)
            mats[3][0, 0] = -float(np.real(np.trace(h)))
            constraints.append((0.0, mats))

    objective = fresh()
    objective[3][0, 0] = 1.0
    return sdp.SdpProblem(blocks=blocks, objective=objective,
                          constraints=constraints)


def cb_upper_sdp(psi: maps.LinearMapRep,
                 options: sdp.SdpOptions | None = None):
    """Solve the majorizing-pair program; returns (value, MajorizingPair)."""
    opts = options or sdp.SdpOptions(check_independence=False)
    sol = sdp.solve(_upper_problem(psi), opts)
    if sol.status != "optimal":
        raise ConvergenceError(
            f"cb upper-bound program ended with status {sol.status}: "
            f"{sol.message}"
        )
    q = psi.dim_in * psi.dim_out
    y = sol.primal[0]
    f1 = matcore.check_hermitian(y[:q, :q], rtol=1e-6)
    f2 = matcore.check_hermitian(y[q:, q:], rtol=1e-6)
    pair = MajorizingPair(
        phi1=maps.LinearMapRep(psi.dim_in, psi.dim_out, f1),
        phi2=maps.LinearMapRep(psi.dim_in, psi.dim_out, f2),
        target=psi,
    )
    return float(sol.primal_obj), pair


def _apply_level(psi: maps.LinearMapRep, x: np.ndarray, k: int) -> np.ndarray:
    return maps.apply_to_second_leg(psi, x, k)


def _polar_factor(g: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def _search_once(psi: maps.LinearMapRep, k: int, x0: np.ndarray, steps: int):
    """Alternating maximization of ||(Id_k (x) psi)(x)|| over contractions."""
    x = x0
    value = -np.inf
    for _ in range(steps):
        y = _apply_level(psi, x, k)
        u_mat, s, vh = np.linalg.svd(y)
        new_value = float(s[0])
        u = u_mat[:, 0]
        v = vh[0, :].conj()
        g = maps.adjoint_apply_to_second_leg(psi, np.outer(u, v.conj()), k)
        x = _polar_factor(g)
        if new_value <= value + 1e-13 * max(1.0, abs(new_value)):
            value = max(value, new_value)
            break
        value = new_value
    y = _apply_level(psi, x, k)
    return float(np.linalg.norm(y, 2)), x


def amplification_norm(psi: maps.LinearMapRep, k: int, seed: int = 0,
                       budget: maps.SearchBudget = maps.SearchBudget(32, 300)):
    """Lower bound ||Id_k (x) psi|| with its witness contraction.

    Levels 1..k are swept in order and the best contraction of each level
    is zero-padded into the next level's starting pool, which makes the
    reported value monotone nondecreasing in k.
    """
    if k < 1:
        raise DimensionError(f"amplification level must be positive, got {k}")
    n = psi.dim_in
    best_value, best_x = -np.inf, None
    carried = None
    for level in range(1, k + 1):
        d = level * n
        starts = [np.eye(d, dtype=np.complex128)]
        a = min(level, n)
        starts.append(matcore.embedded_swap(a, level, n))
        if carried is not None:
            pad = np.zeros((d, d), dtype=np.complex128)
            prev = carried.shape[0]
            pad[:prev, :prev] = carried
            starts.append(pad)
        for r in range(budget.restarts):
            rng = sampling.rng_from(0xCB, seed, level, r)
            starts.append(sampling.random_contraction(rng, d))

        level_value, level_x = -np.inf, None
        for x0 in starts:
            value, x = _search_once(psi, level, x0, budget.steps)
            if value > level_value:
                level_value, level_x = value, x
        carried = level_x
        if level_value > best_value:
            best_value, best_x = level_value, level_x
    return best_value, best_x


def _sandwich(lower: float, upper: float, pair: MajorizingPair,
              witness: np.ndarray, level: int) -> CbNormResult:
    loose = (upper - lower) > LOOSE_RELATIVE_WIDTH * max(upper, 1e-12)
    return CbNormResult(lower=lower, upper=upper, pair=pair,
                        witness=witness, level=level, loose=loose)


def cb_norm(psi: maps.LinearMapRep, level: int | None = None, seed: int = 0,
            budget: maps.SearchBudget = maps.SearchBudget(32, 300),
            options: sdp.SdpOptions | None = None) -> CbNormResult:
    """Sandwich the cb norm between the search lower and SDP upper bound.

    ``level`` defaults to min(dim_in, dim_out), where the cb norm of a
    map into a matrix block is attained; pass a larger value to push the
    lower bound on maps where the default sandwich stays loose.
    """
    k = level if level is not None else min(psi.dim_in, psi.dim_out)
    lower, witness = amplification_norm(psi, k, seed=seed, budget=budget)
    upper, pair = cb_upper_sdp(psi, options=options)
    return _sandwich(lower, upper, pair, witness, k)


def embedded_transpose_norm(d: int, n: int, m: int) -> CbNormResult:
    """Closed-form sandwich for ``maps.embedded_transpose(d, n, m)``.

    Both bounds equal the corner size d, with no solve and no search.
    Upper: phi_1 = phi_2 = the corner projector P (Choi matrix diagonal,
    ones at i*m + j for i, j < d).  The Choi matrix F of the map is the
    corner swap, so F = P F P and F^2 = P, and [[P, F], [F, P]] >= 0
    because it is unitarily equivalent to (P + F) (+) (P - F).  Each
    unit image is d times the corner identity, so the pair bound is d.
    Lower: (Id_k (x) psi)(S) = d |Omega><Omega| for the corner swap S of
    C^k (x) C^n, a contraction, at level k = min(n, m).
    """
    psi = maps.embedded_transpose(d, n, m)
    corner = np.zeros((n, m))
    corner[:d, :d] = 1.0
    p = maps.LinearMapRep(n, m, np.diag(corner.ravel()).astype(np.complex128))
    pair = MajorizingPair(phi1=p, phi2=p, target=psi)
    k = min(n, m)
    witness = matcore.embedded_swap(d, k, n)
    lower = matcore.operator_norm(maps.apply_to_second_leg(psi, witness, k))
    return _sandwich(lower, pair.bound(), pair, witness, k)
