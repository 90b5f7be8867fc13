"""Two-sided bounds on the completely bounded norm of a matrix map.

Upper bound: the smallest t admitting completely positive maps
phi_1, phi_2 with unit images of norm at most t such that

    [[ Choi(phi_1), Choi(psi)  ],
     [ Choi(psi)*,  Choi(phi_2)]]  >=  0.

Any such pair certifies ||psi||_cb <= sqrt(||phi_1|| ||phi_2||) <= t, and
the optimal t never exceeds min(dim_in, dim_out) * ||psi||.  The program
has one block, Y = [[Y_11, Choi(psi)], [Choi(psi)*, Y_22]] >= 0 with
Tr_1 Y_11 = Tr_1 Y_22 = t 1, and minimizes Tr Y = 2 dim_out t, so t is
no separate variable.  (Asking only Tr_1 Y_jj <= t 1 gives the same
optimum: adding 1/n (x) rho_j to Y_jj closes the gap rho_j.)  The
reported upper bound is the pair bound of phi_j = Y_jj, after the
solver's pair is shifted just enough to make its block matrix positive
semidefinite.

Lower bound: the norm of Id_k (x) psi on an explicit contraction.  By
default the contraction is read off the dual slack of the same program,

    Z = [[ 1_n (x) rho_1, X ], [ X*, 1_n (x) rho_2 ]]  >=  0,

where 1_n (x) rho_j is the identity minus the combination of the rows
on Y_jj that their dual weights make (the rho_0/rho_1 form of
Watrous, "Simpler semidefinite programs for completely bounded norms",
CJTCS 2013): the contraction Z_11^{-1/2} X Z_22^{-1/2}, reshuffled,
attains the cb norm at level k = dim_out, so the sandwich closes to
solver accuracy with no search.  An explicit ``level`` instead runs the
seeded alternating search of ``amplification_norm`` over levels 1..k.
Either way the lower bound is recomputed from the contraction itself, so
it is rigorous at any solver accuracy.

Many maps need no program: ``closed_form`` pairs the polar parts of
the Choi matrix with two fixed contractions, and ``cb_norm`` solves the
program only where that sandwich stays open.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import matcore, maps, sampling, sdp
from .errors import ConvergenceError, DimensionError

LOOSE_RELATIVE_WIDTH = 1e-3  # of max(upper, 1): absolute below norm 1
CLOSED_WIDTH = 1e-9  # of max(upper, 1): a closed form this narrow is kept
PINV_RELATIVE_CUTOFF = 1e-12  # eigenvalues of rho_j below this share are 0


@dataclass(frozen=True)
class SearchBudget:
    """Random restarts per level and alternating steps per start."""

    restarts: int = 32
    steps: int = 300


@dataclass(frozen=True)
class MajorizingPair:
    """CP maps phi_1, phi_2 whose block matrix dominates the target."""

    phi1: maps.LinearMapRep
    phi2: maps.LinearMapRep
    target: maps.LinearMapRep

    def block_matrix(self) -> np.ndarray:
        b = self.target.choi
        return np.block([[self.phi1.choi, b], [b.conj().T, self.phi2.choi]])

    def psd_margin(self) -> float:
        return matcore.min_eigenvalue(self.block_matrix())

    def bound(self) -> float:
        """sqrt of the product of the unit-image norms, root by root."""
        return float(np.sqrt(_unit_image_norm(self.phi1))
                     * np.sqrt(_unit_image_norm(self.phi2)))


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
    """The majorizing-pair program for psi, its rows written as entries.

    One block Y = [[Y_11, B], [B*, Y_22]] of size 2q (q = nm) and
    objective Tr Y.  Rows 2k and 2k + 1 (k = u q + w) fix the real and
    imaginary parts of entry (u, w) of Y's off-diagonal block to those of
    B = Choi(psi).  The next m^2 rows set <1_n (x) h, Y_11 - Y_22> = 0 for
    h in ``sdp.hermitian_basis(m)``, that is Tr_1 Y_11 = Tr_1 Y_22; the
    last m^2 - 1 rows set <1_n (x) h, Y_11> = 0 for the traceless h
    E_kk - E_{m-1,m-1} (k < m - 1) and the basis's off-diagonal elements,
    that is Tr_1 Y_11 = t 1 for some t.  Then Tr Y = 2 m t, and the
    identity start of ``sdp.solve`` is dual feasible.
    """
    n, m = psi.dim_in, psi.dim_out
    q = n * m
    big = 2 * q
    p_pair = 2 * q * q

    k = np.arange(q * q)
    u, w = np.divmod(k, q)
    upper, lower = u * big + q + w, (q + w) * big + u  # (u, q+w), (q+w, u)
    one = np.ones(q * q, dtype=np.complex128)
    entries = [(2 * k, upper, one), (2 * k, lower, one),
               (2 * k + 1, upper, 1j * one), (2 * k + 1, lower, -1j * one)]

    basis = np.array(sdp.hermitian_basis(m))  # E_kk (trace 1) come first
    traceless = np.concatenate([basis[:m - 1] - basis[m - 1], basis[m:]])
    # (first row, matrices h, offset of Y_jj, sign) of <1_n (x) h, Y_jj>
    for first, hs, off, sign in ((p_pair, basis, 0, 1), (p_pair, basis, q, -1),
                                 (p_pair + m * m, traceless, 0, 1)):
        t, a, c = np.nonzero(hs)
        for i in range(n):
            o = off + i * m
            entries.append((first + t, (o + a) * big + o + c,
                            sign * hs[t, a, c]))

    p = p_pair + 2 * m * m - 1
    r, col, val = (np.concatenate(x) for x in zip(*entries))
    rows = scipy.sparse.csr_matrix((val, (r, col)), shape=(p, big * big))
    rhs = np.zeros(p)
    rhs[:p_pair] = 2.0 * psi.choi.ravel().view(np.float64)  # re, im, ...
    return sdp.SdpProblem.from_rows((big,), [np.eye(big)], rhs, (rows,))


def _certified_pair(psi: maps.LinearMapRep, sol: sdp.SdpSolution,
                    scale: float) -> MajorizingPair:
    """The primal's pair for psi / scale, times scale, with eps * 1 added.

    eps = max(0, -lambda_min) of the resulting block matrix, so the pair
    is positive semidefinite up to round-off and its ``bound()`` is a
    valid upper bound even where the iterate sits a little outside the
    cone.
    """
    n, m = psi.dim_in, psi.dim_out
    q = n * m
    y = sol.primal[0]
    f1 = scale * matcore.check_hermitian(y[:q, :q], rtol=1e-6)
    f2 = scale * matcore.check_hermitian(y[q:, q:], rtol=1e-6)
    raw = MajorizingPair(phi1=maps.LinearMapRep(n, m, f1),
                         phi2=maps.LinearMapRep(n, m, f2), target=psi)
    shift = max(0.0, -raw.psd_margin()) * np.eye(q)
    return MajorizingPair(phi1=maps.LinearMapRep(n, m, f1 + shift),
                          phi2=maps.LinearMapRep(n, m, f2 + shift),
                          target=psi)


def _pinv_sqrt(rho: np.ndarray) -> np.ndarray:
    """rho^{-1/2} on the numerical support of rho, 0 off it."""
    w, v = matcore.eig_hermitian(rho)
    keep = w > PINV_RELATIVE_CUTOFF * max(w[-1], 0.0)
    s = np.zeros_like(w)
    s[keep] = 1.0 / np.sqrt(w[keep])
    return (v * s) @ v.conj().T


def _dual_witness(psi: maps.LinearMapRep, sol: sdp.SdpSolution) -> np.ndarray:
    """Contraction on C^{dim_out} (x) C^{dim_in} read off the dual slack.

    The slack's first block is Z = [[Z_11, X], [X*, Z_22]] >= 0, with
    Z_jj = 1 (x) rho_j, so K = Z_11^{-1/2} X Z_22^{-1/2}, with
    pseudo-inverse square roots, is a contraction; its singular values
    are clipped to 1 against round-off.
    K does not change when the rho_j are scaled to trace one and X by
    1/sqrt(Tr rho_1 Tr rho_2), so no scaling is done.  The witness is K
    with the two tensor legs swapped on both sides, conjugated.
    """
    n, m = psi.dim_in, psi.dim_out
    q = n * m
    z = sol.dual_slack[0]
    k = _pinv_sqrt(z[:q, :q]) @ z[:q, q:] @ _pinv_sqrt(z[q:, q:])
    u, s, vh = np.linalg.svd(k)
    k = (u * np.minimum(s, 1.0)) @ vh
    return np.conj(k.reshape(n, m, n, m).transpose(1, 0, 3, 2)).reshape(q, q)


def cb_upper_sdp(psi: maps.LinearMapRep, gap_tol: float = sdp.GAP_TOL):
    """Solve the majorizing-pair program; returns (value, pair, witness).

    The program is solved for psi / ||Choi(psi)||, as the norm is
    homogeneous, to the relative duality gap ``gap_tol``.  The value is
    the certified pair's ``bound()`` on psi's scale; the witness is the
    dual contraction at level dim_out (see ``_dual_witness``).
    """
    scale = matcore.operator_norm(psi.choi) or 1.0
    unit = maps.LinearMapRep(psi.dim_in, psi.dim_out, psi.choi / scale)
    sol = sdp.solve(_upper_problem(unit), gap_tol=gap_tol)
    if sol.status != "optimal":
        raise ConvergenceError(
            f"cb upper-bound program ended with status {sol.status}: "
            f"{sol.message}"
        )
    pair = _certified_pair(psi, sol, scale)
    return pair.bound(), pair, _dual_witness(psi, sol)


def closed_form(psi: maps.LinearMapRep) -> CbNormResult:
    """The sandwich from one SVD of B = Choi(psi) = U S V*, with no solver.

    Upper: [[U S U*, B], [B*, V S V*]] >= 0 (Paulsen, "Completely Bounded
    Maps and Operator Algebras", 2002).  Lower: the identity or the corner
    swap at level dim_out, clamped to the upper bound against round-off.
    Exact on transposes, identities, embedded transposes and CP maps.
    """
    n, m = psi.dim_in, psi.dim_out
    u, s, vh = np.linalg.svd(psi.choi)
    polar = [maps.LinearMapRep(n, m, matcore.check_hermitian(
        (w * s) @ w.conj().T)) for w in (u, vh.conj().T)]
    pair = MajorizingPair(*polar, target=psi)
    upper = pair.bound()
    contractions = (np.eye(n * m, dtype=np.complex128),
                    matcore.embedded_swap(min(m, n), m, n))
    values = [matcore.operator_norm(maps.apply_to_second_leg(psi, x, m))
              for x in contractions]
    best = int(np.argmax(values))
    return _sandwich(min(values[best], upper), upper, pair,
                     contractions[best], m)


def _polar_factor(g: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def _search_once(psi: maps.LinearMapRep, k: int, x0: np.ndarray, steps: int):
    """Alternating maximization of ||(Id_k (x) psi)(x)|| over contractions."""
    x = x0
    value = -np.inf
    for _ in range(steps):
        y = maps.apply_to_second_leg(psi, x, k)
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
    y = maps.apply_to_second_leg(psi, x, k)
    return float(np.linalg.norm(y, 2)), x


def amplification_norm(psi: maps.LinearMapRep, k: int, seed: int = 0,
                       budget: SearchBudget = SearchBudget()):
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
    loose = (upper - lower) > LOOSE_RELATIVE_WIDTH * max(upper, 1.0)
    return CbNormResult(lower=lower, upper=upper, pair=pair,
                        witness=witness, level=level, loose=loose)


def cb_norm(psi: maps.LinearMapRep, level: int | None = None, seed: int = 0,
            budget: SearchBudget = SearchBudget(),
            gap_tol: float = sdp.GAP_TOL) -> CbNormResult:
    """Sandwich the cb norm between explicit lower and certified upper bounds.

    By default (``level`` None) this is ``closed_form(psi)`` if it closes,
    else the SDP bound (``cb_upper_sdp`` to the gap ``gap_tol``) with its
    dual's lower bound at level dim_out, and ``seed`` and ``budget`` are
    unused.  An explicit ``level`` k takes the lower bound from the
    seeded search of ``amplification_norm`` instead.
    """
    if level is None:
        res = closed_form(psi)
        if res.upper - res.lower <= CLOSED_WIDTH * max(res.upper, 1.0):
            return res
    else:  # search first: a bad level fails before the solve
        lower, witness = amplification_norm(psi, level, seed=seed,
                                            budget=budget)
    upper, pair, dual_witness = cb_upper_sdp(psi, gap_tol=gap_tol)
    if level is None:
        level, witness = psi.dim_out, dual_witness
        lower = matcore.operator_norm(
            maps.apply_to_second_leg(psi, witness, level))
    return _sandwich(lower, upper, pair, witness, level)
