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

The program has p = 2q^2 + 2m^2 - 1 rows, and ``sdp.solve`` runs it
with its own Newton system, ``_UpperSystem``, which never forms the
p x p Schur matrix.  Per iteration it takes the NT factor W = G G* in
the scaled frame of Todd, Toh and Tutuncu (SIAM J. Optim. 8, 1998) and
rotates it into the principal angles between the ranges of G's two
halves (Bjorck and Golub, Math. Comp. 27, 1973).  There the Schur block
of the 2q^2 pair rows is block diagonal in 2 x 2 blocks with a
closed-form Cholesky factor, and only the 2m^2 - 1 trace rows get a
dense Cholesky, of their Schur complement.

Neither the program's rows, held as ``sdp.Rows``, nor its Newton system
use scipy, and every row peels in the solver's dependent-row check, so
``cbnorm`` never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore, maps, sampling, sdp
from .errors import ConvergenceError, DimensionError

LOOSE_RELATIVE_WIDTH = 1e-3  # of max(upper, 1): absolute below norm 1
CLOSED_WIDTH = 1e-9  # of max(upper, 1): a closed form this narrow is kept
PINV_RELATIVE_CUTOFF = 1e-12  # eigenvalues of rho_j below this share are 0
SEARCH_RESTARTS = 32  # random starts per level of ``amplification_norm``
SEARCH_STEPS = 300  # alternating steps per start


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
    unit = matcore.partial_trace(f.choi, (f.dim_in, f.dim_out))
    return matcore.operator_norm(unit)


@dataclass(frozen=True)
class CbNormResult:
    lower: float
    upper: float
    pair: MajorizingPair
    witness: np.ndarray = field(repr=False)  # contraction attaining `lower`
    level: int
    loose: bool


def _trace_rows(m: int) -> np.ndarray:
    """The (2 m^2 - 1, 2, m, m) matrices h_1, h_2 of the rows
    <1_n (x) h_1, Y_11> + <1_n (x) h_2, Y_22> = 0 of ``_upper_problem``:
    (h, -h) for h in ``sdp.hermitian_basis(m)``, then (h, 0) for its
    traceless h (E_kk - E_{m-1,m-1} for k < m - 1, and its off-diagonal
    elements)."""
    basis = np.array(sdp.hermitian_basis(m))  # E_kk (trace 1) come first
    hs = np.zeros((2 * m * m - 1, 2, m, m), dtype=np.complex128)
    hs[:m * m, 0], hs[:m * m, 1] = basis, -basis
    hs[m * m:, 0] = np.concatenate([basis[:m - 1] - basis[m - 1], basis[m:]])
    return hs


def _upper_problem(psi: maps.LinearMapRep) -> sdp.SdpProblem:
    """The majorizing-pair program for psi, its rows written as entries.

    One block Y = [[Y_11, B], [B*, Y_22]] of size 2q (q = nm) and
    objective Tr Y.  Rows 2k and 2k + 1 (k = u q + w), the pair rows, fix
    the real and imaginary parts of entry (u, w) of Y's off-diagonal block
    to those of B = Choi(psi).  The other 2 m^2 - 1 rows, the trace rows
    of ``_trace_rows``, set Tr_1 Y_11 = Tr_1 Y_22 (the first m^2) and
    Tr_1 Y_11 = t 1 for some t (the last m^2 - 1).  Then Tr Y = 2 m t,
    and the identity start of ``sdp.solve`` is dual feasible.
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

    hs = _trace_rows(m)
    t, j, a, c = np.nonzero(hs)
    for i in range(n):
        o = j * q + i * m  # the block Y_jj, its diagonal block i
        entries.append((p_pair + t, (o + a) * big + o + c, hs[t, j, a, c]))

    p = p_pair + len(hs)
    rows = sdp.Rows.from_entries(*(np.concatenate(x) for x in zip(*entries)),
                                 (p, big * big))
    rhs = np.zeros(p)
    rhs[:p_pair] = 2.0 * psi.choi.ravel().view(np.float64)  # re, im, ...
    return sdp.SdpProblem.from_rows((big,), [np.eye(big)], rhs, (rows,))


class _UpperSystem:
    """The Newton system of ``_upper_problem``, built on the solve's
    compiled rows ``comp`` and solved without its Schur matrix M (see
    ``sdp.solve`` for the interface).

    Write W = G G* for the NT scaling and G_1, G_2 for the first and last
    q rows of G.  Take G_j* = Q_j R_j (reduced QR) and Q_1* Q_2 =
    U diag(sigma) V*: the sigma_i are the cosines of the principal angles
    between the ranges of G_1* and G_2* (Bjorck and Golub, Math. Comp. 27,
    1973), and their squared sines s_i^2 are the squared column norms of
    Q_2 V - Q_1 U diag(sigma).  A pair-row dual D (q x q complex, the
    rows' y as D_uw = y_2k + i y_2k+1) meets the pair rows in
    2 L^T K L, where L D = U* R_1 D R_2* V and K E = E + diag(sigma)
    E* diag(sigma): in E's entries that is 2 x 2 blocks coupling E_ij and
    E_ji through [[1, c], [c, 1]] (real parts) and [[1, -c], [-c, 1]]
    (imaginary parts), c = sigma_i sigma_j, and the scalars 1 + sigma_i^2
    (real) and s_i^2 (imaginary) on the diagonal.  So the pair block is
    T^T T with T = sqrt(2) C^T L, C the blocks' Cholesky factors, whose
    1 - c^2 is formed as s_i^2 + s_j^2 - s_i^2 s_j^2; applying T^-T or
    T^-1 takes two q x q products and entrywise arithmetic.  Only the
    2 m^2 - 1 trace rows get a dense Cholesky, of the Schur complement
    S = M_tt - F^T F with F = T^-T M_pt, which ``factor`` forms as a Gram
    matrix with no cancellation.  A zero sine makes T singular, and the
    factorization fails.  Arrays are O(m^2 q^2); M would take 8 p^2
    bytes.
    """

    def __init__(self, comp, n: int, m: int):
        self.comp = comp
        self.n, self.m, self.q = n, m, n * m
        self.hs = _trace_rows(m)
        self.lower = np.tri(self.q, k=-1, dtype=bool)

    def factor(self, scal):
        (w, g, _, _), = scal
        self.w = w
        n, m, q, hs = self.n, self.m, self.q, self.hs
        try:
            (q1, q2), r = np.linalg.qr(g.reshape(2, q, 2 * q).conj().swapaxes(
                1, 2))
            u, sig, vh = np.linalg.svd(q1.conj().T @ q2)
            uv = np.stack([u, vh.conj().T])
            s = np.linalg.norm(q2 @ uv[1] - q1 @ (u * sig), axis=0)  # sines
            if not s.all():
                return None
            inv_uv = np.linalg.solve(r, uv)  # R_j^-1 (U, V)
        except np.linalg.LinAlgError:
            return None
        # L^-T E = left E right and L^-1 E = left* E right*
        self.left, self.right = inv_uv[0].conj().T.copy(), inv_uv[1]
        self.left_h, self.right_h = inv_uv[0], inv_uv[1].conj().T.copy()
        s2 = s * s
        c, ss = np.outer(sig, sig), np.outer(s, s)
        t = np.sqrt(s2[:, None] + s2[None, :] - np.outer(s2, s2))  # 1 - c^2
        diag = np.diag_indices(q)
        # T^-T E = (L^-T E) o a + conj(L^-T E)^T o b, entrywise, and
        # T^-1 E = L^-1 (E o a + conj(E)^T o b^T)
        a = np.where(self.lower, 1.0 / t, 1.0)
        b = np.where(self.lower, -c / t, 0.0)
        re, im = 1.0 / np.sqrt(1.0 + sig * sig), 1.0 / s
        a[diag], b[diag] = (re + im) / 2.0, (re - im) / 2.0
        self.a, self.b = a / np.sqrt(2.0), b / np.sqrt(2.0)

        # The trace rows in L's frame: with Ut = R_1* U and Vt = R_2* V,
        # W_11 = Ut Ut*, W_22 = Vt Vt* and W_12 = Ut diag(sigma) Vt*, so
        # for H_1 = Ut* (1_n (x) h_1) Ut and H_2 = Vt* (1_n (x) h_2) Vt
        # their Schur columns are L^T of 2 (H_1 diag(sigma) + diag(sigma)
        # H_2).  F = T^-T of them and S are then entrywise in H_1 and H_2,
        # written so that no 1 / s or 1 / t enters and S is a Gram matrix:
        # the large parts cancel exactly (H_j Hermitian, c^2 + t^2 = 1).
        d = len(hs)
        frames = (r.conj().swapaxes(1, 2) @ uv).reshape(2, n, m * q)
        legs = frames.conj().swapaxes(1, 2) @ frames  # [(r, x), (s, y)]
        legs = legs.reshape(2, m, q, m, q).transpose(0, 1, 3, 2, 4)
        h = hs.transpose(1, 0, 2, 3).reshape(2, d, m * m) @ legs.reshape(
            2, m * m, q * q)
        del legs
        h1, h2 = h.reshape(2, d, q, q)
        f1 = np.where(self.lower, s2[:, None] / t, 1.0) * sig
        f2 = np.where(self.lower, s2 / t, 1.0) * sig[:, None]
        f1[diag] = f2[diag] = sig * re
        f = h1 * (np.sqrt(2.0) * f1)
        f += h2 * (np.sqrt(2.0) * f2)
        self.f = f.view(np.float64).reshape(d, -1)
        h1 -= c * h2  # S = sum_j G_j G_j^T, G_j formed in h's storage
        h1 *= ss / t
        h2 *= ss
        gram = h.view(np.float64).reshape(2, d, -1)
        schur = gram[0] @ gram[0].T + gram[1] @ gram[1].T
        for reg in sdp.cholesky_shifts(schur):
            try:
                chol = np.linalg.cholesky(schur + reg * np.eye(d))
            except np.linalg.LinAlgError:
                continue
            self.l_inv = np.linalg.inv(chol)
            return self
        return None

    def solve(self, rhs) -> np.ndarray:
        """M y = rhs, refined once against the rows' own product
        M y = A(W A*(y) W): the steps through T are not backward stable
        on their own once W is ill-conditioned."""
        y = self._solve(rhs)
        x, = self.comp.adjoint(y)
        return y + self._solve(rhs - self.comp.apply([self.w @ x @ self.w]))

    def _solve(self, rhs) -> np.ndarray:
        q, pp = self.q, 2 * self.q * self.q
        z = self.left @ rhs[:pp].view(np.complex128).reshape(q, q) @ self.right
        z = (z * self.a + z.T.conj() * self.b).view(np.float64).ravel()
        y_t = self.l_inv.T @ (self.l_inv @ (rhs[pp:] - self.f @ z))
        e = (z - self.f.T @ y_t).view(np.complex128).reshape(q, q)
        e = e * self.a + (e.conj() * self.b).T
        y_p = self.left_h @ e @ self.right_h
        return np.concatenate([y_p.view(np.float64).ravel(), y_t])


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


def cb_upper_sdp(psi: maps.LinearMapRep):
    """Solve the majorizing-pair program; returns (value, pair, witness).

    The program is solved for psi / ||Choi(psi)||, as the norm is
    homogeneous, to the relative duality gap ``sdp.GAP_TOL``.  The value is
    the certified pair's ``bound()`` on psi's scale; the witness is the
    dual contraction at level dim_out (see ``_dual_witness``).
    """
    scale = matcore.operator_norm(psi.choi) or 1.0
    unit = maps.LinearMapRep(psi.dim_in, psi.dim_out, psi.choi / scale)
    sol = sdp.solve(_upper_problem(unit), lambda comp: _UpperSystem(
        comp, psi.dim_in, psi.dim_out))
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


def amplification_norm(psi: maps.LinearMapRep, k: int, seed: int = 0):
    """Lower bound ||Id_k (x) psi|| with its witness contraction.

    Levels 1..k are swept in order.  Each level starts from the identity,
    a corner swap, ``SEARCH_RESTARTS`` seeded random contractions and the
    best contraction of the level before, zero-padded, which makes the
    reported value monotone nondecreasing in k; each start runs at most
    ``SEARCH_STEPS`` alternating steps.
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
        for r in range(SEARCH_RESTARTS):
            rng = sampling.rng_from(0xCB, seed, level, r)
            starts.append(sampling.random_contraction(rng, d))

        level_value, level_x = -np.inf, None
        for x0 in starts:
            value, x = _search_once(psi, level, x0, SEARCH_STEPS)
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


def cb_norm(psi: maps.LinearMapRep, level: int | None = None,
            seed: int = 0) -> CbNormResult:
    """Sandwich the cb norm between explicit lower and certified upper bounds.

    By default (``level`` None) this is ``closed_form(psi)`` if it closes,
    else the SDP bound of ``cb_upper_sdp`` with its dual's lower bound at
    level dim_out, and ``seed`` is unused.  An explicit ``level`` k takes
    the lower bound from the seeded search of ``amplification_norm``
    instead.
    """
    if level is None:
        res = closed_form(psi)
        if res.upper - res.lower <= CLOSED_WIDTH * max(res.upper, 1.0):
            return res
    else:  # search first: a bad level fails before the solve
        lower, witness = amplification_norm(psi, level, seed=seed)
    upper, pair, dual_witness = cb_upper_sdp(psi)
    if level is None:
        level, witness = psi.dim_out, dual_witness
        lower = matcore.operator_norm(
            maps.apply_to_second_leg(psi, witness, level))
    return _sandwich(lower, upper, pair, witness, level)
