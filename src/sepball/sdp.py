"""Dense primal-dual interior-point solver for Hermitian semidefinite programs.

Standard form over block-diagonal Hermitian cones:

    minimize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..p)
                X >= 0 blockwise

with ``<A, B> = Tr(A B)`` real for Hermitian arguments.  Complex Hermitian
blocks are handled natively: the Nesterov-Todd scaling, the Schur
complement and all eigencomputations run in complex arithmetic, never
through a doubled real embedding.

Constraint rows are stored once, as one CSR matrix per block, and come
in two kinds, sorted once per solve.  An entrywise row sits in one block
as v E_ab + conj(v) E_ba (a != b) or v E_aa (v real).  Between two
entrywise rows of one block the Schur entry Tr(A_i W A_j W) is a product
of four entries of W (the structured Schur formulas of Fujisawa, Kojima
and Nakata, Math. Prog. 79, 1997), so that square of the Schur matrix
costs O(1) per entry and needs no stacks; it is zero across blocks.
Every other row is dense: it is expanded to its (d, d) matrices, pays
O(d^3) per block for W A_j W, and fills its row and column of the Schur
matrix with one sparse product.  A problem without entrywise rows runs
exactly the dense arithmetic.

The search direction is the Nesterov-Todd one with a Mehrotra
predictor-corrector, formed in the scaled frame of Todd, Toh and
Tutuncu (SIAM J. Optim. 8, 1998): per block, two eigendecompositions give
the square roots Sx, Sz of X, Z and one SVD Sz Sx = U diag(lam) V* gives
G = Sx V diag(lam)^-1/2 with W = G G* (so W Z W = X) and G^-1 X G^-* =
G* Z G = diag(lam).  There the step length to the cone boundary is one
eigvalsh of an elementwise rescaled direction and the corrector's
Lyapunov equation is solved entrywise.  The step fraction to the
boundary and the identity infeasible start are fixed constants, so
repeated solves of the same problem are bitwise identical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from . import matcore
from .errors import ConvergenceError, DimensionError

# Fixed algorithm constants (read-only; not part of SdpOptions).
MAX_ITER = 200
FEAS_TOL = 1e-9  # relative primal and dual residuals of an optimal iterate
STEP_FRACTION = 0.98
DIVERGENCE_SCALE = 1e8
LOOSE_MERIT = 1e-7  # accept early-terminated iterates up to this KKT merit
# Entries per chunk of ``_unit_schur``'s elementwise pass over the Schur
# matrix: whole-array temporaries of a few MB ran 2-3x slower.
CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SdpOptions:
    """Duality-gap tolerance and the dependent-row check.

    ``check_independence`` drops linearly dependent rows before the
    solve (``_independent_rows``).  ``sdp-solve`` keeps it on, because
    rows written by a user may be dependent; ``cbnorm`` turns it off,
    because its rows are independent by construction.
    """

    gap_tol: float = 1e-9
    check_independence: bool = True


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form problem data; all coefficient matrices Hermitian.

    ``rows[j]`` is one CSR matrix of shape (p, d_j**2) whose row i holds
    block j of A_i, row-major, as its Hermitian part; ``rhs[i]`` is b_i.
    ``constraints`` builds the dense (b_i, matrices) tuples on demand.
    """

    blocks: tuple[int, ...]
    objective: tuple[np.ndarray, ...]
    rhs: np.ndarray = field(repr=False, compare=False)
    rows: tuple = field(repr=False, compare=False)

    def __init__(self, blocks, objective, constraints):
        """Checks each constraint's rhs, then each block's shape and
        symmetry, in constraint order."""
        blocks, obj = _checked_head(blocks, objective)
        if len(constraints) == 0:
            raise DimensionError("the problem needs at least one constraint")
        rhs = np.empty(len(constraints))
        flats = [[] for _ in blocks]
        for idx, (r, mats) in enumerate(constraints):
            rhs[idx] = float(r)
            if not np.isfinite(rhs[idx]):
                raise DimensionError(f"constraint {idx} has non-finite rhs")
            if len(mats) != len(blocks):
                raise DimensionError(
                    f"constraint {idx} needs one matrix per block"
                )
            for flat, a, d in zip(flats, mats, blocks):
                flat.append(matcore.check_hermitian(_sized(a, d)).ravel())
        self._store(blocks, obj, rhs, tuple(
            scipy.sparse.csr_matrix(np.array(f)) for f in flats))

    @classmethod
    def from_rows(cls, blocks, objective, rhs, rows) -> SdpProblem:
        """A problem from rows already in the stored form (no symmetry test)."""
        self = object.__new__(cls)
        self._store(*_checked_head(blocks, objective),
                    np.asarray(rhs, dtype=float), tuple(rows))
        return self

    def _store(self, blocks, obj, rhs, rows) -> None:
        if not all(np.isfinite(a).all()
                   for a in obj + (rhs,) + tuple(r.data for r in rows)):
            raise DimensionError("the Hermitian parts of the problem data "
                                 "overflow the float range")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "rows", rows)

    @property
    def constraints(self) -> tuple[tuple[float, tuple[np.ndarray, ...]], ...]:
        dense = [r.toarray().reshape(-1, d, d)
                 for r, d in zip(self.rows, self.blocks)]
        return tuple((float(b), tuple(s[i] for s in dense))
                     for i, b in enumerate(self.rhs))

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)


def _checked_head(blocks, objective):
    """(blocks, objective) validated, the objective as Hermitian parts."""
    blocks = tuple(int(d) for d in blocks)
    if len(blocks) == 0 or any(d < 1 for d in blocks):
        raise DimensionError(f"invalid block sizes {blocks}")
    if len(objective) != len(blocks):
        raise DimensionError("objective needs one matrix per block")
    return blocks, tuple(
        matcore.check_hermitian(_sized(c, d)) for c, d in zip(objective, blocks)
    )


def _sized(m, d: int) -> np.ndarray:
    a = matcore.as_matrix(m)
    if a.shape != (d, d):
        raise DimensionError(f"matrix of shape {a.shape} does not fit block {d}")
    return a


@dataclass(frozen=True)
class SdpSolution:
    status: str  # optimal | infeasible | unbounded | maxiter
    primal: tuple[np.ndarray, ...] = field(repr=False, default=())
    dual_y: np.ndarray = field(repr=False, default=None)
    dual_slack: tuple[np.ndarray, ...] = field(repr=False, default=())
    primal_obj: float = float("nan")
    dual_obj: float = float("nan")
    duality_gap: float = float("nan")
    rel_gap: float = float("nan")
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    iterations: int = 0
    message: str = ""
    ray: object = field(repr=False, default=None)


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the d x d Hermitian matrices."""
    basis = []
    for k in range(d):
        basis.append(matcore.matrix_unit(d, k, k))
    s = 1.0 / np.sqrt(2.0)
    for k in range(d):
        for l in range(k + 1, d):
            e_kl = matcore.matrix_unit(d, k, l)
            e_lk = matcore.matrix_unit(d, l, k)
            basis.append((e_kl + e_lk) * s)
            basis.append(1j * (e_kl - e_lk) * s)
    return basis


class _Compiled:
    """Constraint data: the problem's CSR rows, entrywise units and one
    dense stack.

    Rows are sorted once into entrywise rows (see ``_entrywise_units``)
    and dense rows; only the dense rows get a (p_dense, d, d) stack.
    """

    def __init__(self, problem: SdpProblem, check_independence: bool):
        self.blocks = problem.blocks
        self.C = [c.copy() for c in problem.objective]
        self.inconsistent = None

        p = problem.num_constraints
        b, rows = problem.rhs, problem.rows

        keep = np.arange(p)
        if check_independence and p > 1:
            keep, dropped, inconsistent = _independent_rows(rows, b)
            if dropped:
                warnings.warn(
                    f"dropped {len(dropped)} linearly dependent constraint rows: "
                    f"{sorted(dropped)}",
                    stacklevel=3,
                )
                rows = [r[keep] for r in rows]
            if inconsistent is not None:
                self.inconsistent = (
                    f"constraint {inconsistent} is a linear combination of the "
                    "others but its right-hand side disagrees"
                )

        self.keep = keep
        self.b = b[keep]
        self.p = len(keep)
        self.csr = list(rows)
        self.csr_conj = [a.conj().tocsr() for a in self.csr]
        self.csr_t = [a.T.tocsr() for a in self.csr]
        self.units = []  # (block, square of M its rows span, a, b, v)
        entrywise = np.zeros(self.p, dtype=bool)
        for j, (rows, a, b, v) in enumerate(
                _entrywise_units(self.csr, self.blocks)):
            if len(rows) == 0:
                continue
            entrywise[rows] = True
            if rows[-1] - rows[0] + 1 == len(rows):
                square = (slice(rows[0], rows[-1] + 1),) * 2
            else:
                square = np.ix_(rows, rows)
            self.units.append((j, square, a, b, v))
        self.dense = np.flatnonzero(~entrywise)
        self.stacks = [r[self.dense].toarray().reshape(-1, d, d)
                       for r, d in zip(self.csr, self.blocks)]
        self.norm_b = float(np.linalg.norm(self.b))
        self.norm_c = float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in self.C)))

    def apply(self, xs) -> np.ndarray:
        """A(X): the vector of constraint values."""
        out = np.zeros(self.p)
        for a, x in zip(self.csr_conj, xs):
            out += np.real(a @ x.reshape(-1))
        return out

    def adjoint(self, y):
        """A*(y): one Hermitian matrix per block."""
        return [(a @ y).reshape(d, d) for a, d in zip(self.csr_t, self.blocks)]

    def schur(self, ws) -> np.ndarray:
        """M_ij = sum_blocks Tr(A_i W A_j W) for the NT scaling W.

        The columns of dense rows j come from W A_j W; the block of
        entrywise rows comes from entries of W (``_unit_schur``).
        """
        pd = len(self.dense)
        m = np.zeros((self.p, pd), dtype=np.complex128)
        for a_conj, stack, w in zip(self.csr_conj, self.stacks, ws):
            waw = np.matmul(np.matmul(w, stack), w)
            m += a_conj @ waw.reshape(pd, w.size).T
        m = m.real
        if pd < self.p:
            full = np.zeros((self.p, self.p))
            full[:, self.dense] = m
            full[self.dense] = m.T
            for j, square, a, b, v in self.units:
                full[square] = _unit_schur(ws[j], a, b, v)
            m = full
        return (m + m.T) / 2.0


def _entrywise_units(csr, blocks):
    """Per block, the rows that are one Hermitian matrix unit there.

    A row is entrywise in block j when block j holds all its nonzeros,
    either v E_ab + conj(v) E_ba with a != b or v E_aa with v real.  Two
    diagonal units (such as the identity of size 2) make a dense row.
    Returns per block (rows, a, b, v), with v halved for diagonal units,
    so that every row reads A = v E_ab + conj(v) E_ba.
    """
    nnz = np.array([np.diff(a.indptr) for a in csr])
    alone = np.count_nonzero(nnz, axis=0) == 1
    units = []
    for a, d, n in zip(csr, blocks, nnz):
        one = np.flatnonzero(alone & (n == 1))
        at = a.indptr[one]
        r, c = np.divmod(a.indices[at], d)
        v = a.data[at]
        ok = (r == c) & (v.imag == 0)
        one, r, v = one[ok], r[ok], v[ok] / 2.0

        two = np.flatnonzero(alone & (n == 2))
        at = a.indptr[two]
        r0, c0 = np.divmod(a.indices[at], d)
        r1, c1 = np.divmod(a.indices[at + 1], d)
        v0 = a.data[at]
        ok = (r0 == c1) & (c0 == r1) & (r0 != c0) & (a.data[at + 1] == v0.conj())
        rows = np.concatenate([one, two[ok]])
        order = np.argsort(rows)
        units.append((
            rows[order],
            np.concatenate([r, r0[ok]])[order],
            np.concatenate([r, c0[ok]])[order],
            np.concatenate([v, v0[ok]])[order],
        ))
    return units


def _unit_schur(w, a, b, v) -> np.ndarray:
    """Tr(A_i W A_j W) for A_i = v_i E_{a_i b_i} + conj(v_i) E_{b_i a_i}.

    For Hermitian W this is 2 Re(v_i v_j W[b_i,a_j] conj(W[a_i,b_j])
    + v_i conj(v_j) W[b_i,b_j] conj(W[a_i,a_j])): four gathers of W and
    elementwise products, formed a chunk of rows at a time so that the
    temporaries stay small.
    """
    n = len(a)
    wb = w[b] * v[:, None]
    wa = w[a].conj()
    vc = v.conj()
    out = np.empty((n, n))
    step = max(1, CHUNK_ENTRIES // n)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        t = wb[rows][:, a]
        t *= wa[rows][:, b]
        t *= v
        u = wb[rows][:, b]
        u *= wa[rows][:, a]
        u *= vc
        t += u
        np.multiply(t.real, 2.0, out=out[rows])
    return out


def _independent_rows(rows, b):
    """Select a maximal independent subset of constraint rows via pivoted QR.

    Each row and its right-hand side are first scaled to unit row norm,
    so that one huge row does not make the others look dependent.
    """
    p = len(b)
    dense = [r.toarray() for r in rows]
    v = np.hstack([x for a in dense for x in (a.real, a.imag)])  # (p, dof)
    norms = np.linalg.norm(v, axis=1)
    norms[norms == 0.0] = 1.0
    v = v / norms[:, None]
    b = b / norms
    r = scipy.linalg.qr(v.T, mode="r", pivoting=True)
    rmat, piv = r[0], r[1]
    diag = np.abs(np.diagonal(rmat))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > 1e-12 * diag[0] * max(v.shape)))
    keep = np.sort(piv[:rank])
    dropped = sorted(set(range(p)) - set(keep.tolist()))
    inconsistent = None
    if dropped:
        vk = v[keep]
        for i in dropped:
            coef, *_ = np.linalg.lstsq(vk.T, v[i], rcond=None)
            if abs(float(coef @ b[keep]) - b[i]) > 1e-9 * max(1.0, abs(b[i])):
                inconsistent = i
                break
    return keep, dropped, inconsistent


def _herm(m):
    return (m + m.conj().T) / 2.0


def _sqrt_psd(m):
    """Square root of a Hermitian m (the iterates are kept exactly
    Hermitian), eigenvalues clamped at 0."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def _nt_scaling(x, z):
    """Return (W, G, G_inv, lam): W Z W = X, W = G G*, and the scaled
    iterates G^-1 X G^-* = G* Z G = diag(lam).

    With Sz Sx = U diag(lam) V* for the square roots Sx, Sz of X, Z, G =
    Sx V diag(lam)^-1/2 and G^-1 = diag(lam)^-1/2 U* Sz; no square root
    is inverted.
    """
    sx, sz = _sqrt_psd(x), _sqrt_psd(z)
    u, lam, vh = np.linalg.svd(sz @ sx)
    lam = np.maximum(lam, 1e-300)
    r = lam ** -0.5
    g = (sx @ vh.conj().T) * r
    g_inv = r[:, None] * (u.conj().T @ sz)
    return _herm(g @ g.conj().T), g, g_inv, lam


def _step_to_boundary(lam, ds):
    """Largest alpha with diag(lam) + alpha*ds >= 0 (inf when ds points
    inward), for ds Hermitian in the scaled frame."""
    r = lam ** -0.5
    lam_min = float(np.linalg.eigvalsh(ds * np.outer(r, r))[0])
    if lam_min >= -1e-300:
        return np.inf
    return -1.0 / lam_min


def solve(problem: SdpProblem, options: SdpOptions | None = None) -> SdpSolution:
    """Run the interior-point iteration; see the module docstring."""
    opts = options or SdpOptions()
    comp = _Compiled(problem, opts.check_independence)
    if comp.inconsistent is not None:
        return SdpSolution(status="infeasible", message=comp.inconsistent)

    blocks = comp.blocks
    n_total = sum(blocks)
    xs = [np.eye(d, dtype=np.complex128) for d in blocks]
    zs = [np.eye(d, dtype=np.complex128) for d in blocks]
    y = np.zeros(comp.p)

    def inner(us, vs):
        return float(sum(np.real(np.vdot(u, v)) for u, v in zip(us, vs)))

    best = None
    best_merit = np.inf
    message = ""
    status = "maxiter"
    it = 0
    stall = 0

    for it in range(1, MAX_ITER + 1):
        rp = comp.b - comp.apply(xs)
        aty = comp.adjoint(y)
        rd = [c - z - a for c, z, a in zip(comp.C, zs, aty)]
        pobj = inner(comp.C, xs)
        dobj = float(comp.b @ y)
        gap = inner(xs, zs)
        mu = gap / n_total
        scale = 1.0 + abs(pobj) + abs(dobj)
        pres = float(np.linalg.norm(rp)) / (1.0 + comp.norm_b)
        dres = float(np.sqrt(sum(np.linalg.norm(r) ** 2 for r in rd))) / (
            1.0 + comp.norm_c
        )
        rel_gap = abs(pobj - dobj) / scale
        cgap = gap / scale
        _require_finite(it, "the residuals or the gap",
                        (pres, dres, rel_gap, cgap))
        merit = max(pres, dres, rel_gap, cgap)

        if merit < best_merit:
            best_merit = merit
            best = (
                tuple(x.copy() for x in xs), y.copy(),
                tuple(z.copy() for z in zs),
                pobj, dobj, gap, rel_gap, pres, dres, it,
            )
            stall = 0
        else:
            stall += 1

        if (pres <= FEAS_TOL and dres <= FEAS_TOL
                and rel_gap <= opts.gap_tol and cgap <= opts.gap_tol):
            status = "optimal"
            break
        if stall >= 8 and best_merit <= LOOSE_MERIT:
            status = "optimal"
            message = "accepted after progress stalled below the loose tolerance"
            break

        diverging = max(abs(pobj), abs(dobj)) > DIVERGENCE_SCALE * max(
            1.0, comp.norm_b, comp.norm_c
        )
        if diverging:
            cert = _infeasibility_certificate(comp, y)
            if cert is not None:
                return SdpSolution(
                    status="infeasible", dual_y=y.copy(), iterations=it,
                    message="dual improving ray found; primal is infeasible",
                    ray=cert,
                )
            cert = _unboundedness_certificate(comp, xs, pobj)
            if cert is not None:
                return SdpSolution(
                    status="unbounded", iterations=it,
                    message="primal improving ray found; objective is unbounded",
                    ray=cert,
                )

        scal = [_nt_scaling(x, z) for x, z in zip(xs, zs)]
        ws = [s[0] for s in scal]
        lams = [s[3] for s in scal]
        m = _require_finite(it, "the Schur complement", comp.schur(ws))
        factor = _factor_with_retry(m)
        if factor is None:
            message = ("Schur complement stayed indefinite after regularization "
                       "retries; returning the best iterate")
            break

        w_rd_w = [w @ r @ w for w, r in zip(ws, rd)]

        def direction(rc):
            """(dX, dy, dZ) solving dX + W dZ W = rc, their scaled forms
            G^-1 dX G^-* and G* dZ G, and the step lengths (ap, ad)."""
            dy = _require_finite(it, "the search direction", _solve_factored(
                factor, rp - comp.apply(rc) + comp.apply(w_rd_w), comp))
            dz = [r - a for r, a in zip(rd, comp.adjoint(dy))]
            dx = [_herm(c - w @ z_ @ w) for c, w, z_ in zip(rc, ws, dz)]
            dz = [_herm(d) for d in dz]
            dxs = [_herm(gi @ d @ gi.conj().T)
                   for (_, _, gi, _), d in zip(scal, dx)]
            dzs = [_herm(g.conj().T @ d @ g)
                   for (_, g, _, _), d in zip(scal, dz)]
            alphas = [min(map(_step_to_boundary, lams, ds)) for ds in (dxs, dzs)]
            ap, ad = (min(1.0, STEP_FRACTION * a) for a in alphas)
            return dx, dy, dz, dxs, dzs, ap, ad

        # Predictor (affine scaling) direction.
        dx, dy, dz, dxs, dzs, ap, ad = direction([-x for x in xs])
        gap_aff = inner(
            [x + ap * d for x, d in zip(xs, dx)],
            [z + ad * d for z, d in zip(zs, dz)],
        )
        sigma = min(1.0, max((max(gap_aff, 0.0) / gap) ** 3, 1e-12))

        # Corrector with the Mehrotra second-order term: in the scaled
        # frame the iterates are diag(lam), so the Lyapunov equation
        # (lam S + S lam)/2 = R is solved entrywise.
        rc = []
        for (_, g, _, lam), dx_s, dz_s in zip(scal, dxs, dzs):
            r_lam = -(dx_s @ dz_s + dz_s @ dx_s) / 2.0
            r_lam[np.diag_indices_from(r_lam)] += sigma * mu - lam * lam
            s = _herm(r_lam) / ((lam[:, None] + lam[None, :]) / 2.0)
            rc.append(g @ s @ g.conj().T)

        dx, dy, dz, _, _, ap, ad = direction(rc)
        if ap < 1e-10 and ad < 1e-10:
            message = "step lengths collapsed; returning the best iterate"
            break

        xs = [_herm(x + ap * d) for x, d in zip(xs, dx)]
        y = y + ad * dy
        zs = [_herm(z + ad * d) for z, d in zip(zs, dz)]

    if best is None:  # pragma: no cover - loop always records an iterate
        return SdpSolution(status="maxiter", message="no iterate recorded")

    xs_b, y_b, zs_b, pobj, dobj, gap, rel_gap, pres, dres, best_it = best
    if status != "optimal" and best_merit <= LOOSE_MERIT:
        # near-optimal iterates can kill the Schur factorization or the
        # step sizes before the strict tolerance test fires
        status = "optimal"
        extra = f"accepted the best iterate at merit {best_merit:.3e}"
        message = f"{message}; {extra}" if message else extra
    if status != "optimal" and not message:
        message = f"iteration limit reached at merit {best_merit:.3e}"
    return SdpSolution(
        status=status,
        primal=xs_b,
        dual_y=_expand_dual(comp, y_b, problem.num_constraints),
        dual_slack=zs_b,
        primal_obj=pobj,
        dual_obj=dobj,
        duality_gap=gap,
        rel_gap=rel_gap,
        primal_residual=pres,
        dual_residual=dres,
        iterations=it,
        message=message,
    )


def _require_finite(it, what, values):
    """Return ``values``, or raise once data too large for double
    precision have overflowed into them."""
    if not np.isfinite(values).all():
        raise ConvergenceError(
            f"iteration {it}: {what} left the float range; the problem "
            "data are too large for double precision")
    return values


def _expand_dual(comp, y, p_full):
    """Reinsert zeros for dropped dependent rows."""
    if len(y) == p_full:
        return y
    full = np.zeros(p_full)
    full[comp.keep] = y
    return full


def _factor_with_retry(m):
    base = max(1.0, float(np.trace(m)) / max(1, m.shape[0]))
    regs = [0.0] + [base * 10.0 ** k for k in range(-14, -5, 3)]
    for reg in regs:
        try:
            return scipy.linalg.cho_factor(
                m + reg * np.eye(m.shape[0]), lower=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            continue
    return None


def _solve_factored(factor, rhs, comp):
    if comp.p == 0:
        return np.zeros(0)
    # solve() checks the result: a non-finite rhs makes it non-finite
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def _infeasibility_certificate(comp, y):
    s = float(comp.b @ y)
    if s <= 0:
        return None
    y_ray = y / s
    margin = 0.0
    for a in comp.adjoint(y_ray):
        margin = min(margin, -float(np.linalg.eigvalsh(_herm(a))[-1]))
    if margin >= -1e-7:
        return y_ray
    return None


def _unboundedness_certificate(comp, xs, pobj):
    """The ray X / |pobj| when A nearly annihilates it, relative to the
    ray's own size and the largest constraint row, else None."""
    if pobj >= 0:
        return None
    scale = -pobj
    x_ray = [x / scale for x in xs]
    row_sq = sum(np.asarray(abs(a).power(2).sum(axis=1)).ravel()
                 for a in comp.csr)
    row_norm = float(np.sqrt(np.max(row_sq, initial=0.0)))
    x_norm = float(np.sqrt(sum(np.linalg.norm(x) ** 2 for x in x_ray)))
    if float(np.linalg.norm(comp.apply(x_ray))) <= 1e-7 * x_norm * row_norm:
        return tuple(x_ray)
    return None
