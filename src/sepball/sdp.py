"""Dense primal-dual interior-point solver for Hermitian semidefinite programs.

Standard form over block-diagonal Hermitian cones:

    minimize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..p)
                X >= 0 blockwise

with ``<A, B> = Tr(A B)`` real for Hermitian arguments.  Complex Hermitian
blocks are handled natively: the Nesterov-Todd scaling, the Schur
complement and all eigencomputations run in complex arithmetic, never
through a doubled real embedding.

Constraint rows are stored once, as one CSR matrix per block.  A solve
first drops dependent rows, named in the solution's message: rows that
own an entry are kept, and a pivoted QR decides the rest
(``_independent_rows``).  The kept rows come in two kinds, sorted once
per solve.  An entrywise row sits in one block as r (E_ab + E_ba) or
s (i E_ab - i E_ba) (a < b, r and s real) or as v E_aa (v real): the
real or the imaginary slot of the cell (a, b).
Between two cells of one block the four Schur entries Tr(A_i W A_j W)
of their slots are real and imaginary parts of P +- Q, where P and Q are
products of two entries of W (the structured Schur formulas of
Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997), so that square of
the Schur matrix costs O(1) per entry and needs no stacks; it is zero
across blocks.  Every other row is dense: it is expanded to its (d, d)
matrices, pays O(d^3) per block for W A_j W, and meets the other dense
rows in one sparse product.  The Schur matrix and the kernel's workspace
are allocated once per solve and refilled in place in every iteration;
the Cholesky factorization overwrites the Schur matrix, so a solve keeps
one p x p array.  A problem without entrywise rows runs exactly the
dense arithmetic.

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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from . import matcore
from .errors import ConvergenceError, DimensionError

# Fixed algorithm constants (read-only).
MAX_ITER = 200
FEAS_TOL = 1e-9  # relative primal and dual residuals of an optimal iterate
GAP_TOL = 1e-9  # relative duality gap of an optimal iterate
STEP_FRACTION = 0.98
DIVERGENCE_SCALE = 1e8
LOOSE_MERIT = 1e-7  # accept early-terminated iterates up to this KKT merit
# Cell pairs per chunk of ``_cell_schur``: its workspace is three complex
# arrays of this many entries (more only where a block has more cells),
# allocated once per solve and small enough to stay in cache.
CHUNK_ENTRIES = 1 << 13


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
    iterations: int = 0  # interior-point iterations run
    best_iteration: int = 0  # the iteration whose iterate is returned, or 0
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
    """Constraint data in the solver's row order, and the Schur buffer.

    Dependent rows are dropped (``_independent_rows``) and the rest sorted
    once (see ``_entrywise_cells`` and ``_Cells``): per block the slots of
    its cells, then the dense rows in problem order; ``keep[i]`` is the
    problem row of row i.  Only the dense rows get a (p_dense, d, d)
    stack.  The p x p Schur buffer, which also takes its Cholesky factor,
    and the kernel's workspace are allocated here, once per solve, and
    refilled in every iteration.
    """

    def __init__(self, problem: SdpProblem):
        self.blocks = problem.blocks
        self.C = [c.copy() for c in problem.objective]
        p = problem.num_constraints
        b, rows = problem.rhs, problem.rows

        keep, self.note, self.inconsistent = np.arange(p), "", None
        if p > 1:
            keep, dropped, bad = _independent_rows(rows, b)
            if dropped:
                self.note = (f"dropped {len(dropped)} linearly dependent "
                             f"constraint rows: {dropped}")
                rows = [r[keep] for r in rows]
            if bad is not None:
                self.inconsistent = _joined(self.note, (
                    f"constraint {bad} is a linear combination of the others "
                    "but its right-hand side disagrees"))

        self.cells = {}  # block: its _Cells
        self.p_cells = 0
        for j, found in enumerate(_entrywise_cells(rows, self.blocks)):
            if len(found[0]):
                self.cells[j] = _Cells(self.p_cells, self.blocks[j], *found)
                self.p_cells += len(found[0])
        order = np.concatenate([np.zeros(0, dtype=np.intp)] + [
            c.rows for c in self.cells.values()])
        dense = np.ones(len(keep), dtype=bool)
        dense[order] = False
        order = np.concatenate([order, np.flatnonzero(dense)])
        self.keep = keep[order]
        self.b = b[self.keep]
        self.p = len(self.keep)
        self.csr = [r[order] for r in rows]
        self.csr_conj = [a.conj().tocsr() for a in self.csr]
        self.csr_t = [a.T.tocsr() for a in self.csr]
        self.dense_conj = [a[self.p_cells:] for a in self.csr_conj]
        self.stacks = [r[self.p_cells:].toarray().reshape(-1, d, d)
                       for r, d in zip(self.csr, self.blocks)]
        # r or s of the cell rows, 1 for the dense rows
        self.scale = np.concatenate([c.scale for c in self.cells.values()]
                                    + [np.ones(self.p - self.p_cells)])
        self.norm_b = float(np.linalg.norm(self.b))
        self.norm_c = float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in self.C)))

        self.m = np.zeros((self.p, self.p))
        chunk = max((c.step * c.n for c in self.cells.values()), default=0)
        self.work = [np.empty(chunk, dtype=np.complex128) for _ in range(3)]

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
        """M_ij = sum_blocks Tr(A_i W A_j W) / (scale_i scale_j) for the NT
        scaling W, written into the Schur buffer, which is returned.

        The division makes every cell slot a unit one, so the kernels
        need no coefficients; ``_solve_factored`` scales back.  Each
        block's square of cell rows comes from entries of W
        (``_cell_schur``), and its cell rows meet the dense rows j in
        entries of W A_j W (``_dense_cross``); cell rows of two blocks
        meet in zeros, which are never written.  They stay zero after a
        factorization in place: cell rows come before the dense rows, so
        the Cholesky factor is exactly zero there too.  Only the square of
        dense rows is averaged with its transpose.
        """
        m, pc = self.m, self.p_cells
        if pc < self.p:
            square = 0.0
            for j, (a_conj, stack, w) in enumerate(
                    zip(self.dense_conj, self.stacks, ws)):
                waw = np.matmul(np.matmul(w, stack), w).reshape(len(stack), -1)
                square = square + a_conj @ waw.T
                if j in self.cells:
                    _dense_cross(m, waw, self.cells[j], pc)
            square = square.real
            m[pc:, pc:] = (square + square.T) / 2.0
        for j, cells in self.cells.items():
            _cell_schur(m, ws[j], cells, self.work)
        return m


def _entrywise_cells(csr, blocks):
    """Per block, the rows that fill one slot of one cell there.

    A row is entrywise in block j when block j holds all its nonzeros and
    they read r (E_ab + E_ba) or s (i E_ab - i E_ba) with a < b and r, s
    real and nonzero, the real and the imaginary slot of cell (a, b), or
    v E_aa with v real and nonzero, the real slot of cell (a, a) with
    r = v / 2.  Every other row is dense, such as v E_ab + conj(v) E_ba
    with v neither real nor imaginary, or two diagonal units (such as the
    identity of size 2).  Rows for one slot are proportional, so the
    dependent-row check leaves one of them.  Returns per block
    (rows, cell, slot, coef): the rows in increasing order, their cells
    a d + b, their slots (0 real, 1 imaginary) and their r or s.
    """
    nnz = np.array([np.diff(a.indptr) for a in csr])
    alone = np.count_nonzero(nnz, axis=0) == 1
    found = []
    for a, d, n in zip(csr, blocks, nnz):
        one = np.flatnonzero(alone & (n == 1))
        at = a.indptr[one]
        r, c = np.divmod(a.indices[at], d)
        v = a.data[at]
        ok = (r == c) & (v.imag == 0) & (v.real != 0)
        one, cell1, coef1 = one[ok], a.indices[at][ok], v.real[ok] / 2.0

        two = np.flatnonzero(alone & (n == 2))
        at = a.indptr[two]
        i0, i1 = a.indices[at], a.indices[at + 1]
        r0, c0 = np.divmod(i0, d)
        r1, c1 = np.divmod(i1, d)
        v0, v1 = a.data[at], a.data[at + 1]
        upper = r0 < c0
        v = np.where(upper, v0, v1)  # the entry (a, b) with a < b
        real = (v.imag == 0) & (v.real != 0)
        imag = (v.real == 0) & (v.imag != 0)
        ok = ((r0 == c1) & (c0 == r1) & (r0 != c0) & (v1 == v0.conj())
              & (real | imag))
        two, cell2 = two[ok], np.where(upper, i0, i1)[ok]
        slot2 = imag[ok].astype(np.intp)
        coef2 = np.where(real, v.real, v.imag)[ok]

        rows = np.concatenate([one, two])
        cell = np.concatenate([cell1, cell2])
        slot = np.concatenate([np.zeros(len(one), dtype=np.intp), slot2])
        coef = np.concatenate([coef1, coef2])
        order = np.argsort(rows)
        found.append((rows[order], cell[order], slot[order], coef[order]))
    return found


class _Cells:
    """The entrywise rows of one block, grouped into cells (a, b), a <= b.

    Cells with only a real slot come first, then cells with both slots,
    then cells with only an imaginary slot, each group in entry order;
    so cells [0, n_re) have a real slot and cells [n_re_only, n) an
    imaginary one.  The block's rows in the solver's order start at
    ``start``: the real slots in cell order, then the imaginary ones;
    ``rows`` gives their problem rows and ``scale`` their r or s.
    ``cols`` holds 2 W[:, a], 2 W[:, b], conj(W[:, a]) and conj(W[:, b]),
    and a chunk of ``step`` cells is formed at a time.
    """

    def __init__(self, start, d, rows, cell, slot, coef):
        cells, inv = np.unique(cell, return_inverse=True)
        has = np.zeros((len(cells), 2), dtype=bool)
        has[inv, slot] = True
        group = np.where(has[:, 0], np.where(has[:, 1], 1, 0), 2)
        order = np.lexsort((cells, group))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.start, self.n = start, len(cells)
        self.a, self.b = np.divmod(cells[order], d)
        self.ab, self.ba = cells[order], self.b * d + self.a  # flat indices
        self.n_re_only = int(np.count_nonzero(group == 0))
        self.n_re = int(np.count_nonzero(has[:, 0]))
        at = np.zeros((self.n, 2), dtype=np.intp)
        at[rank[inv], slot] = rows
        c = np.zeros((self.n, 2))
        c[rank[inv], slot] = coef
        self.rows = np.concatenate([at[:self.n_re, 0], at[self.n_re_only:, 1]])
        self.scale = np.concatenate([c[:self.n_re, 0], c[self.n_re_only:, 1]])
        self.step = min(self.n, max(1, CHUNK_ENTRIES // self.n))
        self.cols = np.empty((4, d, self.n), dtype=np.complex128)


def _cell_schur(out, w, c, work) -> None:
    """Write the square of the Schur matrix between c's rows from W, for
    the rows scaled to unit slots (see ``_Compiled.schur``).

    For cells (a, b) and (a', b') let P = W[b, a'] W[b', a] and
    Q = W[b, b'] conj(W[a, a']).  The real slot E_ab + E_ba and the
    imaginary slot i E_ab - i E_ba meet in
        real, real:  2 Re(P + Q)
        real, imag: -2 Im(P - Q)
        imag, imag: -2 Re(P - Q)
    and (imag, real) is the transpose of (real, imag).  P is symmetric
    and Q Hermitian, and their computed real parts are so bitwise, so the
    square comes out bitwise symmetric.  2P and 2Q are formed a chunk of
    cells at a time in ``work``, from row gathers of ``c.cols``.
    """
    n, n_ro, n_re = c.n, c.n_re_only, c.n_re
    wa2, wb2, wa_conj, wb_conj = c.cols
    np.take(w, c.a, axis=1, out=wa_conj, mode="clip")
    np.take(w, c.b, axis=1, out=wb_conj, mode="clip")
    np.multiply(wa_conj, 2.0, out=wa2)
    np.multiply(wb_conj, 2.0, out=wb2)
    np.conjugate(wa_conj, out=wa_conj)
    np.conjugate(wb_conj, out=wb_conj)
    re = slice(c.start, c.start + n_re)
    im = slice(re.stop, re.stop + n - n_ro)
    for lo in range(0, n, c.step):
        hi = min(n, lo + c.step)
        pp, qq, t = (x[:(hi - lo) * n].reshape(hi - lo, n) for x in work)
        np.take(wa2, c.b[lo:hi], axis=0, out=pp, mode="clip")
        np.take(wb_conj, c.a[lo:hi], axis=0, out=t, mode="clip")
        pp *= t
        np.take(wb2, c.b[lo:hi], axis=0, out=qq, mode="clip")
        np.take(wa_conj, c.a[lo:hi], axis=0, out=t, mode="clip")
        qq *= t
        if lo < n_re:
            k = min(hi, n_re) - lo
            rows = slice(re.start + lo, re.start + lo + k)
            np.add(pp.real[:k, :n_re], qq.real[:k, :n_re], out=out[rows, re])
            np.subtract(qq.imag[:k, n_ro:], pp.imag[:k, n_ro:],
                        out=out[rows, im])
        if hi > n_ro:
            i = max(lo, n_ro)
            rows = slice(im.start + i - n_ro, im.start + hi - n_ro)
            np.subtract(qq.real[i - lo:, n_ro:], pp.real[i - lo:, n_ro:],
                        out=out[rows, im])
    out[im, re] = out[re, im].T


def _dense_cross(out, waw, c, pc) -> None:
    """Write the Schur entries Tr(A_i X_k) between c's unit slots i and
    the dense rows k from X_k = W A_k W (the rows of ``waw``,
    flattened): Re(X_ab + X_ba) for a real slot, Im(X_ab - X_ba) for an
    imaginary one.
    """
    x_ab, x_ba = waw[:, c.ab], waw[:, c.ba]
    re = slice(c.start, c.start + c.n_re)
    im = slice(re.stop, re.stop + c.n - c.n_re_only)
    out[re, pc:] = (x_ab[:, :c.n_re] + x_ba[:, :c.n_re]).real.T
    out[im, pc:] = (x_ab[:, c.n_re_only:] - x_ba[:, c.n_re_only:]).imag.T
    out[pc:, re] = out[re, pc:].T
    out[pc:, im] = out[im, pc:].T


def _independent_rows(rows, b):
    """(keep, dropped, inconsistent): a maximal independent subset of the
    rows (real and imaginary parts, scaled to unit norm with their rhs so
    that one huge row does not make the others look dependent), the
    others, and the first dropped row whose rhs disagrees, or None.

    A row that owns a column (no other row left touches it) with an entry
    above the rank threshold is peeled and kept, until none is (Andersen
    and Andersen, Math. Prog. 71, 1995): in a linear dependency each row
    peeled has coefficient 0, given those of the rows peeled before it.
    A pivoted QR of the rows left decides them.
    """
    p = len(b)
    v = scipy.sparse.hstack([x for a in rows for x in (a.real, a.imag)],
                            format="csr")
    v.eliminate_zeros()
    row_of = np.repeat(np.arange(p), np.diff(v.indptr))
    # Each row's sum of squares is taken on the row scaled by a power of
    # two near its largest entry, so it cannot overflow (or underflow)
    # and a row in range keeps every bit of its norm.
    top = np.zeros(p)
    np.maximum.at(top, row_of, np.abs(v.data))
    unit = np.ldexp(1.0, np.frexp(top)[1])
    norms = unit * np.sqrt(np.bincount(row_of, (v.data / unit[row_of]) ** 2,
                                       minlength=p))
    norms[norms == 0.0] = 1.0
    v.data /= norms[row_of]
    b = b / norms
    tol = 1e-12 * max(v.shape)  # the QR's rank threshold for diag[0] = 1
    cols, big = v.indices, np.abs(v.data) > tol
    left = np.ones(p, dtype=bool)
    while True:
        count = np.bincount(cols[left[row_of]], minlength=v.shape[1])
        own = big & left[row_of] & (count[cols] == 1)
        if not own.any():
            break
        left[row_of[own]] = False
    rest = np.flatnonzero(left)
    if len(rest) == 0:
        return np.arange(p), [], None
    sub = v[rest]
    sub = sub[:, np.unique(sub.indices)].toarray()  # the columns they touch
    b = b[rest]
    rmat, piv = scipy.linalg.qr(sub.T, mode="r", pivoting=True)
    diag = np.abs(np.diagonal(rmat))
    rank = np.count_nonzero(diag > tol * diag[0]) if diag.size else 0
    kept = np.sort(piv[:rank])
    dropped = np.setdiff1d(np.arange(len(rest)), kept)
    inconsistent = None
    for i in dropped:
        coef, *_ = np.linalg.lstsq(sub[kept].T, sub[i], rcond=None)
        if abs(float(coef @ b[kept]) - b[i]) > 1e-9 * max(1.0, abs(b[i])):
            inconsistent = int(rest[i])
            break
    dropped = rest[dropped]
    return np.setdiff1d(np.arange(p), dropped), dropped.tolist(), inconsistent


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


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration; see the module docstring."""
    comp = _Compiled(problem)
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
                and rel_gap <= GAP_TOL and cgap <= GAP_TOL):
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
                p_full = problem.num_constraints
                return SdpSolution(
                    status="infeasible", dual_y=_expand_dual(comp, y, p_full),
                    iterations=it,
                    message=_joined(comp.note, "dual improving ray found; "
                                    "primal is infeasible"),
                    ray=_expand_dual(comp, cert, p_full),
                )
            cert = _unboundedness_certificate(comp, xs, pobj)
            if cert is not None:
                return SdpSolution(
                    status="unbounded", iterations=it,
                    message=_joined(comp.note, "primal improving ray found; "
                                    "objective is unbounded"),
                    ray=cert,
                )

        scal = [_nt_scaling(x, z) for x, z in zip(xs, zs)]
        ws = [s[0] for s in scal]
        lams = [s[3] for s in scal]
        m = comp.schur(ws)
        # min and max carry any nan or inf, with no p x p temporary
        _require_finite(it, "the Schur complement",
                        (m.min(initial=0.0), m.max(initial=0.0)))
        factor = _factor_with_retry(comp, ws)
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
        message = _joined(
            message, f"accepted the best iterate at merit {best_merit:.3e}")
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
        best_iteration=best_it,
        message=_joined(comp.note, message),
    )


def _joined(*notes) -> str:
    return "; ".join(n for n in notes if n)


def _require_finite(it, what, values):
    """Return ``values``, or raise once data too large for double
    precision have overflowed into them."""
    if not np.isfinite(values).all():
        raise ConvergenceError(
            f"iteration {it}: {what} left the float range; the problem "
            "data are too large for double precision")
    return values


def _expand_dual(comp, y, p_full):
    """y in problem row order, with zeros for dropped dependent rows."""
    full = np.zeros(p_full)
    full[comp.keep] = y
    return full


def _factor_with_retry(comp, ws):
    """The lower Cholesky factor of M + reg 1, M = ``comp.schur(ws)``
    (already in the Schur buffer), for the first reg in a rising ladder
    that works; None when none does.

    The factor overwrites the buffer's Fortran-ordered view, which holds
    M as M is symmetric; it is returned.  A failed attempt leaves the
    buffer partly factored, so it is refilled from W before the next one;
    ``schur`` is deterministic, so M is bitwise the same.
    """
    m = comp.m
    p = m.shape[0]
    base = max(1.0, float(np.trace(m)) / max(1, p))
    regs = [0.0] + [base * 10.0 ** k for k in range(-14, -5, 3)]
    diagonal = m.reshape(-1)[::p + 1]
    for reg in regs:
        if reg:  # a retry
            comp.schur(ws)
            diagonal += reg
        try:
            return scipy.linalg.cho_factor(m.T, lower=True, overwrite_a=True,
                                           check_finite=False)[0]
        except scipy.linalg.LinAlgError:
            continue
    return None


def _solve_factored(factor, rhs, comp):
    if comp.p == 0:
        return np.zeros(0)
    # solve() checks the result: a non-finite rhs makes it non-finite;
    # the factor is that of the Schur matrix of unit slots (``schur``)
    x, _ = scipy.linalg.lapack.dpotrs(factor, rhs / comp.scale, lower=1)
    return x / comp.scale


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
