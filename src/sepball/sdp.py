"""Dense primal-dual interior-point solver for Hermitian semidefinite programs.

Standard form over block-diagonal Hermitian cones:

    minimize    <C, X>
    subject to  <A_i, X> = b_i   (i = 1..p)
                X >= 0 blockwise

with ``<A, B> = Tr(A B)`` real for Hermitian arguments.  Complex Hermitian
blocks are handled natively: the Nesterov-Todd scaling, the Schur
complement and all eigencomputations run in complex arithmetic, never
through a doubled real embedding.

Constraint rows are stored once, as one ``Rows`` per block: the nonzero
entries of the block's rows in three numpy arrays.  A solve first drops
dependent rows, named in the solution's message: rows that own an entry
are kept, and a pivoted QR decides the rest
(``_independent_rows``).  Each Newton step solves M dy = r for the Schur
matrix M_ij = sum_blocks Tr(A_i W A_j W) of the NT scaling W, through a
Newton-system object that is factored once per iteration and solved
twice.  By default that is ``_DenseSystem``: M = B B^T for the scaled
rows B_i = G* A_i G (W = G G*), factored by a dense Cholesky in a buffer
allocated once per solve.  A caller that knows its rows' structure passes
its own system.  ``cbnorm`` does so for its program: in the NT factor's
frame (Todd, Toh and Tutuncu, below), rotated into the principal angles
between the ranges of G's two halves (Bjorck and Golub, Math. Comp. 27,
1973), the Schur block of its pair rows splits into 2 x 2 blocks, and
only its few trace rows get a dense Cholesky, so M is never formed.

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

scipy is imported only where its routines run, never at module level:
the pivoted QR of the rows that the peel leaves to it, and the dense
Cholesky of ``_DenseSystem``.  ``cbnorm``'s program peels every row and
has its own Newton system, so it never loads scipy; only ``sdp-solve``,
or a problem whose rows do not all peel, does.  Importing scipy would
be about half of a command's start-up time and a third of its memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import ConvergenceError, DimensionError

# Fixed algorithm constants (read-only).
MAX_ITER = 200
FEAS_TOL = 1e-9  # relative primal and dual residuals of an optimal iterate
GAP_TOL = 1e-9  # relative duality gap of an optimal iterate
STEP_FRACTION = 0.98
DIVERGENCE_SCALE = 1e8
LOOSE_MERIT = 1e-7  # accept early-terminated iterates up to this KKT merit


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form problem data; all coefficient matrices Hermitian.

    ``rows[j]`` is the ``Rows`` of shape (p, d_j**2) whose row i holds
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
        self._store(blocks, obj, rhs,
                    tuple(Rows.from_dense(np.array(f)) for f in flats))

    @classmethod
    def from_rows(cls, blocks, objective, rhs, rows) -> SdpProblem:
        """A problem from rows already in the stored form (no symmetry test)."""
        self = object.__new__(cls)
        self._store(*_checked_head(blocks, objective),
                    np.asarray(rhs, dtype=float), tuple(rows))
        return self

    def _store(self, blocks, obj, rhs, rows) -> None:
        if not all(np.isfinite(a).all()
                   for a in obj + (rhs,) + tuple(r.value for r in rows)):
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


class Rows:
    """The constraint rows of one block of size d: a (p, d**2) complex
    matrix held as its nonzero entries, ``value[k]`` at (``row[k]``,
    ``col[k]``), sorted by row and then by column, one entry per position.
    Row i is the block's A_i, row-major.
    """

    def __init__(self, row, col, value, shape):
        """Entries already in that form; see ``from_entries``."""
        self.row, self.col, self.value = row, col, value
        self.shape = shape

    @classmethod
    def from_entries(cls, row, col, value, shape) -> Rows:
        """Entries in any order: those at one position are summed, and
        zero sums dropped."""
        order = np.lexsort((col, row))
        row, col, value = row[order], col[order], value[order]
        first = np.ones(len(row), dtype=bool)
        first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        at = np.flatnonzero(first)
        row, col, value = row[at], col[at], np.add.reduceat(value, at)
        nonzero = value != 0
        return cls(row[nonzero], col[nonzero], value[nonzero], shape)

    @classmethod
    def from_dense(cls, a) -> Rows:
        """The rows of a dense complex (p, d**2) matrix."""
        row, col = np.nonzero(a)
        return cls(row, col, a[row, col], a.shape)

    def apply(self, x) -> np.ndarray:
        """Re Tr(A_i X) = Re sum conj(A_i) o X per row i, for Hermitian
        A_i and a d x d (or flat) X."""
        x = np.reshape(x, -1)[self.col]
        return np.bincount(self.row, self.value.real * x.real
                           + self.value.imag * x.imag, minlength=self.shape[0])

    def adjoint(self, y) -> np.ndarray:
        """sum_i y_i A_i, row-major, for real y."""
        w = y[self.row]
        out = np.empty(self.shape[1], dtype=np.complex128)
        out.real = np.bincount(self.col, self.value.real * w,
                               minlength=self.shape[1])
        out.imag = np.bincount(self.col, self.value.imag * w,
                               minlength=self.shape[1])
        return out

    def take(self, keep) -> Rows:
        """The rows ``keep`` (increasing), renumbered in that order."""
        index = np.full(self.shape[0], -1)
        index[keep] = np.arange(len(keep))
        mask = index[self.row] >= 0
        return Rows(index[self.row[mask]], self.col[mask], self.value[mask],
                    (len(keep), self.shape[1]))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.complex128)
        out[self.row, self.col] = self.value
        return out


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
    """Constraint data in the solver's row order.

    Dependent rows are dropped (``_independent_rows``); the rest keep
    their problem order, and ``keep[i]`` is the problem row of row i.
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
                rows = [r.take(keep) for r in rows]
            if bad is not None:
                self.inconsistent = _joined(self.note, (
                    f"constraint {bad} is a linear combination of the others "
                    "but its right-hand side disagrees"))

        self.keep = keep
        self.b = b[keep]
        self.p = len(keep)
        self.rows = list(rows)
        self.norm_b = float(np.linalg.norm(self.b))
        self.norm_c = float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in self.C)))

    def apply(self, xs) -> np.ndarray:
        """A(X): the vector of constraint values."""
        out = np.zeros(self.p)
        for a, x in zip(self.rows, xs):
            out += a.apply(x)
        return out

    def adjoint(self, y):
        """A*(y): one Hermitian matrix per block."""
        return [a.adjoint(y).reshape(d, d) for a, d in zip(self.rows,
                                                           self.blocks)]


def cholesky_shifts(m) -> list[float]:
    """The shifts reg, in the order tried, of a Cholesky factorization of
    the symmetric m + reg 1 that retries on failure: 0, then rising
    multiples of m's mean diagonal entry (or of 1, if that is smaller)."""
    base = max(1.0, float(np.trace(m)) / max(1, len(m)))
    return [0.0] + [base * 10.0 ** k for k in range(-14, -5, 3)]


class _DenseSystem:
    """The Newton system of any problem, solved by a dense Cholesky
    factorization of its Schur matrix M_ij = sum_blocks Tr(A_i W A_j W).

    With W = G G*, M_ij = Re <G* A_i G, G* A_j G>, so M = B B^T for the
    real and imaginary parts B of the scaled rows G* A_i G: one symmetric
    product.  Each row is held as a dense (d, d) matrix per block, and
    M is formed and factored for the rows divided by ``scale``.  The
    row stacks, B and the p x p Schur buffer are allocated once per solve;
    the factorization overwrites the buffer, so a solve holds one p x p
    array.
    """

    def __init__(self, comp: _Compiled):
        self.stacks = [r.toarray().reshape(-1, d, d)
                       for r, d in zip(comp.rows, comp.blocks)]
        # Each row is divided by a power of two near its largest entry,
        # which is exact, so that M stays in range for rows that are.
        top = np.max([np.abs(s).max(axis=(1, 2), initial=0.0)
                      for s in self.stacks], axis=0)
        self.scale = np.ldexp(1.0, np.frexp(top)[1])
        for s in self.stacks:
            s /= self.scale[:, None, None]
        self.scaled = np.empty((comp.p, 2 * sum(d * d for d in comp.blocks)))
        self.m = np.empty((comp.p, comp.p))

    def schur(self, scal) -> np.ndarray:
        """M for the rows divided by ``scale`` and the scalings ``scal``
        (``_nt_scaling`` per block), written into the buffer, which is
        returned."""
        at = 0
        for stack, (_, g, _, _) in zip(self.stacks, scal):
            size = 2 * g.size
            self.scaled[:, at:at + size] = (g.conj().T @ stack @ g).view(
                np.float64).reshape(len(stack), size)
            at += size
        return np.matmul(self.scaled, self.scaled.T, out=self.m)

    def factor(self, scal):
        """Factor M + reg 1 for the first shift of ``cholesky_shifts``
        that works; returns self, or None when none does.

        The factor overwrites the buffer's Fortran-ordered view, which
        holds M as M is symmetric.  A failed attempt leaves the buffer
        partly factored, so it is refilled from B before the next one.
        """
        import scipy.linalg
        m = self.schur(scal)
        # min and max carry any nan or inf, with no p x p temporary
        _require_finite(None, "the Schur complement",
                        (m.min(initial=0.0), m.max(initial=0.0)))
        diagonal = m.reshape(-1)[::len(m) + 1]
        for reg in cholesky_shifts(m):
            if reg:  # a retry
                np.matmul(self.scaled, self.scaled.T, out=m)
                diagonal += reg
            try:
                self.factor_l = scipy.linalg.cho_factor(
                    m.T, lower=True, overwrite_a=True, check_finite=False)[0]
                return self
            except np.linalg.LinAlgError:  # the class scipy raises
                continue
        return None

    def solve(self, rhs) -> np.ndarray:
        import scipy.linalg
        if len(rhs) == 0:
            return np.zeros(0)
        # solve() checks the result: a non-finite rhs makes it non-finite
        x = scipy.linalg.lapack.dpotrs(self.factor_l, rhs / self.scale,
                                       lower=1)[0]
        return x / self.scale


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
    # The real matrix [Re A, Im A] of every block side by side, as its
    # nonzero entries: data at (row_of, cols), width columns in all.
    parts, width = [], 0
    for a in rows:
        for part in (a.value.real, a.value.imag):
            parts.append((a.row, a.col + width, part))
            width += a.shape[1]
    row_of, cols, data = (np.concatenate(x) for x in zip(*parts))
    nonzero = data != 0
    row_of, cols, data = row_of[nonzero], cols[nonzero], data[nonzero]
    # Each row's sum of squares is taken on the row scaled by a power of
    # two near its largest entry, so it cannot overflow (or underflow)
    # and a row in range keeps every bit of its norm.
    top = np.zeros(p)
    np.maximum.at(top, row_of, np.abs(data))
    unit = np.ldexp(1.0, np.frexp(top)[1])
    norms = unit * np.sqrt(np.bincount(row_of, (data / unit[row_of]) ** 2,
                                       minlength=p))
    norms[norms == 0.0] = 1.0
    data = data / norms[row_of]
    b = b / norms
    tol = 1e-12 * max(p, width)  # the QR's rank threshold for diag[0] = 1
    big = np.abs(data) > tol
    left = np.ones(p, dtype=bool)
    while True:
        count = np.bincount(cols[left[row_of]], minlength=width)
        own = big & left[row_of] & (count[cols] == 1)
        if not own.any():
            break
        left[row_of[own]] = False
    rest = np.flatnonzero(left)
    if len(rest) == 0:
        return np.arange(p), [], None
    import scipy.linalg
    mask = left[row_of]
    touched, at = np.unique(cols[mask], return_inverse=True)
    sub = np.zeros((len(rest), len(touched)))  # the columns they touch
    sub[np.searchsorted(rest, row_of[mask]), at] = data[mask]
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


def solve(problem: SdpProblem, system=None) -> SdpSolution:
    """Run the interior-point iteration; see the module docstring.

    ``system`` builds the Newton system: it is called once with the
    ``_Compiled`` rows, those the solve kept after dropping dependent
    ones, in their order.  Its ``factor(scaling)`` takes the per-block
    ``_nt_scaling`` tuples and returns a system whose ``solve(rhs)``
    solves M dy = rhs for the Schur matrix M of those rows at that
    scaling, or None when it cannot be factored.  None selects the dense
    Cholesky of ``_DenseSystem``.
    """
    comp = _Compiled(problem)
    if comp.inconsistent is not None:
        return SdpSolution(status="infeasible", message=comp.inconsistent)
    newton = (_DenseSystem if system is None else system)(comp)

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
        factor = newton.factor(scal)
        if factor is None:
            message = ("Schur complement stayed indefinite after regularization "
                       "retries; returning the best iterate")
            break

        w_rd_w = [w @ r @ w for w, r in zip(ws, rd)]

        def direction(rc):
            """(dX, dy, dZ) solving dX + W dZ W = rc, their scaled forms
            G^-1 dX G^-* and G* dZ G, and the step lengths (ap, ad)."""
            dy = _require_finite(it, "the search direction", factor.solve(
                rp - comp.apply(rc) + comp.apply(w_rd_w)))
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
    precision have overflowed into them (at iteration ``it``, if given)."""
    if not np.isfinite(values).all():
        where = "" if it is None else f"iteration {it}: "
        raise ConvergenceError(
            f"{where}{what} left the float range; the problem data are "
            "too large for double precision")
    return values


def _expand_dual(comp, y, p_full):
    """y in problem row order, with zeros for dropped dependent rows."""
    full = np.zeros(p_full)
    full[comp.keep] = y
    return full


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
    row_sq = sum(np.bincount(a.row, np.abs(a.value) ** 2, minlength=comp.p)
                 for a in comp.rows)
    row_norm = float(np.sqrt(np.max(row_sq, initial=0.0)))
    x_norm = float(np.sqrt(sum(np.linalg.norm(x) ** 2 for x in x_ray)))
    if float(np.linalg.norm(comp.apply(x_ray))) <= 1e-7 * x_norm * row_norm:
        return tuple(x_ray)
    return None
