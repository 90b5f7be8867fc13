"""Entanglement witnesses and separable neighborhoods of the identity.

A positive element x of A (x) B is checked block pair by block pair
against the decomposable witnesses W = C_1 + C_2^G with C_1, C_2 >= 0
and Tr(W) = 1 (G = partial transpose on the B leg).  Because
Tr(C_2^G x) = Tr(C_2 x^G), the best such witness has the closed form

    min_W Tr(W x) = min(lambda_min(x), lambda_min(x^G)),

attained by a rank-one C_2 = |v><v| on the bottom eigenvector v of x^G
(Horodecki^3, PLA 223 (1996); Lewenstein-Kraus-Cirac-Horodecki, PRA 62,
052310 (2000)), so each pair costs one eigendecomposition of x^G and no
interior-point solve.  On a positive x a negative optimum means x^G has
a negative eigenvalue; the rank-one witness W = (|v><v|)^G then induces
a positive map phi whose amplification Id (x) phi moves x outside the
positive cone, and the violated eigenvector of the moved element is a
certificate checkable by eigendecomposition alone.  A nonnegative
optimum certifies separability only where the partial-transpose test is
decisive, i.e. pairs of sizes 2x2 and 2x3 (and trivially when either
block is one-dimensional); everything else stays undecided.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import algebra, matcore, maps, sampling
from .errors import DimensionError, PositivityError

PSD_SLACK = 1e-9
DECISIVE_PAIRS = {(1, 1), (2, 2), (2, 3), (3, 2)}


@dataclass(frozen=True)
class WitnessData:
    """Entanglement certificate for one block pair."""

    pair: tuple[int, int]
    map: maps.LinearMapRep        # positive map on the B-leg block
    vector: np.ndarray = field(repr=False)
    violation: float = 0.0
    witness_matrix: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class PairReport:
    pair: tuple[int, int]
    dims: tuple[int, int]
    status: str
    witness_value: float
    ppt_margin: float
    message: str = ""


@dataclass(frozen=True)
class SepVerdict:
    status: str  # separable-certified | entangled-certified | undecided
    margin: float
    witness: WitnessData | None = None
    decomposition: list | None = None
    pair_reports: tuple[PairReport, ...] = ()


def ppt_check(x: algebra.BipartiteElement, tol: float = PSD_SLACK):
    """Partial-transpose positivity per block pair.

    Returns (all_nonnegative, margins) where margins[i] is the smallest
    eigenvalue of the partially transposed part in lexicographic order.
    A part fails when its margin is below -tol * max(1, ||part||).
    """
    if not tol >= 0.0:
        raise DimensionError(f"tolerance must be nonnegative, got {tol}")
    margins = []
    ok = True
    for (k, l) in x.pairs():
        part = x.part(k, l)
        gamma = matcore.partial_transpose(part, x.pair_dims(k, l), "second")
        margin = matcore.min_eigenvalue(gamma)
        margins.append(margin)
        # The scale is at least one, so only a margin below -tol needs it.
        if margin < -tol and \
                margin < -tol * max(1.0, matcore.operator_norm(part)):
            ok = False
    return ok, margins


def induced_witness_map(w: np.ndarray, n: int, m: int) -> maps.LinearMapRep:
    """The map phi: M_m -> M_n with Tr(W x) = Tr(sum a_i^T phi(b_i)).

    Index identity: Choi(phi)[(a,i),(b,j)] = W[(j,b),(i,a)].
    """
    w4 = matcore.as_matrix(w).reshape(n, m, n, m)
    choi = np.transpose(w4, (3, 2, 1, 0)).reshape(n * m, n * m)
    return maps.LinearMapRep(m, n, np.ascontiguousarray(choi))


def _certify_pair(part, dims, pair, lam_min, scale, tol):
    """Closed-form decomposable witness on one block pair.

    ``lam_min`` is the smallest eigenvalue of ``part`` and ``scale`` is
    max(1, ||part||), both from the caller's positivity precheck.
    """
    n, m = dims
    gamma = matcore.partial_transpose(part, dims, "second")
    g_evals, g_vecs = matcore.eig_hermitian(gamma)
    ppt_margin = float(g_evals[0])
    value = min(lam_min, ppt_margin)

    if n == 1 or m == 1:
        # One leg is scalar: every positive element is a product.
        decomp = [(np.ones((1, 1), dtype=np.complex128), part.copy())] \
            if n == 1 else [(part.copy(), np.ones((1, 1), dtype=np.complex128))]
        report = PairReport(pair, dims, "separable-certified",
                            witness_value=value, ppt_margin=ppt_margin,
                            message="scalar leg, element is a product")
        return report, None, decomp

    if value < -tol * scale:
        # lam_min passed the precheck, so the optimum is lambda_min(x^G),
        # attained by C_2 = |v><v|: W = (|v><v|)^G has trace one.
        v = g_vecs[:, 0]
        w = matcore.partial_transpose(np.outer(v, v.conj()), dims, "second")
        phi = induced_witness_map(w, n, m)
        moved = maps.apply_to_second_leg(phi, part, n)
        evals, evecs = matcore.eig_hermitian(moved)
        violation = float(evals[0])
        if violation < -tol * scale:
            data = WitnessData(pair=pair, map=phi, vector=evecs[:, 0],
                               violation=violation, witness_matrix=w)
            report = PairReport(pair, dims, "entangled-certified",
                                witness_value=value, ppt_margin=ppt_margin)
            return report, data, None
        report = PairReport(pair, dims, "undecided", witness_value=value,
                            ppt_margin=ppt_margin,
                            message="witness optimum negative but the moved "
                                    "element stayed positive within tolerance")
        return report, None, None

    if (n, m) in DECISIVE_PAIRS:
        report = PairReport(pair, dims, "separable-certified",
                            witness_value=value, ppt_margin=ppt_margin,
                            message="partial transpose decisive at these sizes")
        return report, None, []
    report = PairReport(pair, dims, "undecided", witness_value=value,
                        ppt_margin=ppt_margin,
                        message="no decomposable witness; sizes beyond the "
                                "decisive range")
    return report, None, None


def entanglement_witness(x: algebra.BipartiteElement,
                         tol: float = PSD_SLACK) -> SepVerdict:
    """Certify entanglement or separability of a positive element."""
    x = x.hermitized()
    spectra = []
    for (k, l) in x.pairs():
        evals = matcore.eigvals_hermitian(x.part(k, l))
        lam_min = float(evals[0])
        scale = max(1.0, abs(lam_min), abs(float(evals[-1])))
        if lam_min < -tol * scale:
            raise PositivityError(
                f"block pair ({k},{l}) has eigenvalue {lam_min:.3e}; "
                "the witness test needs a positive element"
            )
        spectra.append((lam_min, scale))

    reports = []
    witness = None
    decomposition = []
    have_decomposition = True
    for (k, l), (lam_min, scale) in zip(x.pairs(), spectra):
        report, data, decomp = _certify_pair(
            x.part(k, l), x.pair_dims(k, l), (k, l), lam_min, scale, tol)
        reports.append(report)
        if data is not None and witness is None:
            witness = data
        if decomp is None:
            have_decomposition = False
        else:
            decomposition.append(((k, l), decomp))

    statuses = [r.status for r in reports]
    if "entangled-certified" in statuses:
        margin = min(r.witness_value for r in reports
                     if r.status == "entangled-certified")
        return SepVerdict(status="entangled-certified", margin=margin,
                          witness=witness, pair_reports=tuple(reports))
    if all(s == "separable-certified" for s in statuses):
        margin = min(r.ppt_margin for r in reports)
        return SepVerdict(status="separable-certified", margin=margin,
                          decomposition=decomposition if have_decomposition
                          else None,
                          pair_reports=tuple(reports))
    margin = min(r.ppt_margin for r in reports)
    return SepVerdict(status="undecided", margin=margin,
                      pair_reports=tuple(reports))


def dilation_embed(x: algebra.BipartiteElement, r: float) -> algebra.BipartiteElement:
    """Embed a contraction into a positive corner element.

    For x on A (x) M_k with ||x|| <= 1 and 0 <= r <= 1 this returns

        y = [[1 (x) 1, r x], [r x*, 1 (x) 1]]  on  A (x) M_2k,

    whose distance from the identity is exactly r ||x||: the off-diagonal
    block matrix [[0, x], [x*, 0]] has the same norm as x.
    """
    if not (0.0 <= r <= 1.0):
        raise DimensionError(f"the contraction scale must be in [0, 1], got {r}")
    if len(x.alg_b.blocks) != 1:
        raise DimensionError("dilation needs a single-block second algebra")
    if x.norm() > 1.0 + 1e-12:
        raise DimensionError(f"element norm {x.norm():.6f} exceeds 1")
    k = x.alg_b.blocks[0]
    parts = []
    for (kk, _) in x.pairs():
        n = x.alg_a.blocks[kk]
        p4 = x.part(kk, 0).reshape(n, k, n, k)
        y6 = np.zeros((n, 2, k, n, 2, k), dtype=np.complex128)
        ident = np.einsum("ij,cd->icjd", np.eye(n), np.eye(k))
        y6[:, 0, :, :, 0, :] = ident
        y6[:, 1, :, :, 1, :] = ident
        y6[:, 0, :, :, 1, :] = r * p4
        y6[:, 1, :, :, 0, :] = r * np.transpose(p4.conj(), (2, 3, 0, 1))
        parts.append(y6.reshape(n * 2 * k, n * 2 * k))
    return algebra.BipartiteElement(
        x.alg_a, algebra.FdAlgebra((2 * k,)), tuple(parts))


def extremal_entangled(n: int, eps: float = 0.05) -> algebra.BipartiteElement:
    """1 (x) 1 - r F on M_n (x) M_n with r = (1 + eps)/n.

    The element is positive for r <= 1 and its partial transpose has
    smallest eigenvalue exactly -eps, witnessing entanglement just past
    the separable radius 1/n.
    """
    if eps < 0:
        raise DimensionError(f"eps must be nonnegative, got {eps}")
    r = (1.0 + eps) / n
    if r > 1.0:
        raise DimensionError(
            f"eps {eps} pushes r = (1+eps)/{n} past 1; the element would "
            "leave the positive cone"
        )
    alg = algebra.FdAlgebra((n,))
    part = np.eye(n * n, dtype=np.complex128) - r * matcore.swap_operator(n)
    return algebra.BipartiteElement(alg, alg, (part,))


def extremal_direction(alg_a: algebra.FdAlgebra, alg_b: algebra.FdAlgebra,
                       eps: float = 0.05) -> algebra.BipartiteElement:
    """1 (x) 1 - r F_embedded with r = (1 + eps)/min(rank).

    The swap sits in the max-rank block pair; the element is the
    direct-sum version of ``extremal_entangled`` and is entangled for
    any eps > 0 while staying positive for eps <= min(rank) - 1.
    """
    d = min(alg_a.rank, alg_b.rank)
    if d < 2:
        raise DimensionError(
            "extremal direction needs both algebras to have rank >= 2"
        )
    r = (1.0 + eps) / d
    if r > 1.0:
        raise DimensionError(
            f"eps {eps} pushes r = (1+eps)/{d} past 1; the element would "
            "leave the positive cone"
        )
    return algebra.identity_minus(_directed_element(alg_a, alg_b, r))


@dataclass(frozen=True)
class ScanRow:
    radius: float
    separable: int
    entangled: int
    undecided: int
    directed_status: str


@dataclass(frozen=True)
class ScanReport:
    alg_a: algebra.FdAlgebra
    alg_b: algebra.FdAlgebra
    radii: tuple[float, ...]
    samples: int
    seed: int
    rows: tuple[ScanRow, ...]
    onset: float | None  # smallest radius with an entangled verdict


def _max_rank_pair(alg_a: algebra.FdAlgebra, alg_b: algebra.FdAlgebra):
    k = int(np.argmax(alg_a.blocks))
    l = int(np.argmax(alg_b.blocks))
    return k, l


def _gue_element(alg_a, alg_b, radius, rng) -> algebra.BipartiteElement:
    parts = []
    for k in range(len(alg_a.blocks)):
        for l in range(len(alg_b.blocks)):
            d = alg_a.blocks[k] * alg_b.blocks[l]
            parts.append(sampling.gue(rng, d))
    top = max(matcore.operator_norm(p) for p in parts)
    parts = tuple(p * (radius / top) for p in parts)
    return algebra.BipartiteElement(alg_a, alg_b, parts)


def _directed_element(alg_a, alg_b, radius) -> algebra.BipartiteElement:
    """Scaled swap in the max-rank pair: the adversarial direction."""
    k0, l0 = _max_rank_pair(alg_a, alg_b)
    d = min(alg_a.blocks[k0], alg_b.blocks[l0])
    parts = []
    for k in range(len(alg_a.blocks)):
        for l in range(len(alg_b.blocks)):
            size = alg_a.blocks[k] * alg_b.blocks[l]
            if (k, l) == (k0, l0):
                parts.append(radius * matcore.embedded_swap(
                    d, alg_a.blocks[k], alg_b.blocks[l]))
            else:
                parts.append(np.zeros((size, size), dtype=np.complex128))
    return algebra.BipartiteElement(alg_a, alg_b, tuple(parts))


def sep_ball_scan(alg_a: algebra.FdAlgebra, alg_b: algebra.FdAlgebra,
                  radii, samples: int = 50, seed: int = 0,
                  threads: int = 1, tol: float = PSD_SLACK) -> ScanReport:
    """Verdict counts for identity-minus-perturbation elements.

    Per radius r the scan draws ``samples`` GUE perturbations normalized
    to norm exactly r, always appends the directed swap perturbation so
    the entangled onset past the separable radius is never missed, and
    tabulates verdicts of 1 (x) 1 - x.  Sample streams are derived from
    (seed, radius index, sample index), so thread count never changes
    the outcome.
    """
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise DimensionError("the scan needs at least one radius")
    # Written so that NaN, which fails every comparison, is refused too.
    if not all(0.0 <= r <= 1.0 for r in radii):
        raise DimensionError("scan radii must lie in [0, 1]")
    if samples < 0:
        raise DimensionError(f"samples must be nonnegative, got {samples}")

    def one_sample(ri: int, s: int):
        rng = sampling.rng_from(0x5CA9, seed, ri, s)
        x = _gue_element(alg_a, alg_b, radii[ri], rng)
        return entanglement_witness(algebra.identity_minus(x), tol=tol).status

    rows = []
    onset = None
    for ri, r in enumerate(radii):
        jobs = [(ri, s) for s in range(samples)]
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                statuses = list(pool.map(lambda j: one_sample(*j), jobs))
        else:
            statuses = [one_sample(*j) for j in jobs]
        directed = entanglement_witness(
            algebra.identity_minus(_directed_element(alg_a, alg_b, r)),
            tol=tol).status
        statuses.append(directed)
        counts = {s: statuses.count(s) for s in (
            "separable-certified", "entangled-certified", "undecided")}
        rows.append(ScanRow(
            radius=r,
            separable=counts["separable-certified"],
            entangled=counts["entangled-certified"],
            undecided=counts["undecided"],
            directed_status=directed,
        ))
        if counts["entangled-certified"] > 0 and onset is None:
            onset = r
    return ScanReport(alg_a=alg_a, alg_b=alg_b, radii=radii, samples=samples,
                      seed=seed, rows=tuple(rows), onset=onset)
