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

One core certifies a stack of elements of one block pair with one
stacked eigensolve per step (positivity precheck, x^G, moved elements).
``entanglement_witness`` runs it on stacks of one; ``sep_ball_scan``,
which scans random and directed elements at given radii, runs it once
per block pair on all elements of a radius.  The module also builds the
extremal entangled elements just past the radius 1/min(rank).  Every
eigenvalue test reads the one slack ``PSD_SLACK``, relative to
max(1, ||part||).  The PPT rule is ``ppt_margin``: ``ppt_check`` gives
its margin per block pair, the number that ``--verify`` reports for
every PPT and NPT check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra, matcore, maps, sampling
from .errors import ConvergenceError, DimensionError, PositivityError

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


def ppt_margin(lam: float, part: np.ndarray) -> float:
    """lam + PSD_SLACK * s with s = max(1, ||part||): negative exactly
    when lam, the smallest eigenvalue of part's partial transpose, makes
    the pair NPT.  As s >= 1, s is taken only where lam < -PSD_SLACK and
    read as 1 elsewhere, which decides the same."""
    if lam >= -PSD_SLACK:
        return lam + PSD_SLACK
    return lam + PSD_SLACK * max(1.0, matcore.operator_norm(part))


def ppt_check(x: algebra.BipartiteElement) -> list[float]:
    """``ppt_margin`` per block pair of x, in lexicographic order:
    negative exactly on the NPT pairs."""
    margins = []
    for (k, l) in x.pairs():
        part = x.part(k, l)
        lam = matcore.min_eigenvalue(
            matcore.partial_transpose(part, x.pair_dims(k, l)))
        margins.append(ppt_margin(lam, part))
    return margins


def induced_witness_map(w: np.ndarray, n: int, m: int) -> maps.LinearMapRep:
    """The map phi: M_m -> M_n with Tr(W x) = Tr(sum a_i^T phi(b_i)).

    Index identity: Choi(phi)[(a,i),(b,j)] = W[(j,b),(i,a)].
    """
    w4 = matcore.as_matrix(w).reshape(n, m, n, m)
    choi = np.transpose(w4, (3, 2, 1, 0)).reshape(n * m, n * m)
    return maps.LinearMapRep(m, n, np.ascontiguousarray(choi))


def _eigh(stack, vectors=True):
    """Stacked Hermitian eigensolve, ascending; ``stack`` is Hermitian."""
    try:
        return np.linalg.eigh(stack) if vectors else np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise ConvergenceError(f"Hermitian eigensolver hit its iteration limit: {exc}")


def _certify_stack(parts, dims, pair):
    """Closed-form decomposable witness on a stack of elements of one pair.

    ``parts`` is a (B, n*m, n*m) stack of Hermitian parts of block pair
    ``pair``.  Returns one PairReport per member and a dict from member
    index to the WitnessData of each entangled member.  Raises
    PositivityError if a member is not positive.
    """
    n, m = dims
    evals = _eigh(parts, vectors=False)
    lam_min = evals[:, 0]
    # PSD_SLACK * max(1, ||part||), the norm read off the spectrum
    slack = PSD_SLACK * np.maximum(
        1.0, np.maximum(np.abs(lam_min), np.abs(evals[:, -1])))
    bad = np.flatnonzero(lam_min < -slack)
    if len(bad):
        raise PositivityError(
            f"block pair ({pair[0]},{pair[1]}) has eigenvalue "
            f"{lam_min[bad[0]]:.3e}; the witness test needs a positive element")
    g_evals, g_vecs = _eigh(matcore.partial_transpose(parts, dims))
    margins = g_evals[:, 0]
    values = np.minimum(lam_min, margins)

    scalar_leg = n == 1 or m == 1
    if scalar_leg:
        # Every positive element is a product.
        verdict = ("separable-certified", "scalar leg, element is a product")
    elif (n, m) in DECISIVE_PAIRS:
        verdict = ("separable-certified",
                   "partial transpose decisive at these sizes")
    else:
        verdict = ("undecided",
                   "no decomposable witness; sizes beyond the decisive range")
    verdicts = [verdict] * len(parts)
    witnesses = {}
    negative = [] if scalar_leg else np.flatnonzero(values < -slack)
    if len(negative):
        # lam_min passed the precheck, so the optimum is lambda_min(x^G),
        # attained by C_2 = |v><v|: W = (|v><v|)^G has trace one.
        found, moved = [], []
        for i in negative:
            v = g_vecs[i, :, 0]
            w = matcore.partial_transpose(np.outer(v, v.conj()), dims)
            phi = induced_witness_map(w, n, m)
            found.append((w, phi))
            moved.append(matcore.check_hermitian(
                maps.apply_to_second_leg(phi, parts[i], n)))
        m_evals, m_vecs = _eigh(np.array(moved))
        for (w, phi), i, violation, vector in zip(
                found, negative, m_evals[:, 0], m_vecs[:, :, 0]):
            if violation < -slack[i]:
                witnesses[i] = WitnessData(
                    pair=pair, map=phi, vector=vector,
                    violation=float(violation), witness_matrix=w)
                verdicts[i] = ("entangled-certified", "")
            else:
                verdicts[i] = ("undecided",
                               "witness optimum negative but the moved "
                               "element stayed positive within tolerance")
    reports = [PairReport(pair, dims, status, witness_value=float(value),
                          ppt_margin=float(margin), message=message)
               for (status, message), value, margin
               in zip(verdicts, values, margins)]
    return reports, witnesses


def _combined_status(statuses) -> str:
    """The verdict on an element from the verdicts on its block pairs."""
    if "entangled-certified" in statuses:
        return "entangled-certified"
    if all(s == "separable-certified" for s in statuses):
        return "separable-certified"
    return "undecided"


def _product_factors(part, dims):
    """Decomposition of a separable pair: the element itself when one leg
    is scalar, else none given."""
    one = np.ones((1, 1), dtype=np.complex128)
    if dims[0] == 1:
        return [(one, part.copy())]
    if dims[1] == 1:
        return [(part.copy(), one)]
    return []


def entanglement_witness(x: algebra.BipartiteElement) -> SepVerdict:
    """Certify entanglement or separability of a positive element."""
    x = x.hermitized()
    reports, witness = [], None
    for (k, l) in x.pairs():
        (report,), found = _certify_stack(
            x.part(k, l)[None], x.pair_dims(k, l), (k, l))
        reports.append(report)
        if witness is None:
            witness = found.get(0)

    status = _combined_status([r.status for r in reports])
    if status == "entangled-certified":
        margin = min(r.witness_value for r in reports
                     if r.status == "entangled-certified")
        return SepVerdict(status=status, margin=margin, witness=witness,
                          pair_reports=tuple(reports))
    margin = min(r.ppt_margin for r in reports)
    if status == "separable-certified":
        decomposition = [(r.pair, _product_factors(x.part(*r.pair), r.dims))
                         for r in reports]
        return SepVerdict(status=status, margin=margin,
                          decomposition=decomposition,
                          pair_reports=tuple(reports))
    return SepVerdict(status=status, margin=margin,
                      pair_reports=tuple(reports))


def extremal_direction(alg_a: algebra.FdAlgebra, alg_b: algebra.FdAlgebra,
                       eps: float = 0.05) -> algebra.BipartiteElement:
    """1 (x) 1 - r F_embedded with r = (1 + eps)/min(rank).

    The swap of size d = min(rank) sits in the max-rank block pair.  Its
    partial transpose there has smallest eigenvalue exactly -eps, so the
    element is entangled for any eps > 0, just past the separable radius
    1/d, while staying positive for eps <= d - 1.
    """
    d = min(alg_a.rank, alg_b.rank)
    if d < 2:
        raise DimensionError(
            "extremal direction needs both algebras to have rank >= 2"
        )
    if not eps >= 0.0:
        raise DimensionError(f"eps must be nonnegative, got {eps}")
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


def _gue_stacks(alg_a, alg_b, radius, rngs):
    """Per block pair, the stack of one GUE part per generator in ``rngs``,
    each element (one member across all pairs) scaled to norm ``radius``.

    Every generator draws its element's parts in pair order."""
    sizes = [alg_a.blocks[k] * alg_b.blocks[l]
             for k in range(len(alg_a.blocks))
             for l in range(len(alg_b.blocks))]
    draws = [[sampling.gue(rng, d) for d in sizes] for rng in rngs]
    stacks = [np.array([parts[j] for parts in draws]).reshape(-1, d, d)
              for j, d in enumerate(sizes)]
    top = np.max([np.linalg.norm(s, 2, axis=(1, 2)) for s in stacks], axis=0)
    return [s * (radius / top)[:, None, None] for s in stacks]


def _gue_element(alg_a, alg_b, radius, rng) -> algebra.BipartiteElement:
    stacks = _gue_stacks(alg_a, alg_b, radius, [rng])
    return algebra.BipartiteElement(alg_a, alg_b, tuple(s[0] for s in stacks))


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
                  radii, samples: int = 50, seed: int = 0) -> ScanReport:
    """Verdict counts for identity-minus-perturbation elements.

    Per radius r the scan draws ``samples`` GUE perturbations normalized
    to norm exactly r, always appends the directed swap perturbation so
    the entangled onset past the separable radius is never missed, and
    tabulates verdicts of 1 (x) 1 - x.  Sample streams are derived from
    (seed, radius index, sample index).  The elements of one radius are
    certified together, one stack per block pair, with the same verdicts
    as ``entanglement_witness`` gives them one by one.
    """
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise DimensionError("the scan needs at least one radius")
    # Written so that NaN, which fails every comparison, is refused too.
    if not all(0.0 <= r <= 1.0 for r in radii):
        raise DimensionError("scan radii must lie in [0, 1]")
    if samples < 0:
        raise DimensionError(f"samples must be nonnegative, got {samples}")

    rows = []
    onset = None
    for ri, r in enumerate(radii):
        rngs = [sampling.rng_from(0x5CA9, seed, ri, s) for s in range(samples)]
        stacks = _gue_stacks(alg_a, alg_b, r, rngs)
        directed = algebra.identity_minus(_directed_element(alg_a, alg_b, r))
        by_pair = []
        for (k, l), stack, last in zip(directed.pairs(), stacks,
                                       directed.parts):
            eye = np.eye(len(last), dtype=np.complex128)
            parts = np.concatenate([eye - stack, last[None]])
            parts = (parts + parts.conj().transpose(0, 2, 1)) / 2.0
            reports, _ = _certify_stack(parts, directed.pair_dims(k, l),
                                        (k, l))
            by_pair.append([rep.status for rep in reports])
        statuses = [_combined_status(col) for col in zip(*by_pair)]
        counts = {s: statuses.count(s) for s in (
            "separable-certified", "entangled-certified", "undecided")}
        rows.append(ScanRow(
            radius=r,
            separable=counts["separable-certified"],
            entangled=counts["entangled-certified"],
            undecided=counts["undecided"],
            directed_status=statuses[-1],
        ))
        if counts["entangled-certified"] > 0 and onset is None:
            onset = r
    return ScanReport(alg_a=alg_a, alg_b=alg_b, radii=radii, samples=samples,
                      seed=seed, rows=tuple(rows), onset=onset)
