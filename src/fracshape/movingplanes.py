"""Critical reflection planes: support values, cap reflection, violation scan.

For a direction e the scan slides the plane {x.e = mu} down from the
support value Lambda_e, reflecting the boundary of the cap beyond the
plane and measuring how far outside the domain it lands.  The critical
offset is the first mu where that excess turns positive; the witness
point classifies the touching case (interior tangency vs an orthogonal
crossing on the plane itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import ImplicitDomain, ProjectionError, chart_extreme, chart_grids
from .specfun import ParameterDomainError

TAG_TANGENCY = "internal-tangency"
TAG_ORTHOGONAL = "boundary-orthogonality"
TAG_UNRESOLVED = "unresolved"

# Level excess above this counts as a genuine inclusion violation; below
# it is indistinguishable from projection/rounding residue.
_VIOLATION_EPS = 1e-12

# Offsets per raw-excess call of the downward scan.
_SCAN_BLOCK = 8


@dataclass(frozen=True)
class CriticalPlaneResult:
    e: np.ndarray
    Lambda: float
    lam: float
    case_tag: str
    witness: Optional[np.ndarray]
    tol: float


def _unit(e) -> np.ndarray:
    """``e / |e|``; the one check of what counts as a direction."""
    e = np.asarray(e, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm reads inf
        norm = float(np.linalg.norm(e))
    if not 0.0 < norm < np.inf:
        raise ParameterDomainError(f"direction must be a nonzero vector of finite norm, "
                                   f"got {e.tolist()}")
    return e / norm


def reflect(x, mu: float, e) -> np.ndarray:
    """Mirror image of ``x`` across the plane {x.e = mu} (vectorized)."""
    x = np.asarray(x, dtype=float)
    e = np.asarray(e, dtype=float)
    # the + 0.0 makes a -0.0 dot product read +0.0, as np.sum over the pair
    # gives it, so a signed zero reflects to the same bits either way
    side = (x[..., 0] * e[0] + (x[..., 1] * e[1] + 0.0)) - mu
    twice = 2.0 * side
    out = np.empty_like(x)
    out[..., 0] = x[..., 0] - twice * e[0]
    out[..., 1] = x[..., 1] - twice * e[1]
    return out


def support_value(d: ImplicitDomain, e) -> float:
    """sup of x.e over the domain, read off its boundary charts."""
    e = _unit(e)
    if not d.boundary_param:
        raise ProjectionError("support value needs a boundary parametrization")
    grids = chart_grids(d.boundary_param, 4096)
    return chart_extreme(grids, lambda q: q @ e, 4, maximize=True)[0]


def _sorted_nodes(grids, e: np.ndarray):
    """Every node of the grids and its projection ``p = pts @ e``, sorted by
    p, largest first, and p closed by -inf, which stands for no node.  Each
    grid's p is the product ``violation`` takes on that grid, so it has the
    same bits; which grid a node came from does not matter to a maximum over
    all nodes."""
    p = np.concatenate([pts @ e for _, _, pts, _ in grids])
    order = np.argsort(-p)
    return (np.concatenate([pts for _, _, pts, _ in grids])[order],
            np.append(p[order], -np.inf))


def _raw_excess(d: ImplicitDomain, nodes, p, mus, e: np.ndarray) -> np.ndarray:
    """Worst node excess at each offset of ``mus``, on the sorted nodes and
    projections of ``_sorted_nodes``.

    fl(p - mu) > 0 exactly when p > mu, so the cap at mu is the prefix of the
    c nodes above it.  Only the prefix of the lowest offset is reflected and
    levelled, all offsets at once as one (K, c) array; each offset keeps the
    levels of its own cap.  Off its cap a node's excess is -|p - mu|, worst
    at the first node past the prefix (-inf when there is none).
    """
    mus = np.asarray(mus, dtype=float)
    caps = np.searchsorted(-p, -mus)  # nodes with p > mu; -p is ascending
    side = p[:caps.max()] - mus[:, None]
    level = d.level(nodes[:side.shape[1]] - 2.0 * side[..., None] * e)
    worst = np.max(np.where(side > 0.0, level, -np.inf), axis=1, initial=-np.inf)
    return np.maximum(worst, -np.abs(p[caps] - mus))


def violation(d: ImplicitDomain, grids, mu: float, e: np.ndarray, refine: bool = True):
    """Worst exterior excess of the reflected cap boundary at offset ``mu``.

    Returns ``(excess, reflected_point)``; excess <= 0 means the reflected
    cap stayed inside on every sample.  The excess of a boundary point is
    the level of its reflection on the cap side and minus its distance to
    the plane off it, which keeps a refined max on the cap side.
    ``refine=False`` is the cheap pass: it returns ``(excess, None)``, the
    excess of the worst node of the grids and no point, by ``_raw_excess``
    on the sorted nodes.  ``critical_lambda`` sorts once per plane and calls
    ``_raw_excess`` itself.  Refinement is ``chart_extreme`` of each chart's
    worst node, so the unrefined excess is never above the refined one, and
    a raw excess above the violation threshold is a refined one too:
    ``critical_lambda`` refines a verdict only at an offset where the raw
    pass is clean.
    """
    if not refine:
        return float(_raw_excess(d, *_sorted_nodes(grids, e), [mu], e)[0]), None

    def gain(q):
        side = q @ e - mu
        out = -np.abs(side)
        cap = side > 0.0
        if cap.any():
            out[cap] = d.level(q[cap] - 2.0 * side[cap][:, None] * e)
        return out

    value, point = chart_extreme(grids, gain, 1, True)
    return value, point - 2.0 * (point @ e - mu) * e


def critical_lambda(d: ImplicitDomain, e, tol: float = 1e-6,
                    seed: int = 0) -> CriticalPlaneResult:
    """Critical plane offset in direction ``e``: coarse-to-fine downward scan
    plus bisection.

    The scan steps down from Lambda toward the far support by 1/400 of the
    domain's width along ``e``, and samples the excess on 8192 chart nodes in
    all, on grids whose phase the seed shifts.  It runs the cheap unrefined
    pass, the worst node excess and no point, at every offset: the nodes are
    sorted by their projection on ``e`` once per plane, and ``_raw_excess``
    takes ``_SCAN_BLOCK`` offsets per call, levelling only the cap prefix,
    until a block holds a violated offset.  It refines only where the
    verdict is decided: from the first offset whose raw excess is positive
    it steps back up with refined calls while the offset above is still
    violated.  This rests on the raw excess never rising above the refined
    one (``chart_extreme`` keeps the better of the node and its polish), so
    the first refined violation sits at or above the first raw one; it is
    missed only if a refined-clean offset separates them.  The topmost
    violated offset and the one above it (or Lambda) bracket the critical
    value, which bisection then pins to ``tol``.  Each midpoint gets the raw
    pass first, on the same sorted nodes, and a refined call only when that
    pass is clean (a raw violation is a refined one), so every verdict is
    the refined one and is polished only where the raw pass is clean.  A
    ``tol`` finer than the float spacing of Lambda is raised to that
    spacing, and the result reports the raised value.  The witness is the
    worst reflected point of a refined call at the bracket's lower end, an
    offset the scan has already found violated, so no fresh verdict can
    contradict it; a witness within 10 tol of the plane is tagged as the
    orthogonal-crossing case, otherwise as interior tangency.  A reflection-symmetric domain in
    its symmetry direction stops at its centre plane up to tol and sampling
    residue (lambda = -3e-7 for the unit disk at tol 1e-6), tagged like any
    contact: the reflected cap pokes out once the plane passes the centre.
    The result is ``unresolved`` only when the raw pass finds no violation
    all the way down to the far support; its lowest offset reflects the
    top of the domain past the far support, and the raw pass violated
    there on every ball, ellipsoid and bump domain tried.

    Below a ``tol`` of about 1e-12 rounding sets lambda: near it the
    refined excess is flat at the violation threshold, and the four
    symmetric copies of an oblique direction of ``ellipsoid:0.1`` (e, its
    mirror images in both axes, and -e) spread by up to about 6e-13 at tol
    1e-14, so a finer ``tol`` buys no accuracy.
    """
    e = _unit(e)
    lam_top = support_value(d, e)
    tol = max(tol, float(np.spacing(abs(lam_top))))
    lam_bot = -support_value(d, -e)
    grids = chart_grids(d.boundary_param, max(64, 8192 // len(d.boundary_param)),
                        (0.5 + seed * 0.6180339887498949) % 1.0)

    step = (lam_top - lam_bot) / 400.0
    offsets = []
    mu = lam_top - step
    while mu > lam_bot - 0.5 * step:
        offsets.append(mu)
        mu -= step

    nodes, p = _sorted_nodes(grids, e)

    def raw_violated(mus):
        return _raw_excess(d, nodes, p, mus, e) > _VIOLATION_EPS

    def violated(mu):
        return violation(d, grids, mu, e)[0] > _VIOLATION_EPS

    k = None
    for i in range(0, len(offsets), _SCAN_BLOCK):
        hits = np.flatnonzero(raw_violated(offsets[i:i + _SCAN_BLOCK]))
        if hits.size:
            k = i + int(hits[0])
            break
    if k is None:
        return CriticalPlaneResult(e=e, Lambda=lam_top, lam=lam_bot,
                                   case_tag=TAG_UNRESOLVED, witness=None, tol=tol)
    while k > 0 and violated(offsets[k - 1]):
        k -= 1
    lo_mu = offsets[k]
    hi_mu = offsets[k - 1] if k > 0 else lam_top

    while hi_mu - lo_mu > tol:
        mid = 0.5 * (lo_mu + hi_mu)
        if not lo_mu < mid < hi_mu:  # the gap is down to float spacing
            break
        # a raw violation is a refined one: polish only a raw-clean midpoint
        if raw_violated([mid])[0] or violated(mid):
            lo_mu = mid
        else:
            hi_mu = mid
    lam = 0.5 * (lo_mu + hi_mu)

    witness = violation(d, grids, lo_mu, e)[1]
    case = (TAG_ORTHOGONAL if abs(float(witness @ e) - lam) <= 10.0 * tol
            else TAG_TANGENCY)
    return CriticalPlaneResult(e=e, Lambda=lam_top, lam=lam, case_tag=case,
                               witness=witness, tol=tol)


def to_record(res: CriticalPlaneResult) -> dict:
    """JSON-ready record of a critical plane result."""
    return {
        "e": [float(v) for v in res.e],
        "Lambda": res.Lambda,
        "lambda": res.lam,
        "case": res.case_tag,
        "witness": None if res.witness is None else [float(v) for v in res.witness],
        "tol": res.tol,
    }
