"""Scripted exponent experiments.

Three scans tie the geometry, plane-sweep, and measure estimators
together: the stretched-ball stability probe (seminorm against ball
deviation), the bump-family critical-plane scaling, and the slab-measure
sharpness table.  Rows of a scan are independent and computed in grid
order.  The probe rows all search pairs with the budget's one seed.  Scan
row i and the plane of lemma row i sample at the derived seed seed + i, and
the slab of lemma row i at its j-th gamma at seed + 1000 i + j.  Re-running
a config reproduces the table byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domains import bump_domain, ellipsoid, radial_extremes
from .measures import slab_measure
from .movingplanes import TAG_UNRESOLVED, critical_lambda
from .seminorm import OptimBudget, ellipsoid_seminorm
from .specfun import FracParams, ParameterDomainError

# annulus widths (rho_shape, gap) at or below this are rounding residue
_ROUNDING_WIDTH = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law y = exp(intercept) * x**slope."""

    slope: float
    intercept: float
    r2: float
    points: tuple


def exponent_fit(points) -> Optional[FitResult]:
    """Fit a line through (log x, log y); no fit (None) below three distinct x.

    Two distinct x fit any data exactly (r2 would mean nothing); log x that
    coincide in floats leave no slope.  Coordinates must be positive.
    """
    pts = tuple((float(x), float(y)) for x, y in points)
    if len({x for x, _ in pts}) < 3:
        return None
    if not all(x > 0.0 and y > 0.0 for x, y in pts):
        raise ParameterDomainError("power-law fit needs strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    design = np.stack([lx, np.ones_like(lx)], axis=-1)
    (slope, intercept), _, rank, _ = np.linalg.lstsq(design, ly, rcond=None)
    if rank < 2:
        return None
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return FitResult(slope=float(slope), intercept=float(intercept), r2=r2, points=pts)


def config_hash(config: dict) -> str:
    """Short content hash of a JSON-serializable config, for artifact names."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def write_table(path, rows: Sequence[dict]) -> None:
    """CSV writer with repr-exact floats so identical runs share bytes; the
    columns are the keys of the first row, in its order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


# ---------------------------------------------------------------------------
# stretched-ball stability probe


@dataclass(frozen=True)
class ProbeResult:
    rows: tuple
    fit: Optional[FitResult]


def stability_probe(p: FracParams, eps_grid,
                    budget: Optional[OptimBudget] = None) -> ProbeResult:
    """Rows (eps, ball-deviation, boundary seminorm) over a stretch grid.

    The ball deviation ``rho_shape`` is the annulus width rho_e - rho_i about
    the origin, the stretched disk's centre.

    The fit regresses deviation on seminorm in log-log coordinates; slope
    near 1 is the linear-stability signature of this family.  Flagged rows
    (an unconverged seminorm, or ``shape-below-resolution``: ``rho_shape``
    at rounding level) stay out of it.
    """
    eps_list = [float(e) for e in eps_grid]
    if not eps_list:
        raise ParameterDomainError("empty stretch grid")
    rows = []
    for eps in eps_list:
        rho_i, rho_e = radial_extremes(ellipsoid(eps))
        sem = ellipsoid_seminorm(p, eps, budget=budget)
        flags = [] if sem.converged else ["seminorm-unconverged"]
        if rho_e - rho_i <= _ROUNDING_WIDTH:
            flags.append("shape-below-resolution")
        rows.append({"eps": eps, "rho_shape": rho_e - rho_i,
                     "seminorm": sem.value, "flag": "+".join(flags)})
    clean = [(r["seminorm"], r["rho_shape"]) for r in rows if not r["flag"]]
    return ProbeResult(rows=tuple(rows), fit=exponent_fit(clean))


# ---------------------------------------------------------------------------
# bump-family critical-plane scaling

_SWEEP = (1.0, 0.0)  # the bump breaks symmetry along the first axis


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    lambda_fit: Optional[FitResult]
    slab_fit: Optional[FitResult]


def _row_flags(res, tol: float):
    flags = []
    if res.case_tag == TAG_UNRESOLVED:
        flags.append("unresolved")
    if abs(res.lam) < 100.0 * tol:
        flags.append("lambda-below-resolution")
    return "+".join(flags)


def _bump_planes(alpha: float, eps_grid, tol: float, seed: int):
    """Yields (i, eps, bump domain, critical plane) row by row over a
    bump-height grid, the plane of row i swept at seed + i."""
    eps_list = [float(e) for e in eps_grid]
    if not eps_list:
        raise ParameterDomainError("empty bump-height grid")
    for i, eps in enumerate(eps_list):
        dom = bump_domain(eps, alpha)
        yield i, eps, dom, critical_lambda(dom, _SWEEP, tol=tol, seed=seed + i)


def counterexample_scan(alpha: float, eps_grid, gamma: float, tol: float = 1e-8,
                        n_slab: int = 200_000, seed: int = 0) -> ScanResult:
    """Critical plane offset and slab measure of the bump family vs eps.

    Both columns should scale like eps**(1 - 1/alpha).  Rows whose plane
    offset falls within 100x of the sweep tolerance are flagged and kept
    out of the fits.
    """
    rows = []
    for i, eps, dom, res in _bump_planes(alpha, eps_grid, tol, seed):
        est = slab_measure(dom, res, float(gamma), n_slab, seed=seed + i)
        rows.append({"eps": eps, "lam": res.lam, "slab": est.value,
                     "slab_err": est.error, "case": res.case_tag,
                     "flag": _row_flags(res, tol)})
    clean = [r for r in rows
             if not r["flag"] and r["lam"] > 0.0 and r["slab"] > 0.0]
    return ScanResult(rows=tuple(rows),
                      lambda_fit=exponent_fit([(r["eps"], r["lam"]) for r in clean]),
                      slab_fit=exponent_fit([(r["eps"], r["slab"]) for r in clean]))


# ---------------------------------------------------------------------------
# slab-measure sharpness table


def geometric_lemma_check(alpha: float, eps_grid, gamma_grid, tol: float = 1e-8,
                          n_slab: int = 200_000, seed: int = 0) -> tuple:
    """Slab measure against three candidate denominators on the bump family,
    one row dict per (eps, gamma) pair, eps outer.

    ``gap`` is the annulus width rho_e - rho_i about the construction's
    center (the origin), the sandwich the sharpness statements are phrased
    in.  ``ratio_thm52`` divides by gamma * gap**(1 - 1/alpha) and should
    stay in a bounded band; ``ratio_lem53`` divides by
    gamma * (gap + gamma*|lam|); ``ratio_linear`` divides by gamma * gap
    and is the one that blows up as eps -> 0.  A degenerate row (gap at
    rounding level, or a gamma so small that a denominator underflows to
    zero) is flagged ``skip`` with NaN ratios.
    """
    alphaf = float(alpha)
    gamma_list = [float(g) for g in gamma_grid]
    if not gamma_list or not all(0.0 < g <= 0.25 for g in gamma_list):
        raise ParameterDomainError("slab grid must lie inside (0, 1/4]")
    rows = []
    for i, eps, dom, res in _bump_planes(alpha, eps_grid, tol, seed):
        rho_i, rho_e = radial_extremes(dom)
        gap = rho_e - rho_i
        for j, g in enumerate(gamma_list):
            est = slab_measure(dom, res, g, n_slab, seed=seed + 1000 * i + j)
            row = {"eps": eps, "gamma": g, "lam": res.lam, "gap": gap,
                   "slab": est.value, "slab_err": est.error}
            dens = None
            if gap > _ROUNDING_WIDTH:
                dens = (g * gap ** (1.0 - 1.0 / alphaf), g * (gap + g * abs(res.lam)),
                        g * gap)
            if dens is None or 0.0 in dens:
                row.update(ratio_thm52=float("nan"), ratio_lem53=float("nan"),
                           ratio_linear=float("nan"), flag="skip")
            else:
                row.update(ratio_thm52=est.value / dens[0], ratio_lem53=est.value / dens[1],
                           ratio_linear=est.value / dens[2], flag=_row_flags(res, tol))
            rows.append(row)
    return tuple(rows)
