"""Checks of the program's outputs, run after the timed operations.

Each check compares an operation's output with a computation made apart
from the program (refs.py) or with a property the exact answer has.  A
check that fails marks the operation failed; an operation the workload
lists as a known failure is counted but does not make the run incorrect,
any other failure does.
"""

from __future__ import annotations

import math

import refs
from workloads import BUMP_GAMMA, BUMP_TOL, BALL_POINTS

# stretched-ball: |seminorm/eps - limit| <= SEMINORM_C * eps + SEMINORM_c unless
# the row carries the seminorm-unconverged flag.  The O(eps) term is the
# first-order drift of the ratio (about 0.3 eps on every clean row).
SEMINORM_C = 0.5
SEMINORM_c = 1e-3
TORSION_MAX_DEV = 1e-2
RHO_SHAPE_ABS = 1e-12
# bump-scan: slopes of lambda and slab against eps over the grid
SLOPE, SLOPE_TOL, MIN_R2 = 0.5, 0.05, 0.99


def _bump_op(res, cache):
    eps = float(res.op.key[0])
    plane = res.outputs[0]["results"]["plane"]
    slab = res.outputs[0]["results"]["slab"]
    lam = plane["lambda"]
    problems = []
    if plane["case"] != "internal-tangency":
        problems.append(f"case {plane['case']!r}, expected internal-tangency")
    if not lam >= math.sqrt(eps):
        problems.append(f"lambda {lam!r} below sqrt(eps) = {math.sqrt(eps)!r}")
    ref, qerr = refs.slab_column_integral(refs.Bump(eps), lam, float(BUMP_GAMMA))
    if abs(slab["value"] - ref) > slab["error"] + qerr:
        problems.append(f"slab {slab['value']!r} +- {slab['error']!r} misses the column "
                        f"integral {ref!r}")
    return problems


def bump_dense_lambda(res):
    """The plane offset against the brute-force dense-reflection bisection."""
    eps = float(res.op.key[0])
    lam = res.outputs[0]["results"]["plane"]["lambda"]
    tol = float(BUMP_TOL)
    ref = refs.dense_critical_lambda(refs.Bump(eps), tol / 100.0)
    if abs(lam - ref) > tol:
        return [f"lambda {lam!r} differs from the dense-reflection value {ref!r} "
                f"by more than tol {tol}"]
    return []


def bump_round(results):
    """log-log slopes of lambda and slab over one whole grid."""
    eps = [float(r.op.key[0]) for r in results]
    problems = []
    for name in ("lambda", "slab"):
        if name == "lambda":
            ys = [r.outputs[0]["results"]["plane"]["lambda"] for r in results]
        else:
            ys = [r.outputs[0]["results"]["slab"]["value"] for r in results]
        slope, r2 = refs.power_fit(eps, ys)
        if abs(slope - SLOPE) > SLOPE_TOL or r2 < MIN_R2:
            problems.append(f"{name} slope {slope:.4f} (r2 {r2:.5f}) outside "
                            f"{SLOPE} +- {SLOPE_TOL}, r2 >= {MIN_R2}")
    return problems


def _layer_op(res, cache):
    eps = float(res.op.key[0])
    if eps not in cache:
        cache[eps] = refs.boundary_layer_integral(refs.Bump(eps), 0.5)
    ref, qerr = cache[eps]
    out = res.outputs[0]["results"]
    if abs(out["value"] - ref) > out["error"] + qerr:
        return [f"boundary integral {out['value']!r} +- {out['error']!r} misses the "
                f"reference {ref!r}"]
    return []


def _ball_op(res, cache):
    s, eps = (float(v) for v in res.op.key)
    torsion = res.outputs[0]["results"]
    row = res.rows[1][0]  # the stability probe's single row
    problems = []
    if torsion["points"] != int(BALL_POINTS) or not torsion["max_abs_dev"] <= TORSION_MAX_DEV:
        problems.append(f"torsion residual {torsion['max_abs_dev']!r} over "
                        f"{torsion['points']} points")
    if abs(float(row["rho_shape"]) - eps) > RHO_SHAPE_ABS:
        problems.append(f"rho_shape {row['rho_shape']} differs from eps {eps!r}")
    ratio = float(row["seminorm"]) / eps
    limit = refs.seminorm_ratio_limit(s)
    bound = SEMINORM_C * eps + SEMINORM_c
    if row["flag"] != "seminorm-unconverged" and abs(ratio - limit) > bound:
        problems.append(f"seminorm ratio {ratio:.6g} is {ratio / limit:.4g}x the limit "
                        f"{limit:.6g} (allowed gap {bound:.3g}) without the "
                        "seminorm-unconverged flag")
    return problems


OP_CHECKS = {"bump-scan": _bump_op, "boundary-layer": _layer_op, "stretched-ball": _ball_op}


def check_run(workload: str, rounds, seed: int):
    """Check every operation of a run.

    Returns ``(failed, problems, mended)``: the number of operations that
    failed, the problems that make the run incorrect, and known-failure rows
    that passed.
    """
    failed, problems, mended, cache = 0, [], [], {}
    for r, results in enumerate(rounds):
        dense_at = seed % len(results) if (workload == "bump-scan" and r == 0) else None
        for i, res in enumerate(results):
            op_problems = list(res.errors)
            if not op_problems:
                op_problems = OP_CHECKS[workload](res, cache)
                if i == dense_at:
                    op_problems += bump_dense_lambda(res)
            if op_problems:
                failed += 1
                if not res.op.known_failure:
                    problems += [f"{workload} {res.op.key} seed {res.op.seed}: {p}"
                                 for p in op_problems]
            elif res.op.known_failure:
                mended.append(res.op.key)
        if workload == "bump-scan" and not any(res.errors for res in results):
            problems += [f"bump-scan round {r}: {p}" for p in bump_round(results)]
    return failed, problems, mended
