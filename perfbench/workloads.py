"""The benchmark's workloads: which CLI invocations make up one operation,
and how the benchmark seed turns into program seeds.

Standard library only: this module is loaded before ``import fracshape``
and must not pull in numpy or scipy ahead of the package.

A workload is a closed loop of rounds.  A round is the workload's whole
grid, one operation per grid point, and a run always attempts whole rounds,
so the share of failed operations is the same in every run.  Round ``r`` of
benchmark seed ``seed`` gives the program the seed ``100 * seed + r`` (the
stretched-ball stability probe excepted, see ``PROBE_SEED``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One operation: a row of the workload's table, made of CLI calls."""

    key: tuple  # grid point, e.g. ("1e-3",) or ("0.5", "0.02")
    argvs: tuple  # one argv list per CLI call, without --out
    seed: int  # the round's program seed
    known_failure: str = ""  # non-empty: the fault this row is expected to hit


@dataclass(frozen=True)
class Workload:
    grid: tuple
    make_op: Callable = field(repr=False)  # (grid key, program seed) -> Op

    def round_ops(self, seed: int, r: int) -> list:
        return [self.make_op(key, program_seed(seed, r)) for key in self.grid]


def program_seed(seed: int, r: int) -> int:
    return 100 * seed + r


# ---------------------------------------------------------------------------
# bump-scan: the counterexample rows of the bump family (alpha = 2)

BUMP_EPS = ("1e-3", "3e-4", "1e-4", "3e-5", "1e-5")
BUMP_TOL = "1e-8"
BUMP_GAMMA = "0.2"  # the slab-measure default, repeated for the checks


def _bump_op(key, seed):
    (eps,) = key
    argv = ["slab-measure", "--domain", f"bump:{eps}", "--tol", BUMP_TOL,
            "--n", "200000", "--seed", str(seed)]
    return Op(key=key, argvs=(argv,), seed=seed)


# ---------------------------------------------------------------------------
# boundary-layer: the weighted boundary integral on bump domains, which have
# no exact signed distance and so go through the chart distance search

LAYER_EPS = ("1e-3", "3e-3", "1e-2")
LAYER_N = "4000"


def _layer_op(key, seed):
    (eps,) = key
    argv = ["boundary-integral", "--domain", f"bump:{eps}", "--n", LAYER_N,
            "--seed", str(seed)]
    return Op(key=key, argvs=(argv,), seed=seed)


# ---------------------------------------------------------------------------
# stretched-ball: one (s, eps) row of the ellipsoid family is a torsion check
# plus a one-row stability probe

BALL_ROWS = tuple((s, eps) for s in ("0.25", "0.5", "0.75")
                  for eps in ("0.02", "0.01", "0.005")) + (("0.5", "1e-9"),)
BALL_POINTS = "100"

# Rows whose seminorm carries no flag although roundoff has swamped the pair
# search (seminorm._pair_sup reports converged).
BALL_KNOWN_FAILURES = {
    ("0.25", "0.005"): "seminorm-false-converged",
    ("0.5", "1e-9"): "seminorm-false-converged",
}
# The same fault strikes other rows on some seeds only (row (0.75, 0.005) at
# program seed 700), so the stability probe runs at one fixed seed: its
# failures are then the two rows above, whatever the benchmark seed.  The
# torsion check keeps the cycled seed, which picks its quadrature points.
PROBE_SEED = "0"


def _ball_op(key, seed):
    s, eps = key
    torsion = ["torsion-check", "--domain", f"ellipsoid:{eps}", "--s", s,
               "--points", BALL_POINTS, "--seed", str(seed)]
    probe = ["stability-probe", "--s", s, "--eps", eps, "--seed", PROBE_SEED]
    return Op(key=key, argvs=(torsion, probe), seed=seed,
              known_failure=BALL_KNOWN_FAILURES.get(key, ""))


WORKLOADS = {
    "bump-scan": Workload(tuple((e,) for e in BUMP_EPS), _bump_op),
    "boundary-layer": Workload(tuple((e,) for e in LAYER_EPS), _layer_op),
    "stretched-ball": Workload(BALL_ROWS, _ball_op),
}
