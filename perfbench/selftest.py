"""Harness self-test: every workload's checks on a small grid, a check that
the checks reject a corrupted output, and a byte-identity check of one
config run twice.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil
import time
from pathlib import Path

from workloads import WORKLOADS


def _op(workload, key, seed=0):
    return WORKLOADS[workload].make_op(key, seed)


def _snapshot(cli, argv, out_dir):
    """Exit code, stdout and artifact bytes of one CLI call into a fresh directory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([*argv, "--out", str(out_dir)])
    files = {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}
    return rc, buf.getvalue(), files


def main(cli, out_root, run_round) -> int:
    import checks

    t0 = time.perf_counter()
    out_dir = Path(out_root) / "selftest"
    results = []

    def report(name, problems):
        results.append(not problems)
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"     {p}")

    # bump-scan on a three-point grid: per-row checks, the dense-reflection
    # lambda on the first row, and the slope fit
    bump = run_round(cli, [_op("bump-scan", (e,)) for e in ("1e-3", "1e-4", "1e-5")],
                     out_dir)
    failed, problems, _ = checks.check_run("bump-scan", [bump], seed=0)
    report("bump-scan checks", problems + ([f"{failed} failed"] if failed else []))
    bad = dataclasses.replace(bump[0], outputs=[_corrupt_slab(bump[0].outputs[0])])
    report("bump-scan check rejects a slab moved by 10 error bars",
           [] if checks.OP_CHECKS["bump-scan"](bad, {}) else ["corrupted slab passed"])

    layer = run_round(cli, [_op("boundary-layer", ("1e-2",))], out_dir)
    failed, problems, _ = checks.check_run("boundary-layer", [layer], seed=0)
    report("boundary-layer checks", problems + ([f"{failed} failed"] if failed else []))

    ball = run_round(cli, [_op("stretched-ball", key) for key in
                           (("0.5", "0.02"), ("0.5", "1e-9"))], out_dir)
    failed, problems, _ = checks.check_run("stretched-ball", [ball], seed=0)
    report("stretched-ball checks, with the known-failing row counted failed",
           problems + ([] if failed == 1 else [f"{failed} failed, expected 1"]))

    argv = ["stability-probe", "--s", "0.5", "--eps", "0.02,0.01,0.005", "--seed", "3"]
    first = _snapshot(cli, argv, out_dir)
    second = _snapshot(cli, argv, out_dir)
    report("same config gives the same stdout and artifact bytes",
           [] if first == second and first[0] == 0 and first[2]
           else ["stdout or artifacts differ between two runs of one config"])
    shutil.rmtree(out_dir, ignore_errors=True)

    elapsed = time.perf_counter() - t0
    report(f"self-test within a minute ({elapsed:.1f} s)", [] if elapsed < 60.0 else ["too slow"])
    return 0 if all(results) else 1


def _corrupt_slab(out):
    slab = dict(out["results"]["slab"])
    slab["value"] += 10.0 * slab["error"]
    return {**out, "results": {**out["results"], "slab": slab}}
