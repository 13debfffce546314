#!/usr/bin/env python3
"""Benchmark of fracshape's three exponent experiments.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bump-scan --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --selftest

Each operation is a fracshape CLI subcommand called in-process through
``fracshape.cli.main``, one after another in this process, with stdout
captured and ``--out`` pointed at a scratch directory.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See README.md for the workloads, metrics and checks.
"""

import os

# BLAS pools are pinned to one thread before numpy can load: every operation
# is single-threaded, and the machine's second core stays free for the rest.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3


class SetupError(RuntimeError):
    """The checkout holds no fracshape package to benchmark."""


@dataclass
class OpResult:
    op: object
    seconds: float
    outputs: list  # parsed stdout of each CLI call
    rows: list  # per CLI call, the rows of the CSV artifact it wrote
    errors: list  # non-empty: the operation did not complete


# ---------------------------------------------------------------------------
# set-up: everything between interpreter start and the first operation


def load_cli():
    if not (SRC / "fracshape" / "__init__.py").is_file():
        raise SetupError(f"no fracshape package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fracshape.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "fracshape").resolve():
        raise SetupError(f"imported fracshape from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed):
    cli = load_cli()
    return cli, WORKLOADS[workload].round_ops(seed, 0)


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter running exactly this script's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


# ---------------------------------------------------------------------------
# timed operations


def run_op(cli, op, out_dir):
    captured = []
    t0 = time.perf_counter()
    for argv in op.argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main([*argv, "--out", str(out_dir)])
        except Exception as exc:  # a program fault fails the operation, not the run
            traceback.print_exc()
            rc = f"{type(exc).__name__}: {exc}"
        captured.append((argv[0], rc, buf.getvalue()))
    seconds = time.perf_counter() - t0
    outputs, rows, errors = [], [], []
    for command, rc, text in captured:
        if rc != 0:
            errors.append(f"{command} ended with {rc!r}")
            continue
        out = json.loads(text)
        outputs.append(out)
        table = []
        for path in out.get("artifacts", []):
            if path.endswith(".csv"):
                with open(path, newline="") as fh:
                    table = list(csv.DictReader(fh))
        rows.append(table)
    return OpResult(op, seconds, outputs, rows, errors)


def run_round(cli, ops, out_dir):
    return [run_op(cli, op, out_dir) for op in ops]


def run_rounds(cli, workload, seed, seconds, first, out_dir):
    """Whole rounds until ``seconds`` have passed."""
    rounds, ops = [], first
    t_start = time.perf_counter()
    while True:
        rounds.append(run_round(cli, ops, out_dir))
        if time.perf_counter() - t_start >= seconds:
            return rounds
        ops = WORKLOADS[workload].round_ops(seed, len(rounds))


def round_seconds(results):
    return sum(r.seconds for r in results)


# ---------------------------------------------------------------------------
# modes


def check(workload, rounds, seed):
    import checks  # loads numpy and scipy: only once the timed work is over
    failed, problems, mended = checks.check_run(workload, rounds, seed)
    for key in mended:
        print(f"known-failure row {key} passed its checks: the fault looks mended")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return failed, not problems


def measure(workload, seed, seconds):
    cli, first = setup(workload, seed)
    setup_s = statistics.median(probe_setup(workload, seed) for _ in range(SETUP_PROBES))
    out_dir = OUT / f"run-{os.getpid()}"
    try:
        rounds = run_rounds(cli, workload, seed, seconds, first, out_dir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    per_round = [round_seconds(rnd) for rnd in rounds]
    print(f"{workload}: {len(rounds)} round(s) of {len(first)} operations, "
          f"round seconds {[round(s, 3) for s in per_round]}")
    failed, correct = check(workload, rounds, seed)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (statistics.median(per_round), "s"),
        "op_p50_s": (statistics.median(r.seconds for rnd in rounds for r in rnd), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return correct, sum(len(rnd) for rnd in rounds), failed, {
        k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure_traced(workload, seed):
    """One round twice over, each operation run untraced and then traced right
    after it, so that the two times of a pair see the same machine speed."""
    import tracer
    cli, first = setup(workload, seed)
    out_dir = OUT / f"run-{os.getpid()}"
    tr = tracer.Tracer()
    untraced, traced = [], []
    try:
        for op in first:
            untraced.append(run_op(cli, op, out_dir))
            tr.install()
            try:
                traced.append(run_op(cli, op, out_dir))
            finally:
                tr.uninstall()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed, correct = check(workload, [untraced, traced], seed)
    metrics = tracer.layer_metrics(tr, round_seconds(untraced), round_seconds(traced),
                                   tracer.import_times(SRC, os.environ.copy()))
    if metrics["movingplanes.critical_lambda_calls"]["value"]:
        share = metrics["movingplanes.violation_refined_share_pct"]["value"]
        print(f"{workload}: refined violation calls take {share:.1f}% of critical_lambda time")
    if tr.absent:
        print(f"absent hooks (reported as 0): {', '.join(tr.absent)}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "metrics": metrics, "absent": tr.absent,
         "stats": dict(tr.stats)}, sort_keys=True, indent=2) + "\n")
    return correct, len(untraced) + len(traced), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload's checks on a small grid (under a minute)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed)
            print(repr(time.monotonic()))
            return 0
        if args.selftest:
            import selftest
            return selftest.main(load_cli(), OUT, run_round)
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            correct, attempted, failed, metrics = measure_traced(args.workload, args.seed)
        else:
            correct, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
