#!/usr/bin/env python3
"""Run a fixed list of CLI commands into a directory, and report what moved
between two such directories.

    python scripts/compare_outputs.py run DIR [--src PATH]
    python scripts/compare_outputs.py diff A B

``run`` executes each command in a fresh interpreter, in its own
subdirectory of DIR (so the artifacts land there under relative paths), and
keeps its stdout, stderr and exit code beside the artifacts in ``_stdout``,
``_stderr`` and ``_exit``.  ``--src`` is the ``src`` directory of the tree to
run (default: this tree's), so one script runs any two trees.  The list is
the nine subcommands at their default configs (``bump:1e-3`` where a domain
is required, ``--eps 0.01`` for ``seminorm-ratio``) plus the commands of the
three benchmark workloads at program seeds 0-2 (the stability probes run at
their fixed seed 0, so once), then the edge commands: the planes and slabs
of the ball and ellipsoid domains, whose support values and exact distances
no other command reaches, and a torsion check on ``ellipsoid:0.1`` whose
points (``--min-dist 0.85``) lie within about 0.15 of the centre, where the
root of the ellipse distance's foot equation sits closest to its pole.  New
commands are appended, so the numbered directories of the earlier ones keep
their names.

``diff`` prints every JSON leaf and CSV cell that differs, with its old and
new value and, for two floats, their distance in ulps; a file on one side
only, or a file that differs in some other way (other keys, another table
shape, bytes that are not JSON), is named.  It exits 1 when
any byte differs and 0 when the two directories are identical.

Bits depend on the numpy build and the CPU, so compare two trees on one
machine; this is a tool, not a test.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

STATE = [
    ["constants"],
    ["torsion-check"],
    ["seminorm-ratio", "--eps", "0.01"],
    ["critical-plane", "--domain", "bump:1e-3"],
    ["slab-measure", "--domain", "bump:1e-3"],
    ["boundary-integral", "--domain", "bump:1e-3"],
    ["counterexample-scan"],
    ["stability-probe"],
    ["lemma-check"],
]

# the benchmark workloads' commands (perfbench/workloads.py), copied so that
# a change to the benchmark does not change what this compares
BUMP_EPS = ("1e-3", "3e-4", "1e-4", "3e-5", "1e-5")
LAYER_EPS = ("1e-3", "3e-3", "1e-2")
BALL_ROWS = tuple((s, eps) for s in ("0.25", "0.5", "0.75")
                  for eps in ("0.02", "0.01", "0.005")) + (("0.5", "1e-9"),)
SEEDS = (0, 1, 2)

EDGE = [[cmd, "--domain", dom, "--e", e]
        for cmd in ("critical-plane", "slab-measure")
        for dom in ("ball", "ball:0.5", "ellipsoid:0.1")
        for e in ("1,0", "0,1", "0.6,0.8")] + [
    ["boundary-integral", "--domain", "ellipsoid:0.1", "--n", "20000"],
    ["torsion-check", "--domain", "ellipsoid:0.2", "--points", "40"],
    ["torsion-check", "--domain", "ellipsoid:0.1", "--points", "20", "--min-dist", "0.85"],
]


def commands() -> list:
    cmds = list(STATE)
    for seed in SEEDS:
        cmds += [["slab-measure", "--domain", f"bump:{eps}", "--tol", "1e-8",
                  "--n", "200000", "--seed", str(seed)] for eps in BUMP_EPS]
        cmds += [["boundary-integral", "--domain", f"bump:{eps}", "--n", "4000",
                  "--seed", str(seed)] for eps in LAYER_EPS]
        cmds += [["torsion-check", "--domain", f"ellipsoid:{eps}", "--s", s,
                  "--points", "100", "--seed", str(seed)] for s, eps in BALL_ROWS]
    cmds += [["stability-probe", "--s", s, "--eps", eps, "--seed", "0"]
             for s, eps in BALL_ROWS]
    return cmds + EDGE


def run(out: Path, src: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for i, argv in enumerate(commands()):
        slot = out / f"{i:02d}-{argv[0]}"
        slot.mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "fracshape.cli", *argv], cwd=slot,
                              env=env, capture_output=True)
        (slot / "_stdout").write_bytes(proc.stdout)
        (slot / "_stderr").write_bytes(proc.stderr)
        (slot / "_exit").write_text(f"{proc.returncode}\n")
        print(f"{slot.name}: exit {proc.returncode}: {' '.join(argv)}", file=sys.stderr)
    return 0


def ulps(a: float, b: float):
    """Distance of two floats in units in the last place (+0 and -0 are one
    point); None when either is NaN."""
    if a != a or b != b:
        return None

    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)

    return abs(key(a) - key(b))


def _leaves(node, path=""):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, node


def _cell(text):
    """A CSV cell as a number where it is one, else as its text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(path: Path, data: bytes):
    """A file's values: a CSV as ``{"row R col C": cell}``, else JSON."""
    text = data.decode()
    if path.suffix == ".csv":
        return {f"row {r} col {c}": _cell(x)
                for r, row in enumerate(csv.reader(io.StringIO(text))) for c, x in enumerate(row)}
    return json.loads(text) if text.strip() else {}


def _moved_values(old, new):
    """Yield ``(where, old, new)`` for every leaf that differs; raises
    ValueError when the two do not have the same leaves."""
    a, b = dict(_leaves(old)), dict(_leaves(new))
    if a.keys() != b.keys():
        raise ValueError("different keys: " + ", ".join(sorted(a.keys() ^ b.keys())))
    for k in a:
        if repr(a[k]) != repr(b[k]):  # NaN equals NaN; -0.0 and 0, 1 and 1.0 differ
            yield k, a[k], b[k]


def diff(a: Path, b: Path) -> int:
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    moved = 0
    for rel in sorted(files_a ^ files_b):
        print(f"{rel}: only in {a if rel in files_a else b}")
        moved += 1
    for rel in sorted(files_a & files_b):
        old, new = (a / rel).read_bytes(), (b / rel).read_bytes()
        if old == new:
            continue
        moved += 1
        try:
            changes = list(_moved_values(_parse(rel, old), _parse(rel, new)))
        except ValueError as exc:  # also not JSON, not UTF-8
            print(f"{rel}: bytes differ ({exc})")
            continue
        if not changes:
            print(f"{rel}: bytes differ, values equal")
        for where, x, y in changes:
            d = ulps(x, y) if isinstance(x, float) and isinstance(y, float) else None
            label = f"{rel}: {where}" if where else str(rel)
            print(f"{label}: {x!r} -> {y!r}" + ("" if d is None else f" ({d} ulps)"))
    print(f"{moved} of {len(files_a | files_b)} files differ", file=sys.stderr)
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run the fixed command list into DIR")
    p_run.add_argument("dir", type=Path)
    p_run.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                       help="src directory of the tree to run")
    p_diff = sub.add_parser("diff", help="report what moved from A to B")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return run(args.dir, args.src)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
