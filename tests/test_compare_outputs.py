import argparse
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

from fracshape import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _listed_commands():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.commands()


def test_every_listed_command_passes_the_flag_validators():
    # what cli.main does before it runs a body, for each listed argv
    for argv in _listed_commands():
        args = argparse.Namespace()
        cli._build_parser().parse_args(argv, namespace=args)
        _, flags = cli._COMMANDS[args.command]
        cfg = cli._collect_config(args, flags)
        for key, (_, parse) in flags.items():
            parse(cfg.params[key], key)


def _up(x, k):
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


def _tree(root, value, cell, exit_code):
    slot = root / "00-constants"
    slot.mkdir(parents=True)
    (slot / "_stdout").write_text(json.dumps({"results": {"x": value, "tag": "a"},
                                              "rows": [1, 2.5]}))
    (slot / "_exit").write_text(f"{exit_code}\n")
    (slot / "t.csv").write_text(f"eps,value\n0.01,{cell!r}\n")
    (slot / "same.csv").write_text("a\n1\n")
    return root


def _diff(a, b):
    proc = subprocess.run([sys.executable, str(SCRIPT), "diff", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout.splitlines()


def test_diff_reports_each_moved_number_with_its_ulps(tmp_path):
    a = _tree(tmp_path / "a", 0.1, -1e-7, 0)
    assert _diff(a, _tree(tmp_path / "a2", 0.1, -1e-7, 0)) == (0, [])

    b = _tree(tmp_path / "b", _up(0.1, 3), _up(-1e-7, 1), 2)
    (b / "00-constants" / "extra.json").write_text("{}")
    assert _diff(a, b) == (1, [
        f"00-constants/extra.json: only in {b}",
        "00-constants/_exit: 0 -> 2",
        f"00-constants/_stdout: results.x: 0.1 -> {_up(0.1, 3)!r} (3 ulps)",
        f"00-constants/t.csv: row 1 col 1: -1e-07 -> {_up(-1e-7, 1)!r} (1 ulps)",
    ])
