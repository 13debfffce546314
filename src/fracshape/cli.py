"""Command-line front end.

Every subcommand runs from a reproducible config: numeric flags are kept
as decimal strings and echoed verbatim into the JSON summary, artifact
file names derive from a content hash of {command, params, seed}, and
re-running the same config reproduces every output byte.  Failures print
a machine-readable JSON object ``{"error", "command"}`` on standard error
and exit with status 2 for invalid input (a bad flag, an unreadable file or
a ``ParameterDomainError`` from the library), 3 for a numerical failure (a
``ProjectionError``, for instance), or 4 for any other error, which is a
fault of the program.  A reader that closes standard output early (as
``| head`` does) ends the run with status 1 and no payload.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from pathlib import Path

import numpy as np

from .domains import ball, bump_domain, boundary_distance, ellipsoid
from .experiments import (config_hash, counterexample_scan, geometric_lemma_check,
                          stability_probe, write_table)
from .frlap import _INNER_RADIUS, frlap_eval, torsion_ball, torsion_ellipsoid
from .measures import boundary_weighted_integral, halton_points, slab_measure
from .movingplanes import critical_lambda, to_record
from .seminorm import OptimBudget, ellipsoid_ratio_limit, ellipsoid_seminorm
from .specfun import FracParams, ParameterDomainError, gamma_ns


class CliError(ValueError):
    """Invalid invocation; reported as JSON on stderr with exit code 2."""


# errors that mean invalid input (exit 2); any other ValueError is a fault
_INPUT_ERRORS = (CliError, OSError, ParameterDomainError)


@dataclass
class RunConfig:
    """One reproducible invocation: subcommand, decimal-string params, seed."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_path: str = "."


# subcommand -> (body, {flag: (default, parser)}), filled by @_command in
# the order the bodies are defined; a None default marks a required flag
_COMMANDS = {}


def _command(name, **flags):
    """Register a body; each keyword names a flag (``_`` spelled ``-``)."""
    def register(body):
        _COMMANDS[name] = (body, {k.replace("_", "-"): v for k, v in flags.items()})
        return body
    return register


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a token such as -1,0 or -.5,1 is a value, not an unknown option;
        # no flag starts with - and a digit
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # route argparse failures into the JSON path
        raise CliError(message)


@cache  # built at the first main call, not at import; parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="fracshape", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, description=f"run the {name} operation")
        for key, (default, _) in flags.items():
            sp.add_argument(f"--{key}", type=str, default=default)
        sp.add_argument("--config", type=str, default=None,
                        help="JSON RunConfig; its values override flags")
        sp.add_argument("--seed", type=str, default="0")
        sp.add_argument("--out", type=str, default=".",
                        help="directory for CSV/JSON artifacts")
    return parser


def _collect_config(args, flags) -> RunConfig:
    params = {}
    for key in flags:
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            params[key] = val
    cfg = RunConfig(command=args.command, params=params,
                    seed=_SEED(args.seed, "seed"),
                    output_path=args.out)
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CliError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise CliError("config must be a JSON object")
        unknown = set(raw) - {"command", "params", "seed", "output_path"}
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        if raw.get("command", args.command) != args.command:
            raise CliError(f"config command {raw.get('command')!r} does not match "
                           f"subcommand {args.command!r}")
        raw_params = raw.get("params", {})
        if not isinstance(raw_params, dict):
            raise CliError("config params must be a JSON object")
        extra = set(raw_params) - set(flags)
        if extra:
            raise CliError(f"config params not accepted by {args.command}: {sorted(extra)}")
        for k, v in raw_params.items():
            cfg.params[k] = v if isinstance(v, str) else str(v)
        if "seed" in raw:
            cfg.seed = _SEED(raw["seed"], "seed")
        if "output_path" in raw:
            cfg.output_path = str(raw["output_path"])
    missing = [k for k, (d, _) in flags.items() if d is None and k not in cfg.params]
    if missing:
        raise CliError(f"{args.command} requires --{missing[0]}")
    return cfg


# ---------------------------------------------------------------------------
# decimal-string parsing with range checks; a flag's parser takes the flag's
# text and its name


def _as_float(text, name, lo=None, hi=None, hi_open=True) -> float:
    try:
        v = float(str(text))
    except ValueError as exc:
        raise CliError(f"{name} is not a number: {text!r}") from exc
    if not np.isfinite(v):
        raise CliError(f"{name} must be finite, got {text!r}")
    if lo is not None and v <= lo:
        raise CliError(f"{name}={text} out of range (must be > {lo})")
    if hi is not None and (v >= hi if hi_open else v > hi):
        raise CliError(f"{name}={text} out of range (must be {'<' if hi_open else '<='} {hi})")
    return v


def _as_int(text, name, lo=1, hi=None) -> int:
    try:
        v = int(str(text), 10)
    except ValueError as exc:
        raise CliError(f"{name} is not an integer: {text!r}") from exc
    if lo is not None and v < lo:
        raise CliError(f"{name}={text} out of range (must be >= {lo})")
    if hi is not None and v > hi:
        raise CliError(f"{name}={text} out of range (must be <= {hi})")
    return v


def _as_list(text, name, item=_as_float) -> list:
    items = [t for t in str(text).split(",") if t.strip()]
    if not items:
        raise CliError(f"{name} must be a comma-separated list of numbers")
    return [item(t, name) for t in items]


# the ranges that several flags, or a flag and a domain string, share
_S = partial(_as_float, lo=0.0, hi=1.0)  # fractional order
_TOL = partial(_as_float, lo=0.0, hi=0.1)
_N = partial(_as_int, lo=100, hi=10**7)  # sample count; a run at the cap peaks under 1 GB
_N_PAIRS = partial(_as_int, lo=1000, hi=10**7)
_SEED = partial(_as_int, lo=0, hi=2**64 - 1)  # the scan phase takes it times a float
_GAMMA = partial(_as_float, lo=0.0, hi=0.25, hi_open=False)  # slab half-width
_ALPHA = partial(_as_float, lo=1.0)  # bump contact order
_HEIGHT = partial(_as_float, lo=0.0, hi=0.05, hi_open=False)  # bump height
_STRETCH = partial(_as_float, lo=0.0, hi=0.25)  # ellipsoid stretch


def _as_direction(text, name) -> np.ndarray:
    vals = _as_list(text, name)
    if len(vals) != 2:
        raise CliError(f"{name} must have two components, got {text!r}")
    # movingplanes._unit rejects a zero or non-finite norm
    return np.asarray(vals, dtype=float)


def _as_domain(text, name):
    """``(kind, parameters, domain)`` of a ``--domain`` string."""
    parts = str(text).split(":")
    kind = parts[0]
    if kind == "ball":
        if len(parts) > 2:
            raise CliError("ball domain is spelled ball or ball:R")
        # the scan's absolute violation threshold (1e-12) holds while level
        # rounding (about R * 1.1e-16) stays below it and the excess of a
        # reflected cap, which scales with R, rises above it
        r = _as_float(parts[1], "ball radius") if len(parts) > 1 else 1.0
        if not 1e-3 <= r <= 1e3:
            raise CliError(f"ball radius={parts[1]} out of range (must lie in [1e-3, 1e3])")
        return kind, (r,), ball(np.zeros(2), r)
    if kind == "ellipsoid":
        if len(parts) != 2:
            raise CliError("ellipsoid domain is spelled ellipsoid:EPS")
        eps = _STRETCH(parts[1], "ellipsoid stretch")
        return kind, (eps,), ellipsoid(eps)
    if kind == "bump":
        if len(parts) not in (2, 3):
            raise CliError("bump domain is spelled bump:EPS or bump:EPS:ALPHA")
        eps = _HEIGHT(parts[1], "bump height")
        alpha = _ALPHA(parts[2], "bump aspect") if len(parts) > 2 else 2.0
        return kind, (eps, alpha), bump_domain(eps, alpha)
    raise CliError(f"unknown domain {text!r} (ball[:R], ellipsoid:EPS, bump:EPS[:ALPHA])")


# ---------------------------------------------------------------------------
# subcommand bodies; each takes the parsed flags, returns its exit code and
# writes its JSON summary and any artifacts through _emit


def _emit(cfg: RunConfig, results: dict, rows=None):
    summary = {"command": cfg.command, "params": cfg.params, "seed": cfg.seed,
               "results": results}
    if rows is not None:
        stem = f"{cfg.command}-{config_hash({'command': cfg.command, 'params': cfg.params, 'seed': cfg.seed})}"
        out = Path(cfg.output_path)
        out.mkdir(parents=True, exist_ok=True)
        csv_path, json_path = out / f"{stem}.csv", out / f"{stem}.json"
        write_table(csv_path, rows)
        summary["artifacts"] = [str(csv_path), str(json_path)]
        json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


@_command("constants", n=("2", _as_int), s=("0.5", _S))
def _cmd_constants(cfg, n, s):
    p = FracParams(n, s)
    return _emit(cfg, {"n": n, "s": s, "gamma_ns": gamma_ns(p), "c_ns": p.c_ns})


_TORSION_DRAW = 65536  # Halton points torsion-check may draw


@_command("torsion-check", domain=("ball", _as_domain), s=("0.5", _S),
          points=("20", _as_int), min_dist=("0.2", partial(_as_float, lo=_INNER_RADIUS)))
def _cmd_torsion_check(cfg, domain, s, points, min_dist):
    p = FracParams(2, s)
    kind, args, dom = domain
    if kind == "ball":
        if args[0] != 1.0:
            raise CliError("torsion profile is defined on the unit ball")
        f = torsion_ball(p)
    elif kind == "ellipsoid":
        f = torsion_ellipsoid(p, args[0])
    else:
        raise CliError("torsion-check supports ball and ellipsoid:EPS domains")
    # the first `points` admissible points of the seed's 65,536-point stream;
    # the stream is filtered in growing pieces, since prefixes agree and the
    # filter is pointwise, and stops at the piece that completes them
    lo, hi = dom.bbox
    pts, drawn = np.empty((0, 2)), 0
    while len(pts) < points and drawn < _TORSION_DRAW:
        start, drawn = drawn, min(max(4 * drawn, 256), _TORSION_DRAW)
        cand = lo + (hi - lo) * halton_points(drawn, cfg.seed)[start:]
        cand = cand[dom.contains(cand)]
        pts = np.concatenate([pts, cand[boundary_distance(dom, cand) >= min_dist]])
    pts = pts[:points]
    if len(pts) < points:
        raise CliError(f"could not place {points} interior points at distance {min_dist}")
    res = frlap_eval(f, pts)
    rows = [{"x1": x[0], "x2": x[1], "value": value, "error": error, "converged": converged}
            for x, value, error, converged in zip(pts.tolist(), res.value.tolist(),
                                                  res.error.tolist(), res.converged.tolist())]
    # np.max, not max(): a NaN deviation must not read as the smaller value
    worst = float(np.max(np.abs(res.value - 1.0)))
    return _emit(cfg, {"points": len(rows), "max_abs_dev": worst}, rows=rows)


@_command("seminorm-ratio", s=("0.5", _S), eps=(None, _STRETCH),
          n_pairs=("100000", _N_PAIRS))
def _cmd_seminorm_ratio(cfg, s, eps, n_pairs):
    p = FracParams(2, s)
    res = ellipsoid_seminorm(p, eps, budget=OptimBudget(n_pairs=n_pairs, seed=cfg.seed))
    limit = ellipsoid_ratio_limit(p)
    ratio = res.value / eps
    return _emit(cfg, {"seminorm": res.value, "ratio": ratio, "limit": limit,
                       "rel_gap": abs(ratio - limit) / limit,
                       "converged": res.converged})


@_command("critical-plane", domain=(None, _as_domain), e=("1,0", _as_direction),
          tol=("1e-6", _TOL))
def _cmd_critical_plane(cfg, domain, e, tol):
    res = critical_lambda(domain[2], e, tol=tol, seed=cfg.seed)
    return _emit(cfg, {"plane": to_record(res)})


@_command("slab-measure", domain=(None, _as_domain), e=("1,0", _as_direction),
          gamma=("0.2", _GAMMA), tol=("1e-6", _TOL), n=("200000", _N))
def _cmd_slab_measure(cfg, domain, e, gamma, tol, n):
    dom = domain[2]
    res = critical_lambda(dom, e, tol=tol, seed=cfg.seed)
    est = slab_measure(dom, res, gamma, n, seed=cfg.seed)
    return _emit(cfg, {"plane": to_record(res), "slab": asdict(est)})


@_command("boundary-integral", domain=(None, _as_domain), s=("0.5", _S),
          n=("200000", _N))
def _cmd_boundary_integral(cfg, domain, s, n):
    return _emit(cfg, asdict(boundary_weighted_integral(domain[2], s, n, seed=cfg.seed)))


@_command("counterexample-scan", alpha=("2", _ALPHA),
          eps=("1e-3,3e-4,1e-4,3e-5,1e-5", partial(_as_list, item=_HEIGHT)),
          gamma=("0.2", _GAMMA), tol=("1e-8", _TOL), n=("200000", _N))
def _cmd_counterexample_scan(cfg, alpha, eps, gamma, tol, n):
    scan = counterexample_scan(alpha, eps, gamma, tol=tol, n_slab=n, seed=cfg.seed)
    return _emit(cfg, {"lambda_fit": asdict(scan.lambda_fit) if scan.lambda_fit else None,
                       "slab_fit": asdict(scan.slab_fit) if scan.slab_fit else None},
                 rows=scan.rows)


@_command("stability-probe", s=("0.5", _S),
          eps=("0.02,0.01,0.005", partial(_as_list, item=_STRETCH)),
          n_pairs=("100000", _N_PAIRS))
def _cmd_stability_probe(cfg, s, eps, n_pairs):
    p = FracParams(2, s)
    probe = stability_probe(p, eps, budget=OptimBudget(n_pairs=n_pairs, seed=cfg.seed))
    return _emit(cfg, {"fit": asdict(probe.fit) if probe.fit else None},
                 rows=probe.rows)


@_command("lemma-check", alpha=("2", _ALPHA),
          eps=("1e-3,1e-4,1e-5", partial(_as_list, item=_HEIGHT)),
          gamma=("0.2", partial(_as_list, item=_GAMMA)), tol=("1e-8", _TOL),
          n=("200000", _N))
def _cmd_lemma_check(cfg, alpha, eps, gamma, tol, n):
    rows = geometric_lemma_check(alpha, eps, gamma, tol=tol, n_slab=n, seed=cfg.seed)
    clean = [r for r in rows if not r["flag"]]
    results = {"rows": len(rows), "flagged": len(rows) - len(clean)}
    if clean:
        results["ratio_thm52_band"] = [min(r["ratio_thm52"] for r in clean),
                                       max(r["ratio_thm52"] for r in clean)]
    return _emit(cfg, results, rows=rows)


def main(argv=None) -> int:
    parser = _build_parser()
    # the subparser stores its name here before it parses, so a payload for
    # a flag that argparse rejects names the subcommand
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, namespace=args)
        if args.command is None:
            raise CliError(f"missing subcommand (one of {', '.join(_COMMANDS)})")
        body, flags = _COMMANDS[args.command]
        cfg = _collect_config(args, flags)
        values = {k.replace("-", "_"): parse(cfg.params[k], k)
                  for k, (_, parse) in flags.items()}
        code = body(cfg, **values)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the input was fine; the reader went away.  Point stdout at devnull
        # so the flush at exit cannot raise again (Python docs, "Note on
        # SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _INPUT_ERRORS as exc:
        error, code = exc, 2
    except RuntimeError as exc:  # ProjectionError and other numerical failures
        error, code = exc, 3
    except Exception as exc:
        error, code = exc, 4
    payload = {"error": str(error), "command": getattr(args, "command", None)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
