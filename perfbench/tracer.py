"""Per-layer tracing by wrapping fracshape's public functions from outside.

Each hook names a function by its defining module.  Installing it replaces
that function object wherever a ``fracshape`` module has bound it (the
defining module and every module that imported the name), so calls through
any of those names are seen.  A hook whose target no longer exists is
recorded as absent.  Spans keep a stack: a span's time excludes the work
the tracer itself adds inside it, and its self time excludes the spans
nested in it.  A call nested in a call of the same group is not counted
again (``golden_min`` runs ``golden_max``).
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict

# (group, defining module, function name)
HOOKS = (
    ("cli.main", "fracshape.cli", "main"),
    ("experiments.stability_probe", "fracshape.experiments", "stability_probe"),
    ("movingplanes.critical_lambda", "fracshape.movingplanes", "critical_lambda"),
    ("movingplanes.violation", "fracshape.movingplanes", "violation"),
    ("movingplanes.support_value", "fracshape.movingplanes", "support_value"),
    ("measures.slab_measure", "fracshape.measures", "slab_measure"),
    ("measures.boundary_weighted_integral", "fracshape.measures", "boundary_weighted_integral"),
    ("measures.halton_points", "fracshape.measures", "halton_points"),
    ("domains.boundary_distance", "fracshape.domains", "boundary_distance"),
    ("domains.shape_metrics", "fracshape.domains", "shape_metrics"),
    ("domains.radial_extremes", "fracshape.domains", "radial_extremes"),
    ("frlap.frlap_eval", "fracshape.frlap", "frlap_eval"),
    ("seminorm.ellipsoid_seminorm", "fracshape.seminorm", "ellipsoid_seminorm"),
    ("optim.golden", "fracshape.optim", "golden_max"),
    ("optim.golden", "fracshape.optim", "golden_min"),
    ("optim.coordinate_descent", "fracshape.optim", "coordinate_descent"),
)

# the scan's own threshold when the module no longer states one
_DEFAULT_VIOLATION_EPS = 1e-12


class _Frame:
    __slots__ = ("t0", "child", "excluded")

    def __init__(self):
        self.t0 = time.perf_counter()
        self.child = 0.0
        self.excluded = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self.absent = []
        self._stack = []
        self._active = defaultdict(int)
        self._patched = []
        self._largest_distance_call = None

    # -- installation -----------------------------------------------------

    def install(self):
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fracshape" or name.startswith("fracshape."))]
        for group, modname, fname in HOOKS:
            target = getattr(sys.modules.get(modname), fname, None)
            if not callable(target):
                self.absent.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(group, fname, target)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is target:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, target))

    def uninstall(self):
        for mod, attr, target in reversed(self._patched):
            setattr(mod, attr, target)
        self._patched.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self):
        frame = _Frame()
        self._stack.append(frame)
        return frame

    def _exit(self, group, frame):
        dur = time.perf_counter() - frame.t0 - frame.excluded
        self._stack.pop()
        self.stats[group + ".calls"] += 1
        self.stats[group + ".s"] += dur
        self.stats[group + ".self_s"] += dur - frame.child
        if self._stack:
            parent = self._stack[-1]
            parent.child += dur
            parent.excluded += frame.excluded

    def _counted(self, key, fn):
        stats = self.stats

        def counted(*a, **k):
            stats[key] += 1
            return fn(*a, **k)
        return counted

    def _wrap(self, group, fname, target):
        tracer = self
        special = {"violation": self._violation, "boundary_distance": self._distance}
        if fname in ("golden_max", "golden_min", "coordinate_descent"):
            around = self._fn_evals
        else:
            around = special.get(fname)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if tracer._active[group]:
                return target(*args, **kwargs)
            tracer._active[group] += 1
            frame = tracer._enter()
            try:
                if around is None:
                    return target(*args, **kwargs)
                return around(group, target, frame, args, kwargs)
            finally:
                tracer._exit(group, frame)
                tracer._active[group] -= 1
        return wrapper

    # -- hooks with extra accounting -------------------------------------

    def _fn_evals(self, group, target, frame, args, kwargs):
        fn = self._counted(group + ".fn_evals", args[0])
        return target(fn, *args[1:], **kwargs)

    def _violation(self, group, target, frame, args, kwargs):
        """Refined calls are timed apart; each is shadowed by an unrefined call
        at the same offset (tracer work, excluded from every enclosing span)
        whose inside/outside verdict is compared with the refined one."""
        refine = kwargs.get("refine", args[4] if len(args) > 4 else True)
        t0 = time.perf_counter()
        out = target(*args, **kwargs)
        dur = time.perf_counter() - t0
        if not refine:
            self.stats["violation.raw_calls"] += 1
            self.stats["violation.raw_s"] += dur
            return out
        self.stats["violation.refined_calls"] += 1
        self.stats["violation.refined_s"] += dur
        mod = sys.modules["fracshape.movingplanes"]
        eps = getattr(mod, "_VIOLATION_EPS", _DEFAULT_VIOLATION_EPS)
        d, grids, mu, e = args[:4]
        t0 = time.perf_counter()
        raw = target(d, grids, mu, e, refine=False)
        shadow = time.perf_counter() - t0
        self.stats["violation.raw_calls"] += 1
        self.stats["violation.raw_s"] += shadow
        frame.excluded += shadow
        if (out[0] > eps) != (raw[0] > eps):
            self.stats["violation.verdict_changes"] += 1
        return out

    def _distance(self, group, target, frame, args, kwargs):
        x = args[1] if len(args) > 1 else kwargs["x"]
        shape = getattr(x, "shape", ())
        points = 1
        for n in shape[:-1]:
            points *= n
        self.stats[group + ".points"] += points
        if self._largest_distance_call is None or points > self._largest_distance_call[0]:
            self._largest_distance_call = (points, target, args, kwargs)
        return target(*args, **kwargs)

    def distance_peak_alloc_mb(self):
        """Peak traced allocation of the largest boundary_distance call, replayed
        under tracemalloc once the timed work is over."""
        if self._largest_distance_call is None:
            return 0.0
        _, target, args, kwargs = self._largest_distance_call
        tracemalloc.start()
        try:
            target(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2.0**20


def import_times(src_dir, env):
    """Cumulative import time of fracshape and scipy.stats (s) in a fresh
    interpreter, from ``-X importtime``."""
    code = f"import sys; sys.path.insert(0, {str(src_dir)!r}); import fracshape"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return cumulative.get("fracshape", 0.0), cumulative.get("scipy.stats", 0.0)


def layer_metrics(tracer, untraced_solve_s, traced_solve_s, import_s):
    """Per-layer metrics, one entry per name in BENCHMARK.json's per_layer."""
    st = tracer.stats
    crit_s = st["movingplanes.critical_lambda.s"]
    refined = st["violation.refined_calls"]
    points = st["domains.boundary_distance.points"]
    frlap_calls = st["frlap.frlap_eval.calls"]

    def per(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {
        "import.fracshape_s": (import_s[0], "s"),
        "import.scipy_stats_s": (import_s[1], "s"),
        "cli.main_self_s": (st["cli.main.self_s"], "s"),
        "experiments.stability_probe_self_s": (st["experiments.stability_probe.self_s"], "s"),
        "movingplanes.critical_lambda_calls": (st["movingplanes.critical_lambda.calls"], "count"),
        "movingplanes.critical_lambda_s": (crit_s, "s"),
        "movingplanes.violation_calls": (st["movingplanes.violation.calls"], "count"),
        "movingplanes.violation_refined_calls": (refined, "count"),
        "movingplanes.violation_refined_s": (st["violation.refined_s"], "s"),
        "movingplanes.violation_raw_s": (st["violation.raw_s"], "s"),
        "movingplanes.violation_refined_share_pct":
            (per(st["violation.refined_s"], crit_s, 100.0), "%"),
        "movingplanes.refine_verdict_changes": (st["violation.verdict_changes"], "count"),
        "movingplanes.refine_useful_ratio": (per(st["violation.verdict_changes"], refined), "ratio"),
        "movingplanes.support_value_s": (st["movingplanes.support_value.s"], "s"),
        "optim.golden_calls": (st["optim.golden.calls"], "count"),
        "optim.golden_fn_evals": (st["optim.golden.fn_evals"], "count"),
        "optim.golden_s": (st["optim.golden.s"], "s"),
        "optim.coordinate_descent_fn_evals": (st["optim.coordinate_descent.fn_evals"], "count"),
        "optim.coordinate_descent_s": (st["optim.coordinate_descent.s"], "s"),
        "domains.boundary_distance_calls": (st["domains.boundary_distance.calls"], "count"),
        "domains.boundary_distance_points": (points, "count"),
        "domains.boundary_distance_s": (st["domains.boundary_distance.s"], "s"),
        "domains.boundary_distance_us_per_point":
            (per(st["domains.boundary_distance.s"], points, 1e6), "us"),
        "domains.boundary_distance_peak_alloc_mb": (tracer.distance_peak_alloc_mb(), "MB"),
        "domains.shape_metrics_s": (st["domains.shape_metrics.s"], "s"),
        "domains.radial_extremes_s": (st["domains.radial_extremes.s"], "s"),
        "measures.halton_points_calls": (st["measures.halton_points.calls"], "count"),
        "measures.halton_points_s": (st["measures.halton_points.s"], "s"),
        "measures.slab_measure_s": (st["measures.slab_measure.s"], "s"),
        "measures.boundary_weighted_integral_self_s":
            (st["measures.boundary_weighted_integral.self_s"], "s"),
        "frlap.frlap_eval_calls": (frlap_calls, "count"),
        "frlap.frlap_eval_s": (st["frlap.frlap_eval.s"], "s"),
        "frlap.frlap_eval_ms_per_call": (per(st["frlap.frlap_eval.s"], frlap_calls, 1e3), "ms"),
        "seminorm.ellipsoid_seminorm_calls": (st["seminorm.ellipsoid_seminorm.calls"], "count"),
        "seminorm.ellipsoid_seminorm_s": (st["seminorm.ellipsoid_seminorm.s"], "s"),
        "trace.overhead_s": (traced_solve_s - untraced_solve_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
