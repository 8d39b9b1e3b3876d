"""Layer tracing from outside the program.

The traced run replaces rwre's public functions with wrappers in every
module namespace that holds them.  A *span* wrapper records one span per
call (name, parent, process-CPU and wall start and end, the benchmark
operation it ran under, and a unit of work taken from the arguments or the
result); a *count* wrapper only counts calls, so that cheap helpers called
thousands of times do not carve up their callers' self time.  Spans stay in
memory until the run ends.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    tag: str
    cpu0: float
    wall0: float
    cpu1: float = 0.0
    wall1: float = 0.0
    work: float = 0.0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    tag: str = ""
    active: bool = False  # spans and counts are recorded only while set
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, name, fn, work=None):
        """Wrap ``fn`` so that every call records a span.

        ``work(arguments, result)`` returns the units of work of one call,
        with ``arguments`` the bound call arguments by parameter name.
        """
        sig = inspect.signature(fn) if work is not None else None
        spans, stack = self.spans, self._stack
        clock, wall = time.process_time, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(len(spans), name, stack[-1] if stack else None, self.tag,
                        clock(), wall())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu1, span.wall1 = clock(), wall()
                stack.pop()
            if work is not None:
                span.work = float(work(sig.bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    def count_wrapper(self, name, fn, add=None):
        """Wrap ``fn`` so that calls are counted; ``add(result)`` adds to
        a second counter named by the returned ``(key, amount)``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[name] += 1
            result = fn(*args, **kwargs)
            if add is not None:
                key, amount = add(result)
                counts[key] += amount
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` wherever a module of rwre
        holds it; returns how many bindings were replaced."""
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rwre" or mod_name.startswith("rwre.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    replaced += 1
        return replaced

    def install_method(self, cls, attr, wrapper):
        self._undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Self time per span.  Spans nest (one thread), so the part of a span
    covered by its children is the sum of the children's durations."""
    own = [s.cpu for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.cpu
    return own


def install_rwre(tracer: Tracer) -> None:
    """Wrap rwre's public functions named in the per-layer metric table."""
    from rwre import (_rng, branching, cli, envmodel, limitlaws, spectral, speed,
                      tails, walksim)

    def n_times(a, b):
        return lambda args, _res: args[a] * args[b]

    spans = [
        (cli.run, "cli.run", None),
        (envmodel.load_model, "envmodel.load_model", None),
        (envmodel.validate, "envmodel.validate", None),
        (_rng.derive_rng, "rng.derive_rng", None),
        (spectral.solve_kappa, "spectral.solve_kappa", None),
        (speed.compute_speed, "speed.compute_speed", None),
        (walksim.sample_environment, "walksim.sample_environment", None),
        (walksim.run_to_hit, "walksim.run_to_hit", lambda _a, rec: rec.steps),
        (walksim.annealed_hitting_sample, "walksim.blocks", n_times("n", "replicas")),
        (walksim.annealed_position_sample, "walksim.position",
         n_times("n_steps", "replicas")),
        (branching.sample_branching, "branching.sample_branching",
         lambda a, _r: a["horizon"]),
        (branching.regen_trace, "branching.regen_trace", None),
        (branching.block_products, "branching.block_products",
         lambda _a, res: len(res)),
        (branching.branch_population_sums, "branching.branch_population_sums", None),
        (branching.branching_vs_walk_check, "branching.branching_vs_walk_check", None),
        (tails.sample_perpetuity, "tails.sample_perpetuity",
         lambda a, _r: a["replicas"]),
        (tails.tilted_tail_sampler, "tails.tilted_tail_sampler", None),
        (tails.tail_report, "tails.tail_report", None),
        (limitlaws.stable_cdf, "limitlaws.stable_cdf", None),
        (limitlaws.fit_b, "limitlaws.fit_b", None),
        (limitlaws.fit_shift_b, "limitlaws.fit_shift_b", None),
        (limitlaws.transfer_T_to_X, "limitlaws.transfer_T_to_X", None),
        (limitlaws.limit_check_T, "limitlaws.limit_check_T", None),
        (limitlaws.limit_check_X, "limitlaws.limit_check_X", None),
    ]
    for fn, name, work in spans:
        if tracer.install(fn, tracer.span_wrapper(name, fn, work)) == 0:
            raise RuntimeError(f"no binding of {name} found to trace")

    counted = [
        (envmodel.stationary_distribution, "envmodel.stationary_distribution.calls", None),
        (envmodel.reverse_kernel, "envmodel.reverse_kernel.calls", None),
        (spectral.spectral_radius, "spectral.spectral_radius.calls",
         lambda res: ("spectral.power_iterations", res.iterations)),
        (spectral.lyapunov_exponent, "spectral.lyapunov_exponent.calls", None),
    ]
    for fn, name, add in counted:
        if tracer.install(fn, tracer.count_wrapper(name, fn, add)) == 0:
            raise RuntimeError(f"no binding of {name} found to count")
    for side in ("extend_left", "extend_right"):
        fn = getattr(walksim.EnvPath, side)
        tracer.install_method(walksim.EnvPath, side,
                              tracer.count_wrapper("walksim.window_extensions", fn))


def _group(pairs):
    """(calls, self CPU seconds, work) per span name over (span, self) pairs."""
    out: dict[str, list[float]] = {}
    for s, t in pairs:
        acc = out.setdefault(s.name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += t
        acc[2] += s.work
    return out


def layer_metrics(spans: list[Span], counts: Counter, stiff_tag: str = "stiff"):
    """Per-layer metric values, in the units of the benchmark's table.

    Unit costs are self time divided by the work units; a layer that the
    workload never calls reads 0."""
    pairs = list(zip(spans, self_times(spans)))
    g = _group(pairs)
    easy = _group(p for p in pairs if p[0].tag != stiff_tag)
    stiff = _group(p for p in pairs if p[0].tag == stiff_tag)

    def calls(name, grp=g):
        return grp.get(name, [0, 0.0, 0.0])[0]

    def self_s(name, grp=g):
        return grp.get(name, [0, 0.0, 0.0])[1]

    def per_call(name, scale, grp=g):
        c = calls(name, grp)
        return self_s(name, grp) * scale / c if c else 0.0

    def per_work(name, scale):
        w = g.get(name, [0, 0.0, 0.0])[2]
        return self_s(name) * scale / w if w else 0.0

    return {
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "envmodel.load_model.ms": (per_call("envmodel.load_model", 1e3), "ms"),
        "envmodel.validate.ms": (per_call("envmodel.validate", 1e3), "ms"),
        "envmodel.stationary_distribution.calls":
            (counts["envmodel.stationary_distribution.calls"], "count"),
        "envmodel.reverse_kernel.calls": (counts["envmodel.reverse_kernel.calls"], "count"),
        "rng.derive_rng.calls": (calls("rng.derive_rng"), "count"),
        "rng.derive_rng.us": (per_call("rng.derive_rng", 1e6), "us"),
        "spectral.solve_kappa.easy_ms": (per_call("spectral.solve_kappa", 1e3, easy), "ms"),
        "spectral.solve_kappa.stiff_s": (per_call("spectral.solve_kappa", 1.0, stiff), "s"),
        "spectral.spectral_radius.calls": (counts["spectral.spectral_radius.calls"], "count"),
        "spectral.lyapunov_exponent.calls":
            (counts["spectral.lyapunov_exponent.calls"], "count"),
        "spectral.power_iterations": (counts["spectral.power_iterations"], "count"),
        "speed.compute_speed.ms": (per_call("speed.compute_speed", 1e3), "ms"),
        "walksim.sample_environment.calls": (calls("walksim.sample_environment"), "count"),
        "walksim.sample_environment.us": (per_call("walksim.sample_environment", 1e6), "us"),
        "walksim.window_extensions": (counts["walksim.window_extensions"], "count"),
        "walksim.run_to_hit.steps": (int(g.get("walksim.run_to_hit", [0, 0, 0])[2]), "count"),
        "walksim.run_to_hit.ns_per_step": (per_work("walksim.run_to_hit", 1e9), "ns"),
        "walksim.blocks.ns_per_site_replica": (per_work("walksim.blocks", 1e9), "ns"),
        "walksim.position.ns_per_lane_step": (per_work("walksim.position", 1e9), "ns"),
        "branching.sample_branching.ns_per_generation":
            (per_work("branching.sample_branching", 1e9), "ns"),
        "branching.regen_trace.self_s": (self_s("branching.regen_trace"), "s"),
        "branching.branch_population_sums.self_s":
            (self_s("branching.branch_population_sums"), "s"),
        "branching.branching_vs_walk_check.self_s":
            (self_s("branching.branching_vs_walk_check"), "s"),
        "branching.block_products.blocks":
            (int(g.get("branching.block_products", [0, 0, 0])[2]), "count"),
        "branching.block_products.us_per_block":
            (per_work("branching.block_products", 1e6), "us"),
        "tails.sample_perpetuity.ns_per_sample":
            (per_work("tails.sample_perpetuity", 1e9), "ns"),
        "tails.tilted_tail_sampler.self_s": (self_s("tails.tilted_tail_sampler"), "s"),
        "tails.tail_report.self_s": (self_s("tails.tail_report"), "s"),
        "limitlaws.stable_cdf.calls": (calls("limitlaws.stable_cdf"), "count"),
        "limitlaws.stable_cdf.us": (per_call("limitlaws.stable_cdf", 1e6), "us"),
        "limitlaws.fit_b.self_s": (self_s("limitlaws.fit_b"), "s"),
        "limitlaws.fit_shift_b.self_s": (self_s("limitlaws.fit_shift_b"), "s"),
        "limitlaws.transfer_T_to_X.self_s": (self_s("limitlaws.transfer_T_to_X"), "s"),
        "limitlaws.limit_check_T.self_s": (self_s("limitlaws.limit_check_T"), "s"),
        "limitlaws.limit_check_X.self_s": (self_s("limitlaws.limit_check_X"), "s"),
    }
