"""Configuration-driven command line: one subcommand per analysis surface.

Every run is a pure function of ``(model file, flags, seed)``; ``--threads``
is accepted and ignored.  Human-readable summaries go to standard output and
machine-readable CSV (header row, data rows, one trailing metadata comment
with the config hash and seed) goes to ``--out``.  The ``RWRE_LOG``
environment variable controls stderr verbosity only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import logging
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import branching, envmodel, limitlaws, spectral, tails, walksim
from . import speed as speedmod
from ._rng import derive_rng
from .errors import ModelError, NumericalError

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64
_DUMP_CHUNK = 1 << 16  # samples formatted per write of `tails --dump`

log = logging.getLogger("rwre")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _configure_logging():
    level = os.environ.get("RWRE_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _config_hash(path: str, params: dict) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    h.update(repr(sorted(params.items())).encode())
    return h.hexdigest()[:16]


def _write_csv(path, header, rows, conf_hash, seed):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)
        fh.write(f"# config_hash={conf_hash} seed={seed}\n")
    log.info("wrote %s (%d rows)", path, len(rows))


def _write_samples(path, samples, conf_hash, seed):
    """``_write_csv(path, ["value"], [(f"{v:.17g}",) ...])``, byte for byte,
    written as formatted chunks instead of one ``writerow`` per sample."""
    with open(path, "w", newline="") as fh:
        fh.write("value\r\n")  # csv.writer's line terminator
        for k in range(0, len(samples), _DUMP_CHUNK):
            chunk = samples[k:k + _DUMP_CHUNK].tolist()
            fh.write(("%.17g\r\n" * len(chunk)) % tuple(chunk))
        fh.write(f"# config_hash={conf_hash} seed={seed}\n")
    log.info("wrote %s (%d rows)", path, len(samples))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rwre", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--config", required=True, help="model file (TOML)")
        sp.add_argument("--seed", type=int, default=0, help="64-bit master seed")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; runs are single-threaded")
        if out:
            sp.add_argument("--out", help="CSV output path")

    sp = sub.add_parser("validate", help="run all model assumption checks")
    common(sp, out=False)

    sp = sub.add_parser("kappa", help="tail index and tilt-exponent curve")
    common(sp)

    sp = sub.add_parser("speed", help="asymptotic speed and crossing profile")
    common(sp, out=False)
    sp.add_argument("--r-samples", help="file of series samples for the cross-check")

    sp = sub.add_parser("simulate-walk", help="annealed hitting-time replicas")
    common(sp)
    sp.add_argument("--n", type=int, required=True, help="target site")
    sp.add_argument("--replicas", type=int, default=100)
    sp.add_argument("--step-cap", type=int, default=walksim.DEFAULT_STEP_CAP)

    sp = sub.add_parser("simulate-branching", help="regeneration block statistics")
    common(sp)
    sp.add_argument("--n", type=int, required=True, help="horizon (generations)")

    sp = sub.add_parser("tails", help="series sampling and tail diagnostics")
    common(sp)
    sp.add_argument("--samples", type=int, default=100_000, help="series draws")
    sp.add_argument("--tol", type=float, default=tails.DEFAULT_TOL)
    sp.add_argument("--top-fraction", type=float, default=0.01)
    sp.add_argument("--threshold", type=float, help="tail probability target")
    sp.add_argument("--dump", action="store_true", help="also dump raw samples")

    sp = sub.add_parser("limit-check", help="stable limit-law verification")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--replicas", type=int, default=2000)
    sp.add_argument("--side", choices=["T", "X", "both"], default="T")
    sp.add_argument("--step-cap", type=int, default=None)
    return p


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    spec = envmodel.load_model(args.config)
    rep = envmodel.validate(spec)
    print(f"states:             {len(spec.states)} {list(spec.states)}")
    print(f"irreducible:        {rep.irreducible}")
    if not rep.irreducible:
        print(f"components:         {rep.components}")
        print("FAIL: chain is reducible")
        return EXIT_MODEL
    print(f"ellipticity margin: {rep.ellipticity_margin:.6g} (declared {spec.epsilon:g})")
    print(f"drift E[log rho]:   {rep.drift:.6g} nats")
    print(f"moment witnesses:   negative at beta={rep.a3_negative_beta}, "
          f"nonnegative at beta={rep.a3_nonnegative_beta}")
    span = rep.arithmetic_span
    if span.arithmetic:
        print(f"lattice structure:  arithmetic, span {span.alpha:.12g} "
              f"(limit-law constants oscillate; prefer non-arithmetic models)")
    else:
        print("lattice structure:  non-arithmetic")
    if rep.drift >= 0:
        print("FAIL: drift is nonnegative, walk is not transient to the right")
        return EXIT_MODEL
    print("OK")
    return EXIT_OK


def _cmd_kappa(args) -> int:
    spec = envmodel.load_model(args.config)
    rep = spectral.solve_kappa(spec)
    print(f"kappa = {rep.kappa:.12f}")
    print(f"perron vector (f): {np.array2string(rep.f_kappa, precision=12)}")
    print(f"residual kernel radius at kappa: {rep.theta_kappa_radius:.12g} "
          f"(margin {rep.theta_margin:.3g})")
    if args.out:
        rows = [
            (f"{b:.10g}", f"{l:.15g}", f"{r:.15g}")
            for b, l, r in zip(rep.beta_grid, rep.lambdas, rep.radii)
        ]
        _write_csv(args.out, ["beta", "lambda", "radius"], rows,
                   _config_hash(args.config, {}), args.seed)
    return EXIT_OK


def _cmd_speed(args) -> int:
    spec = envmodel.load_model(args.config)
    rep = speedmod.compute_speed(spec)
    print(f"kappa = {rep.kappa:.12g}")
    print(f"speed = {rep.v:.12g}")
    if rep.ballistic:
        print(f"inverse speed = {rep.inverse_speed:.12g}")
        print(f"crossing profile = {np.array2string(rep.profile, precision=12)}")
    if args.r_samples:
        samples = np.loadtxt(args.r_samples, ndmin=1)
        chk = speedmod.cross_check(rep, samples)
        print(f"cross-check: 2*mean(series)-1 = {chk.series_estimate:.6g} "
              f"vs {chk.inverse_speed:.6g} (z = {chk.z_score:.2f}) -> "
              f"{'consistent' if chk.consistent else 'INCONSISTENT'}")
    return EXIT_OK


def _cmd_simulate_walk(args) -> int:
    spec = envmodel.load_model(args.config)
    walks = walksim.reference_walks(spec, args.n, args.replicas, args.seed, args.step_cap)
    # a walk stops on the step that hits n, so steps is also the hitting time
    rows = [(idx, rec.steps, rec.steps, int(rec.censored)) for idx, rec in enumerate(walks)]
    values = np.array([r[1] for r in rows], dtype=float)
    censored = np.array([r[3] for r in rows], dtype=bool)
    done = values[~censored]
    print(f"replicas: {args.replicas}, censored: {int(censored.sum())}")
    if done.size:
        print(f"mean hitting time: {done.mean():.6g} (T/n = {done.mean() / args.n:.6g})")
    if args.out:
        _write_csv(args.out, ["replica", "hitting_time", "steps", "censored"], rows,
                   _config_hash(args.config, {"n": args.n, "replicas": args.replicas,
                                              "step_cap": args.step_cap}), args.seed)
    return EXIT_OK


def _cmd_simulate_branching(args) -> int:
    spec = envmodel.load_model(args.config)
    rng = derive_rng(args.seed, 0)
    path = branching.sample_branching(spec, args.n, rng)
    trace = branching.regen_trace(path, regen_state=0, coin=0.5, rng=rng)
    logr = np.log(spec.rho)[path.states]
    blocks = branching.block_products(logr, trace.joint)
    gaps = np.diff(trace.joint)
    print(f"generations: {args.n}, joint regeneration blocks: {len(gaps)}")
    if len(gaps):
        print(f"mean gap: {gaps.mean():.4g}, mean block population: "
              f"{trace.joint_blocks.mean():.4g}")
    if args.out:
        columns = zip(gaps.tolist(), trace.joint_blocks.tolist(),
                      blocks.products.tolist(), blocks.prefix_sums.tolist())
        rows = [(j, gap, pop, f"{prod:.12g}", f"{load:.12g}")
                for j, (gap, pop, prod, load) in enumerate(columns)]
        _write_csv(args.out, ["block", "gap", "population", "odds_product", "prefix_load"],
                   rows, _config_hash(args.config, {"n": args.n}), args.seed)
    return EXIT_OK


def _cmd_tails(args) -> int:
    spec = envmodel.load_model(args.config)
    rep = spectral.solve_kappa(spec)
    samples = tails.sample_perpetuity(spec, args.samples, derive_rng(args.seed, 0),
                                      tol=args.tol)
    report = tails.tail_report(spec, rep.kappa, samples, args.tol)
    print(f"kappa = {rep.kappa:.12g}, samples = {args.samples}, tol = {args.tol:g}")
    for frac, h in sorted(report.hill.items(), reverse=True):
        print(f"hill(top {frac:g}) = {h.index:.4f}  [{h.ci_low:.4f}, {h.ci_high:.4f}] "
              f"(k={h.order_statistics})")
    print(f"log-log slope index = {report.loglog_index:.4f}")
    print(f"tail curve top-decade max/min = {report.curve.top_decade_ratio():.3f}")
    if args.threshold is not None:
        plain, plain_se = tails.plain_tail_probability(samples, args.threshold)
        tilt = tails.tilted_tail_sampler(spec, rep.kappa, rep.f_kappa, args.threshold,
                                         max(args.samples // 100, 1000),
                                         derive_rng(args.seed, 1), tol=args.tol)
        print(f"P(series > {args.threshold:g}): plain {plain:.3g} (se {plain_se:.2g}), "
              f"tilted {tilt.probability:.3g} (se {tilt.std_error:.2g}, "
              f"ess {tilt.effective_sample_size:.0f}"
              f"{', UNRELIABLE' if tilt.unreliable else ''})")
    if args.out:
        rows = [
            (f"{t:.10g}", f"{s:.10g}", f"{c:.10g}")
            for t, s, c in zip(report.curve.thresholds, report.curve.survival,
                               report.curve.curve)
        ]
        conf = _config_hash(args.config, {"samples": args.samples, "tol": args.tol})
        _write_csv(args.out, ["threshold", "survival", "scaled_survival"], rows,
                   conf, args.seed)
        if args.dump:
            _write_samples(args.out + ".samples.csv", samples, conf, args.seed)
    return EXIT_OK


def _cmd_limit_check(args) -> int:
    spec = envmodel.load_model(args.config)
    srep = spectral.solve_kappa(spec)
    kappa = srep.kappa
    vrep = speedmod.compute_speed(spec, kappa)
    reports = []
    t_report = None
    if args.side in ("T", "both"):
        t_report = limitlaws.limit_check_T(spec, args.n, args.replicas,
                                           limitlaws.child_seed(args.seed, 1),
                                           kappa=kappa, v=vrep.v or None,
                                           step_cap=args.step_cap)
        reports.append(t_report)
    if args.side in ("X", "both"):
        reports.append(
            limitlaws.limit_check_X(spec, args.n, args.replicas, args.seed,
                                    t_report=t_report, kappa=kappa,
                                    v=vrep.v or None, step_cap=args.step_cap)
        )
    rows = []
    for rep in reports:
        status = "n/a" if rep.passed is None else ("pass" if rep.passed else "FAIL")
        shift = f"shift = {rep.shift:.4g}, " if rep.regime == "{2}" else ""
        print(f"{rep.side}-side regime {rep.regime}: b = {rep.b:.6g}, {shift}"
              f"KS = {rep.ks:.4f} (threshold {rep.ks_threshold}) -> {status}; "
              f"censored {rep.censored_fraction:.2%}")
        for x, F in zip(rep.normalized, rep.fitted_cdf):
            rows.append((rep.side, "sample", f"{x:.10g}", f"{F:.10g}", ""))
        rows.append((rep.side, "summary", f"{rep.b:.10g}", f"{rep.ks:.10g}", rep.regime))
    if args.out:
        conf = _config_hash(args.config, {"n": args.n, "replicas": args.replicas,
                                          "side": args.side})
        _write_csv(args.out, ["side", "record", "x_or_b", "cdf_or_ks", "regime"],
                   rows, conf, args.seed)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "kappa": _cmd_kappa,
    "speed": _cmd_speed,
    "simulate-walk": _cmd_simulate_walk,
    "simulate-branching": _cmd_simulate_branching,
    "tails": _cmd_tails,
    "limit-check": _cmd_limit_check,
}


def run(argv: list[str]) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return _COMMANDS[args.command](args)
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
