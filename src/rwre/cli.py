"""Configuration-driven command line: one subcommand per analysis surface.

Every run is a pure function of ``(model file, flags, seed)``; ``--threads``
is accepted and ignored.  Human-readable summaries go to standard output and
machine-readable CSV (header row, data rows, one trailing metadata comment
with the config hash and seed) goes to ``--out``.  The ``RWRE_LOG``
environment variable controls stderr verbosity only.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import logging
import os
import sys
import warnings
from itertools import chain
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


def _quoted(field: str) -> str:
    """``field`` as ``csv.writer`` writes it: quoted if it holds a comma, quote or line break."""
    quote = "," in field or '"' in field or "\r" in field or "\n" in field
    return '"%s"' % field.replace('"', '""') if quote else field


@contextlib.contextmanager
def _created(path, mode, **kwargs):
    """``open(path, mode)`` to write, an ``OSError`` opening or writing it a ``ModelError``."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise ModelError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_csv(path, header, fmt, columns, conf_hash, seed):
    """Write ``header``, row ``i`` as ``fmt % (column[i] for column in columns)``
    and the metadata comment, byte for byte what ``csv.writer`` writes for
    the formatted fields: every row in one ``%`` pass, CRLF-terminated, and
    a column of strings quoted by :func:`_quoted`."""
    columns = [list(map(_quoted, c)) if len(c) and isinstance(c[0], str) else c
               for c in columns]
    m = len(columns[0])
    with _created(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write((fmt + "\r\n") * m % tuple(chain.from_iterable(zip(*columns))))
        fh.write(f"# config_hash={conf_hash} seed={seed}\n")
    log.info("wrote %s (%d rows)", path, m)


def _split(a):
    """Veltkamp's split ``a == hi + lo`` into halves of at most 26 significant bits."""
    hi = 134217729.0 * a - (134217729.0 * a - a)  # 2**27 + 1
    return hi, a - hi


_POW10 = 10.0 ** np.arange(17)  # exact doubles
_SCALE = 10.0 ** np.arange(17, 0, -1)  # 10**(17 - d) brings d integer digits to 17
_SCALE_HI, _SCALE_LO = _split(_SCALE)
_GROUP_ASCII = np.ascontiguousarray(  # the 4-digit groups 0000..9999 as ASCII words
    np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).view("<u4").ravel()
_COLUMNS = np.arange(20, dtype=np.uint8)  # 17 digits, the dot, CR, LF


def _write_rows(fh, values):
    """Write one ``%.17g`` row per value, each ended by CRLF, byte for byte as the ``%``
    operator formats it: values in [1, 1e16) print positionally and are formatted
    exactly with array arithmetic, any other value by ``%``, spliced in at its row."""
    fast = (values >= 1.0) & (values < 1e16)
    x = np.where(fast, values, 1.0)
    dot = np.searchsorted(_POW10, x, "right").astype(np.uint8)  # integer digits
    # x * 10**(17 - dot) == p + e exactly (Dekker's two-product); p >= 1e16 > 2**53 is
    # an even integer, so p + rint(e) is the half-even rounded 17-digit integer.  No
    # carry to 1e17: doubles below 10**dot stay over 11 units of digit 17 under it.
    p = x * _SCALE[dot]
    (x_hi, x_lo), s_hi, s_lo = _split(x), _SCALE_HI[dot], _SCALE_LO[dot]
    e = ((x_hi * s_hi - p) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    words = np.stack([_GROUP_ASCII[n // 10**k % 10_000] for k in (16, 12, 8, 4, 0)], axis=1)
    digits = words.view(np.uint8)[:, 3:]  # after the "000" of the leading digit's word
    kept = np.maximum(17 - np.argmax(digits[:, ::-1] != ord("0"), axis=1), dot)
    length = kept + (kept > dot)  # the dot stays with a fraction digit
    block = np.empty((len(x), 20), np.uint8)
    block[:, :17] = digits
    np.copyto(block[:, 1:18], digits, where=_COLUMNS[1:18] > dot[:, None])
    rows = np.arange(len(x))
    block[rows, dot] = ord(".")
    block[rows, length] = ord("\r")
    block[rows, length + 1] = ord("\n")
    length = np.where(fast, length + 2, 0)
    body, start = memoryview(block[_COLUMNS < length.astype(np.uint8)[:, None]]), 0
    for i, end in zip(np.flatnonzero(~fast).tolist(), np.cumsum(length)[~fast].tolist()):
        fh.writelines((body[start:end], b"%.17g\r\n" % values[i]))
        start = end
    fh.write(body[start:])


def _write_samples(path, samples, conf_hash, seed):
    """``_write_csv(path, ["value"], "%.17g", [samples], ...)``, byte for byte."""
    with _created(path, "wb") as fh:
        fh.write(b"value\r\n")  # csv.writer's line terminator
        for k in range(0, len(samples), _DUMP_CHUNK):
            _write_rows(fh, samples[k:k + _DUMP_CHUNK])
        fh.write(f"# config_hash={conf_hash} seed={seed}\n".encode())
    log.info("wrote %s (%d rows)", path, len(samples))


@functools.cache  # one grammar per process; parse_args gives each call a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rwre", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, csv=True):
        sp.add_argument("--config", required=True, help="model file (TOML)")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; runs are single-threaded")
        if csv:  # a CSV's metadata line records the seed
            sp.add_argument("--seed", type=int, default=0, help="64-bit master seed")
            sp.add_argument("--out", help="CSV output path")

    sp = sub.add_parser("validate", help="run all model assumption checks")
    common(sp, csv=False)

    sp = sub.add_parser("kappa", help="tail index and tilt-exponent curve")
    common(sp)

    sp = sub.add_parser("speed", help="asymptotic speed and crossing profile")
    common(sp, csv=False)
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
        _write_csv(args.out, ["beta", "lambda", "radius"], "%.10g,%.15g,%.15g",
                   [rep.beta_grid.tolist(), rep.lambdas.tolist(), rep.radii.tolist()],
                   _config_hash(args.config, {}), args.seed)
    return EXIT_OK


def _read_samples(path) -> np.ndarray:
    """The series samples of ``path`` (a `tails --dump` file): at least two,
    each finite and at least 1, as every series draw is."""
    try:  # "value" heads the file `tails --dump` writes
        with warnings.catch_warnings():  # numpy warns on an empty file; it fails below
            warnings.simplefilter("ignore", UserWarning)
            samples = np.loadtxt(path, ndmin=1, comments=("#", "value"))
    except (OSError, ValueError) as exc:
        raise ModelError(f"cannot read series samples: {exc}") from exc
    if samples.size < 2:
        raise ModelError(f"cannot read series samples: {samples.size} found in {path}, "
                         "the cross check needs at least two")
    if not (np.isfinite(samples) & (samples >= 1.0)).all():
        raise ModelError(f"cannot read series samples: {path} holds a value that is not "
                         "finite or is below 1, which no series draw is")
    return samples


def _cmd_speed(args) -> int:
    spec = envmodel.load_model(args.config)
    samples = _read_samples(args.r_samples) if args.r_samples else None
    rep = speedmod.compute_speed(spec)
    print(f"kappa = {rep.kappa:.12g}")
    print(f"speed = {rep.v:.12g}")
    if rep.ballistic:
        print(f"inverse speed = {rep.inverse_speed:.12g}")
        print(f"crossing profile = {np.array2string(rep.profile, precision=12)}")
    if samples is not None:
        chk = speedmod.cross_check(rep, samples)
        print(f"cross-check: 2*mean(series)-1 = {chk.series_estimate:.6g} "
              f"vs {chk.inverse_speed:.6g} (z = {chk.z_score:.2f}) -> "
              f"{'consistent' if chk.consistent else 'INCONSISTENT'}")
    return EXIT_OK


def _cmd_simulate_walk(args) -> int:
    spec = envmodel.load_model(args.config)
    walks = walksim.reference_walks(spec, args.n, args.replicas, args.seed, args.step_cap)
    steps, censored = np.array([(r.steps, r.censored) for r in walks], np.int64).reshape(-1, 2).T
    done = steps[censored == 0].astype(float)
    print(f"replicas: {args.replicas}, censored: {int(censored.sum())}")
    if done.size:
        print(f"mean hitting time: {done.mean():.6g} (T/n = {done.mean() / args.n:.6g})")
    if args.out:
        # a walk stops on the step that hits n, so steps is also the hitting time
        _write_csv(args.out, ["replica", "hitting_time", "steps", "censored"], "%d,%d,%d,%d",
                   [range(args.replicas), steps.tolist(), steps.tolist(), censored.tolist()],
                   _config_hash(args.config, {"n": args.n, "replicas": args.replicas,
                                              "step_cap": args.step_cap}), args.seed)
    return EXIT_OK


def _cmd_simulate_branching(args) -> int:
    spec = envmodel.load_model(args.config)
    rng = derive_rng(args.seed, 0)
    path = branching.sample_branching(spec, args.n, rng)
    trace = branching.regen_trace(path, rng)
    logr = np.log(spec.rho)[path.states]
    blocks = branching.block_products(logr, trace.joint)
    gaps = np.diff(trace.joint)
    print(f"generations: {args.n}, joint regeneration blocks: {len(gaps)}")
    if len(gaps):
        print(f"mean gap: {gaps.mean():.4g}, mean block population: "
              f"{trace.joint_blocks.mean():.4g}")
    if args.out:
        _write_csv(args.out, ["block", "gap", "population", "odds_product", "prefix_load"],
                   "%d,%d,%d,%.12g,%.12g",
                   [range(len(gaps)), gaps.tolist(), trace.joint_blocks.tolist(),
                    blocks.products.tolist(), blocks.prefix_sums.tolist()],
                   _config_hash(args.config, {"n": args.n}), args.seed)
    return EXIT_OK


def _cmd_tails(args) -> int:
    spec = envmodel.load_model(args.config)
    rep = spectral.solve_kappa(spec)
    samples = tails.sample_perpetuity(spec, args.samples, derive_rng(args.seed, 0),
                                      tol=args.tol)
    report = tails.tail_report(rep.kappa, samples)
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
        curve = report.curve
        conf = _config_hash(args.config, {"samples": args.samples, "tol": args.tol})
        _write_csv(args.out, ["threshold", "survival", "scaled_survival"], "%.10g,%.10g,%.10g",
                   [curve.thresholds.tolist(), curve.survival.tolist(), curve.curve.tolist()],
                   conf, args.seed)
        if args.dump:
            _write_samples(args.out + ".samples.csv", samples, conf, args.seed)
    return EXIT_OK


def _cmd_limit_check(args) -> int:
    spec = envmodel.load_model(args.config)
    reports = []
    t_report = None
    if args.side in ("T", "both"):
        t_report = limitlaws.limit_check_T(spec, args.n, args.replicas,
                                           limitlaws.child_seed(args.seed, 1),
                                           step_cap=args.step_cap)
        reports.append(t_report)
    if args.side in ("X", "both"):
        reports.append(limitlaws.limit_check_X(spec, args.n, args.replicas, args.seed,
                                               t_report=t_report, step_cap=args.step_cap))
    rows = []
    for rep in reports:
        status = "n/a" if rep.passed is None else ("pass" if rep.passed else "FAIL")
        shift = f"shift = {rep.shift:.4g}, " if rep.regime == "{2}" else ""
        print(f"{rep.side}-side regime {rep.regime}: b = {rep.b:.6g}, {shift}"
              f"KS = {rep.ks:.4f} (threshold {rep.ks_threshold}) -> {status}; "
              f"censored {rep.censored_fraction:.2%}")
        rows += [(rep.side, "sample", x, F, "")
                 for x, F in zip(rep.normalized.tolist(), rep.fitted_cdf.tolist())]
        rows.append((rep.side, "summary", rep.b, rep.ks, rep.regime))
    if args.out:
        params = {"n": args.n, "replicas": args.replicas, "side": args.side}
        if args.step_cap is not None:  # a CSV written without the flag keeps its hash
            params["step_cap"] = args.step_cap
        conf = _config_hash(args.config, params)
        _write_csv(args.out, ["side", "record", "x_or_b", "cdf_or_ks", "regime"],
                   "%s,%s,%.10g,%.10g,%s", list(zip(*rows)), conf, args.seed)
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
    if args.command == "tails" and args.dump and not args.out:
        parser.error("--dump writes next to --out: give --out")
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
