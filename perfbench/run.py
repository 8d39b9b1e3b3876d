"""rwre's benchmark: one workload, timed on the process CPU clock.

    python3 perfbench/run.py --workload limit-check --seed 0 --seconds 9 --trace 0

Run from the root of a source checkout; rwre is imported from ``src/``.
The run sets up (imports, model files, one untimed warm-up call), then runs
the workload's fixed list of operations in whole rounds until ``--seconds``
of CPU at reference speed (see ``hostspeed``) are spent, checking every
output untimed after its operation.  With
``--trace 1`` it then runs one more round with every layer wrapped and
reports the per-layer metrics.  The last line of standard output is the
result object; the full record goes to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: CPU time is then the
# time a user waits, and runs do not depend on the thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# glibc raises its mmap threshold, and with it the heap trim threshold, each
# time a large mmapped block is freed, so which arrays stay on the heap and
# the peak resident set depend on the order of earlier frees: limit-check
# peaked at 221 or 251 MB by seed.  Fixing both at the caps that rule
# converges to (32 MiB and 64 MiB) makes the peak repeat (221.2-221.6 MB)
# without adding page faults.
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
except (OSError, AttributeError):
    pass

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 2  # extra set-ups in child processes, for the setup_s median


def cpu_since_start() -> float:
    """User + system CPU of this process since it started."""
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def steal_ticks() -> int | None:
    """The host's cumulative steal ticks, to explain outliers."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("limit-check", "walk-branching", "kappa-tails"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=9.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up CPU time and exit (set-up probe)")
    return p.parse_args(argv)


def clear_program_caches() -> None:
    """Empty rwre's memo caches, so every round pays what one CLI call pays."""
    for name, mod in list(sys.modules.items()):
        if name == "rwre" or name.startswith("rwre."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_round(ops, sampler, tracer=None):
    """Run every operation once; return the round's CPU seconds at
    reference speed, its raw CPU seconds and the op records."""
    records, raw, samples = [], 0.0, []
    for op in ops:
        if tracer is not None:
            tracer.tag, tracer.active = op.tag, True
        start = sampler.open()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = op.run()
            failed = bool(getattr(out, "failed", False))
            error = getattr(out, "stderr", "").strip() if failed else ""
        except Exception:
            out, failed, error = None, True, traceback.format_exc(limit=3)
        c1, w1 = time.process_time(), time.perf_counter()
        taken = sampler.close(start)
        if tracer is not None:
            tracer.active = False
        raw += c1 - c0
        samples += taken
        rec = {"op": op.name, "cpu_s": c1 - c0 - sum(taken), "wall_s": w1 - w0,
               "speed_samples": len(taken), "failed": failed}
        if failed:
            rec["error"] = error
        else:
            try:
                rec["check"] = op.check(out)
                rec["correct"] = True
            except Exception as exc:  # a check that cannot run rejects the output
                rec["correct"] = False
                rec["check_error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return hostspeed.normalized(raw, samples), raw, records


def setup_probes(args) -> list[float]:
    """Set-up CPU seconds of SETUP_PROBES fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rwre" / "__init__.py").is_file():
        print(f"no rwre sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return set_up_and_measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up_and_measure(args, work: Path) -> int:
    sampler = hostspeed.SpeedSampler()
    window = sampler.open()
    try:
        sys.path.insert(0, str(SRC))
        import rwre

        if Path(rwre.__file__).resolve().parent != SRC / "rwre":
            print(f"imported rwre from {rwre.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import workloads

        import_s = cpu_since_start()
        wl = workloads.build(args.workload, ROOT, args.seed, work)
        c0 = time.process_time()
        wl.warmup()
        warmup_s = time.process_time() - c0
        setup_raw = cpu_since_start()
    finally:
        setup_samples = sampler.close(window)
    setup_s = hostspeed.normalized(setup_raw, setup_samples)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    return measure(args, wl, sampler, import_s, warmup_s, setup_s)


def measure(args, wl, sampler, import_s, warmup_s, setup_s) -> int:
    steal0, wall0 = steal_ticks(), time.perf_counter()
    setups = [setup_s] + setup_probes(args)

    rounds, raws, records = [], [], []
    while not rounds or sum(rounds) < args.seconds:
        clear_program_caches()
        cpu, raw, recs = run_round(wl.ops, sampler)
        rounds.append(cpu)
        raws.append(raw)
        records.append(recs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cpu_s = statistics.median(rounds)
    metrics = {
        "cpu_s": {"value": cpu_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "round_cpu_s": rounds, "round_raw_cpu_s": raws,
              "setup_samples_s": setups, "ops": records}

    if args.trace:
        import tracer as T

        tr = T.Tracer()
        T.install_rwre(tr)
        clear_program_caches()
        try:
            traced_cpu, _, recs = run_round(wl.ops, sampler, tr)
        finally:
            tr.uninstall()
        records.append(recs)
        layers = T.layer_metrics(tr.spans, tr.counts)
        layers["setup.import_s"] = (import_s, "s")
        layers["setup.warmup_s"] = (warmup_s, "s")
        layers["trace.overhead_s"] = (traced_cpu - cpu_s, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["traced_round_cpu_s"] = traced_cpu
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(
            [s.__dict__ for s in tr.spans], separators=(",", ":")))
        record["spans_file"] = spans_path.name
        record["span_counts"] = dict(tr.counts)

    ops = [r for recs in records for r in recs]
    failed = sum(r["failed"] for r in ops)
    correct = all(r.get("correct", True) for r in ops)
    steal1 = steal_ticks()
    record.update(metrics=metrics, correct=correct, attempted=len(ops), failed=failed,
                  wall_s=time.perf_counter() - wall0,
                  steal_ticks=None if steal0 is None else steal1 - steal0)
    suffix = "-trace" if args.trace else ""
    path = OUT / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, default=float))

    for r in ops:
        if r.get("correct") is False:
            print(f"# check failed: {r['op']}: {r['check_error']}")
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"round_cpu_s={[round(c, 3) for c in rounds]} steal_ticks={record['steal_ticks']} "
          f"record={path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
