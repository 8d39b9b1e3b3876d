"""Record benchmark medians for one change in ``BENCH_<pr>.json``.

Runs ``perfbench/run.py --trace 0`` at its default length for every
workload and seed in each given source tree, interleaving the trees seed
by seed and swapping their order on every other seed so that drift of the
host's speed hits them alike, and writes the medians and quartiles of
``cpu_s``, ``setup_s`` and ``peak_rss_mb`` per workload with each tree's
commit and ``src/rwre/*.py`` line counts to ``BENCH_<pr>.json`` at the root
of this repository: ``src_lines`` as ``wc -l`` counts them and
``src_code_lines`` without blank, comment-only and docstring lines, so that
a cut comment or docstring is not read as a code cut:

    python3 tools/bench_record.py --pr 7 \\
        --tree parent=/path/to/parent/checkout --tree change=.

Seeds 0-9 run by default, ten pairs per workload.  When trees labelled
``parent`` and ``change`` both ran, ``pair_wins`` counts, per workload and
metric, the seeds on which each side was lower (ties count for neither),
and ``verdict`` states how the pipeline judges the change on each metric:
``gain`` when the change is lower on at least nine pairs in ten and its
median lies below the parent's by more than the parent's interquartile
spread, ``worse`` when its median exceeds the parent's by more than the
metric's relative ``bound`` in ``BENCHMARK.json`` (read, never written),
``same`` otherwise.
Each tree must be a git checkout with no uncommitted changes to tracked
files, so that the recorded commit is the code that ran (perfbench imports
rwre from the tree's ``src/``).  Every run's own metrics, correctness and
failure count are kept next to the medians.

Each seed also makes one ``--trace 1 --seconds 0`` run per tree, in the
same alternating order: one timed round, then the traced round whose
per-layer metrics go, with their medians and quartiles, under ``layers``
(``layer_pair_wins`` counts their pairs as ``pair_wins`` does).  The
tracer's unit costs are raw CPU, not scaled to the host's reference speed
as ``cpu_s`` is, so a single traced round per tree can give a layer change
the wrong sign; they are compared here only paired and repeated.  The
medians and verdicts of the end-to-end metrics read only the untraced runs.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

WORKLOADS = ("limit-check", "walk-branching", "kappa-tails")
METRICS = ("cpu_s", "setup_s", "peak_rss_mb")
ROOT = Path(__file__).resolve().parents[1]


def last_result(stdout: str) -> dict:
    """The result object that ``perfbench/run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(tree: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """One ``perfbench/run.py`` run: its seed, correctness, failure count and
    metric values (the end-to-end ones untraced, the per-layer ones traced)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:  # the layers read only the traced round: one timed round before it will do
        cmd += ["--seconds", "0"]
    out = last_result(subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                                     check=True).stdout)
    return {"seed": seed, "correct": out["correct"], "failed": out["failed"],
            **{m: v["value"] for m, v in out["metrics"].items()}}


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def commit_of(tree: Path) -> str:
    """The checked-out commit; a tree whose tracked files differ from it is refused."""
    if git(tree, "status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"{tree} has uncommitted changes: commit them before recording")
    return git(tree, "rev-parse", "HEAD")


def src_lines(tree: Path) -> int:
    """Lines of the tree's ``src/rwre/*.py``, as ``wc -l`` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (tree / "src" / "rwre").glob("*.py"))


def code_lines(source: str) -> int:
    """Lines of Python ``source`` that hold code: not blank, not only a
    comment and not part of a module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:  # a multi-line string holds code on every line
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def src_code_lines(tree: Path) -> int:
    """:func:`code_lines` summed over the tree's ``src/rwre/*.py``."""
    return sum(code_lines(f.read_text()) for f in (tree / "src" / "rwre").glob("*.py"))


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile, interpolated as ``numpy.percentile`` does."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def pair_wins(parent: list[dict], change: list[dict], metrics=METRICS) -> dict:
    """Per metric, the seeds on which each tree was lower; ties count for neither."""
    pairs = list(zip(parent, change, strict=True))  # the same seeds, in the same order
    return {m: {"change": sum(c[m] < p[m] for p, c in pairs),
                "parent": sum(p[m] < c[m] for p, c in pairs),
                "pairs": len(pairs)} for m in metrics}


def summary(runs: list[dict], metrics) -> dict:
    """Median and quartiles of each metric over the runs, and the runs."""
    return {**{m: statistics.median(r[m] for r in runs) for m in metrics},
            "quartiles": {m: quartiles([r[m] for r in runs]) for m in metrics},
            "runs": runs}


def layer_names(runs: list[dict]) -> list[str]:
    """The per-layer metrics that every traced run reports."""
    return sorted(set.intersection(*(r.keys() - {"seed", "correct", "failed"} for r in runs)))


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """``gain``, ``worse`` or ``same`` for one lower-is-better metric, from the
    runs of both trees paired seed by seed and the metric's relative bound."""
    wins = sum(c < p for p, c in zip(parent, change, strict=True))
    q1, q3 = quartiles(parent)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if 10 * wins >= 9 * len(parent) and med_p - med_c > q3 - q1:
        return "gain"
    if med_c > med_p * (1.0 + bound):
        return "worse"
    return "same"


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    trees = {label: Path(path).resolve()
             for label, path in (t.split("=", 1) for t in args.tree)}
    result = {"pr": args.pr, "trees": {
        label: {"commit": commit_of(path), "src_lines": src_lines(path),
                "src_code_lines": src_code_lines(path), "workloads": {}}
        for label, path in trees.items()}}
    for workload in args.workload or WORKLOADS:
        runs = {label: [] for label in trees}
        traced = {label: [] for label in trees}
        for k, seed in enumerate(args.seeds):
            order = list(trees.items())
            for trace, log in ((False, runs), (True, traced)):
                for label, path in order[::-1] if k % 2 else order:
                    log[label].append(run_once(path, workload, seed, trace))
                    print(label, workload, "traced" if trace else "untraced", log[label][-1],
                          file=sys.stderr, flush=True)
        layers = layer_names([r for label in trees for r in traced[label]])
        for label in trees:
            result["trees"][label]["workloads"][workload] = {
                **summary(runs[label], METRICS), "layers": summary(traced[label], layers)}
        if {"parent", "change"} <= trees.keys():
            result.setdefault("pair_wins", {})[workload] = pair_wins(runs["parent"],
                                                                     runs["change"])
            result.setdefault("layer_pair_wins", {})[workload] = pair_wins(
                traced["parent"], traced["change"], layers)
            result.setdefault("verdict", {})[workload] = {
                m: verdict([r[m] for r in runs["parent"]], [r[m] for r in runs["change"]],
                           bounds[m]) for m in METRICS}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
