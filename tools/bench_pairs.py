"""Alternating parent/change runs of the round-trip benchmark, summarized.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json \\
        [--seeds 601 602 ...] [--claim tall:peak_rss_mb]

Run from the repository root. The parent revision is exported with
`git archive` into a temporary directory, which is removed at the end;
the change side is the working tree of this checkout. For each workload
that BENCHMARK.json lists and each seed, both sides run

    python3 roundtrip_bench/run.py --workload W --seed S --seconds 10 --trace 0

as subprocesses from their own checkout, one after the other. The parent
runs first on even seeds and the change first on odd ones. Each run's
last JSON line and its "round N peak RSS MB" lines are kept. The output
file gives, per workload and end-to-end metric, each side's median and
quartiles, the interquartile range over the median, the pairs the change
won, a verdict against the bound in BENCHMARK.json, and every run. It is
rewritten after every pair, so an interrupted session keeps what ran.

This script imports nothing from roundtrip_bench/: it reads what run.py
prints, so both sides are measured by their own benchmark code.
"""

import argparse
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_ARGS = ["--seconds", "10", "--trace", "0"]
RUN_TIMEOUT_S = 600
RSS_LINE = re.compile(r"^round (\d+) peak RSS MB: (.*)$")


def quantile(xs, q):
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def parse_run(stdout):
    """The last JSON line of run.py's output and the peak RSS of each
    subcommand in each round, as {"json": ..., "rss": [{cmd: MB}, ...]}."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    rss = []
    for line in lines:
        m = RSS_LINE.match(line)
        if m:
            rss.append({cmd: float(mb) for cmd, mb in
                        (item.split() for item in m.group(2).split(", "))})
    return {"json": json.loads(lines[-1]), "rss": rss}


def _verdict(parent, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * (c - p) < 0 for c in change for p in parent):
        return "every change run better than every parent run"
    spread = max(_iqr_over_median(parent), _iqr_over_median(change))
    if spread > bound:
        return "unresolved: interquartile range over median %.3f above the bound %g" % (
            spread, bound)
    p_med = quantile(parent, 0.5)
    worse = sign * (quantile(change, 0.5) - p_med) / abs(p_med) if p_med else 0.0
    return "worse than the bound %g" % bound if worse > bound else "within bound"


def _iqr_over_median(xs):
    med = quantile(xs, 0.5)
    return (quantile(xs, 0.75) - quantile(xs, 0.25)) / abs(med) if med else 0.0


def summarize(seeds, order, runs, metrics):
    """One workload's summary in the BENCH file layout.

    seeds: the seed of each pair; order: "parent first" or "change
    first" for each; runs: {"parent": [...], "change": [...]}, each a
    parse_run result per pair, in seed order; metrics: BENCHMARK.json's
    end_to_end list (name, better, bound). A metric missing from any
    run is left out.
    """
    sides = ("parent", "change")
    values = {s: {m["name"]: [r["json"]["metrics"][m["name"]]["value"] for r in runs[s]
                              if m["name"] in r["json"]["metrics"]]
                  for m in metrics}
              for s in sides}
    metrics = [m for m in metrics
               if all(len(values[s][m["name"]]) == len(seeds) for s in sides)]
    names = [m["name"] for m in metrics]
    out = {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "failed_operations": {s: sum(r["json"]["failed"] for r in runs[s]) for s in sides},
        "attempted_operations": {s: sum(r["json"]["attempted"] for r in runs[s])
                                 for s in sides},
        "all_correct": {s: all(r["json"]["correct"] for r in runs[s]) for s in sides},
    }
    for key, q in (("median", 0.5), ("q1", 0.25), ("q3", 0.75)):
        for s in sides:
            out["%s_%s" % (s, key)] = {n: round(quantile(values[s][n], q), 4) for n in names}
    out["change_vs_parent_pct"] = {
        n: round(100.0 * (quantile(values["change"][n], 0.5)
                          / quantile(values["parent"][n], 0.5) - 1.0), 1)
        for n in names if quantile(values["parent"][n], 0.5)}
    for s in sides:
        out["%s_iqr_over_median" % s] = {n: round(_iqr_over_median(values[s][n]), 3)
                                         for n in names}
    out["change_better_pairs"] = {}
    for m in metrics:
        sign = 1.0 if m["better"] == "lower" else -1.0
        won = sum(sign * (c - p) < 0
                  for p, c in zip(values["parent"][m["name"]], values["change"][m["name"]]))
        out["change_better_pairs"][m["name"]] = "%d/%d" % (won, len(seeds))
    out["verdict"] = {m["name"]: _verdict(values["parent"][m["name"]],
                                          values["change"][m["name"]], m["better"], m["bound"])
                      for m in metrics}
    # per subcommand: the highest round of each run, then the median over runs
    out["peak_rss_mb_by_subcommand_median"] = {
        s: {cmd: quantile([max(r[cmd] for r in run["rss"]) for run in runs[s]], 0.5)
            for cmd in runs[s][0]["rss"][0]}
        for s in sides}
    out["runs"] = {s: {n: values[s][n] for n in names} for s in sides}
    out["run_order"] = {str(seed): o for seed, o in zip(seeds, order)}
    out["raw"] = runs
    return out


def claim(summary, metric, better):
    """The gain rule: the change wins at least nine tenths of the pairs,
    the medians differ by more than the parent's interquartile range,
    every change run is correct and no more operations fail than at the
    parent."""
    parent, change = summary["runs"]["parent"][metric], summary["runs"]["change"][metric]
    p_med, c_med = quantile(parent, 0.5), quantile(change, 0.5)
    iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    won, pairs = (int(x) for x in summary["change_better_pairs"][metric].split("/"))
    diff = (p_med - c_med) if better == "lower" else (c_med - p_med)
    failed = summary["failed_operations"]
    correct = summary["all_correct"]["change"]
    met = (won * 10 >= pairs * 9 and diff > iqr and correct
           and failed["change"] <= failed["parent"])
    return {"metric": metric, "met": met,
            "result": "median %.4g -> %.4g (%+.1f%%), change better in %d/%d pairs, "
                      "median difference %.4g against a parent interquartile range of %.4g, "
                      "failed operations %d -> %d, every change run %s"
                      % (p_med, c_med, 100.0 * (c_med / p_med - 1.0), won, pairs, diff, iqr,
                         failed["parent"], failed["change"],
                         "correct" if correct else "not correct")}


def host():
    """The machine's cores, the cores this process may use, the OS and Python."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return "%d-core (%d usable) %s, Python %s" % (os.cpu_count(), usable, platform.system(),
                                                  platform.python_version())


def run_once(checkout, workload, seed):
    argv = [sys.executable, "roundtrip_bench/run.py", "--workload", workload,
            "--seed", str(seed)] + RUN_ARGS
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d in %s:\n%s" % (" ".join(argv[1:]), proc.returncode,
                                                        checkout, proc.stderr[-2000:]))
    return parse_run(proc.stdout)


def export(rev, dest):
    """Write the files of git revision rev into the directory dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the data filter exists from Python 3.10.12, 3.11.4 and 3.12 on;
        # without it the archive, made by git from this repository, is
        # extracted as it is
        if hasattr(tarfile, "data_filter"):
            tar.extraction_filter = tarfile.data_filter
        tar.extractall(dest)
    return Path(dest)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(601, 611)))
    parser.add_argument("--claim", help="WORKLOAD:METRIC to judge by the gain rule")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    parent_rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    result = {
        "command": "python3 roundtrip_bench/run.py --workload W --seed S " + " ".join(RUN_ARGS),
        "host": host(),
        "parent": parent_rev,
        "seeds": args.seeds,
        "workloads": {},
    }
    out_path = Path(args.out)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {"parent": export(parent_rev, tmp), "change": ROOT}
        for workload in workloads:
            runs, order = {"parent": [], "change": []}, []
            for seed in args.seeds:
                first = "parent" if seed % 2 == 0 else "change"
                second = "change" if first == "parent" else "parent"
                for side in (first, second):
                    runs[side].append(run_once(checkouts[side], workload, seed))
                    print("%s seed %d %s: %s" % (workload, seed, side, json.dumps(
                        {k: round(v["value"], 4) for k, v in
                         runs[side][-1]["json"]["metrics"].items()})), flush=True)
                order.append("%s first" % first)
                result["workloads"][workload] = summarize(args.seeds[:len(order)], order,
                                                          runs, metrics)
                out_path.write_text(json.dumps(result, indent=1) + "\n")
    if args.claim:
        workload, metric = args.claim.split(":")
        better = next(m["better"] for m in metrics if m["name"] == metric)
        result["claim"] = dict(claim(result["workloads"][workload], metric, better),
                               workload=workload)
        out_path.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
