"""Round-trip benchmark: fit -> diagnose --traces -> report -> compare.

    python3 roundtrip_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from ./src). The
benchmark generates the workload's workforce from --seed, writes it as a
CSV, and runs the four subcommands on it as a user would, one process
each, in whole rounds until --seconds have passed. Every round's outputs
are checked against computations made apart from the program.

With --trace 0 it prints the end-to-end metrics (medians over rounds);
with --trace 1 every subcommand runs under traced_cli.py and it prints
the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Operations counted per round: each of the four subcommands exiting 0
(every time it runs), each of the seven output checks, and "the fit
converged" (the benchmark's own rank-normalized R-hat below 1.01 and
bulk ESS at least 100 per chain for every parameter, and then the
generator's beta2, beta3 and sigma_resid within 4 posterior SDs).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import convergence
import spans as spanmod
import traced_cli
from workforce import Shape, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".roundtrip_runs"
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 3
SUBCOMMANDS = ("fit", "diagnose", "report", "compare")
# Untraced runs time the subcommands that only read the draws three times
# and take the median, which damps the host's noise.
REPEATS = {"fit": 1, "diagnose": 3, "report": 3, "compare": 3}


@dataclass(frozen=True)
class Workload:
    shape: Shape
    chains: int
    warmup: int
    samples: int
    leapfrog_steps: int


# Fits are shorter than the README's (500 warmup, 1,000 draws) so that a
# run stays near 35 s on a 2-core host; see README.md.
WORKLOADS = {
    # README reference imbalance: 2,939 workers, G=48, J=1,200, 2,508 params.
    "reference": Workload(Shape(8, 6, 150, 1.0, 6), 2, 150, 300, 32),
    # Few, large groups: 30,121 workers, G=10, J=50, 132 params.
    "tall": Workload(Shape(5, 2, 10, 0.7, 2400), 2, 100, 200, 16),
    # Many small upper-level groups: 1,958 workers, G=400, J=800, 2,412 params.
    "deep": Workload(Shape(10, 40, 80, 1.0, 6), 2, 150, 300, 32),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs processes through launcher.py, which starts them from a small
    process so that their peak memory is their own (see there)."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, log_path):
        """Run argv to completion; return (start, end, exit code, peak RSS
        MB), start and end on time.perf_counter's clock."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("no time left to run %s" % argv[3:5])
        self.proc.stdin.write(json.dumps({
            "argv": argv, "log": str(log_path), "env": child_env(), "cwd": str(ROOT),
            "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py ended unexpectedly")
        r = json.loads(reply)
        if time.monotonic() >= self.deadline:
            raise TimeoutError("%s ran past the benchmark's time limit" % argv[3:5])
        return r["start"], r["end"], r["code"], r["rss_mb"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def setup(workload, seed, csv_path, launcher):
    """Generate and write the workforce, then load the program once."""
    wf = generate(workload.shape, seed)
    wf.write_csv(csv_path)
    _, _, code, _ = launcher.run([sys.executable, "-c", "import payequity.cli"],
                                 csv_path.with_suffix(".import.log"))
    if code != 0:
        raise RuntimeError("the program does not import (exit %d)" % code)
    return wf


def subcommand_args(workload, seed, csv_path, round_dir):
    d = round_dir
    return {
        "fit": ["fit", "--data", str(csv_path), "--out", str(d / "fit"),
                "--chains", str(workload.chains), "--warmup", str(workload.warmup),
                "--samples", str(workload.samples),
                "--leapfrog-steps", str(workload.leapfrog_steps),
                "--seed", str(2 * seed)],   # chain keys are seed ^ chain: keep seeds even
        "diagnose": ["diagnose", "--draws", str(d / "fit"), "--out", str(d / "diagnose"),
                     "--traces"],
        "report": ["report", "--draws", str(d / "fit"), "--data", str(csv_path),
                   "--out", str(d / "report")],
        "compare": ["compare", "--draws", str(d / "fit"), "--data", str(csv_path),
                    "--out", str(d / "compare")],
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def op(self, name, problems, known_fault=False):
        """Count one operation; a failure other than a known fault makes
        the run incorrect."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and known_fault
            print("FAILED %s: %s" % (name, "; ".join(problems)), file=sys.stderr)


def check_round(wf, exp, out, tally, n_chains):
    """Run every output check on one round's files; return the benchmark's
    own convergence statistics (None when the draws cannot be read)."""
    try:
        names, chains = out.draws()
        rep = out.report_json()
    except (OSError, ValueError, KeyError) as exc:
        for name in ("ingest", "draws", "traces", "verdict", "report", "raises", "lm",
                     "converged"):
            tally.op(name, ["outputs unreadable: %s" % exc])
        return None
    tally.op("ingest", checks.check_ingest(exp, out, names, rep))
    tally.op("draws", checks.check_draws(exp, names, chains))
    tally.op("traces", checks.check_traces(out, names, chains))
    conv = convergence.diagnose(chains)
    tally.op("verdict", checks.check_verdict(out, names, conv))
    rec = checks.Recomputed(exp, names, chains)
    tally.op("report", checks.check_report(exp, rec, rep))
    tally.op("raises", checks.check_raises(exp, rec, rep))
    tally.op("lm", checks.check_lm(exp, out))
    if conv.converged(n_chains):
        recovery = checks.check_recovery(names, chains)
        tally.op("converged", recovery)
    else:
        tally.op("converged", ["max R-hat %.3g, min bulk ESS %.3g"
                               % (conv.rhat.max(), conv.ess_bulk.min())], known_fault=True)
    return conv


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "payequity" / "cli.py").is_file():
        print("error: no program at %s" % (SRC / "payequity"), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = RUNS / ("%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(deadline)
    try:
        return run(args, workload, work, launcher)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


def run(args, workload, work, launcher):
    csv_path = work / "workforce.csv"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wf = setup(workload, args.seed, csv_path, launcher)
        setup_times.append(time.perf_counter() - t)
    exp = checks.Expected(wf)

    wrapper_cost = traced_cli.wrapper_cost() if args.trace else 0.0
    tally = Tally()
    rounds = []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < args.seconds:
        round_dir = work / ("round%d" % len(rounds))
        round_dir.mkdir()
        cmd_args = subcommand_args(workload, args.seed, csv_path, round_dir)

        def spans_path(cmd):
            return round_dir / ("spans_%s.json" % cmd)

        def argv(cmd):
            if args.trace:
                return [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_path(cmd))]
            return [sys.executable, "-m", "payequity.cli"]

        # Repeats are interleaved (fit, diagnose, report, compare, diagnose,
        # report, compare, ...) so that each subcommand's timings spread over
        # the round instead of sampling one moment of the host's speed.
        repeats = {cmd: 1 if args.trace else REPEATS[cmd] for cmd in SUBCOMMANDS}
        runs = {cmd: [] for cmd in SUBCOMMANDS}
        for rep in range(max(repeats.values())):
            for cmd in SUBCOMMANDS:
                if rep < repeats[cmd]:
                    runs[cmd].append(launcher.run(argv(cmd) + cmd_args[cmd],
                                                  round_dir / ("%s.log" % cmd)))
        walls, rss, times, trees = {}, {}, {}, {}
        for cmd, cmd_runs in runs.items():
            codes = [code for _, _, code, _ in cmd_runs if code]
            tally.op(cmd, ["exit code %d" % codes[0]] if codes else [])
            walls[cmd] = statistics.median(end - start for start, end, _, _ in cmd_runs)
            rss[cmd] = max(r[3] for r in cmd_runs)
            times[cmd] = cmd_runs[0][:2]
            if args.trace and not codes:
                with open(spans_path(cmd)) as fh:
                    trees[cmd] = json.load(fh)
        out = checks.Outputs(round_dir)
        conv = check_round(wf, exp, out, tally, workload.chains)
        rounds.append({"walls": walls, "rss": rss, "conv": conv})
        print("round %d peak RSS MB: %s" % (len(rounds) - 1, ", ".join(
            "%s %.0f" % (c, rss[c]) for c in SUBCOMMANDS)))
        if args.trace and len(trees) == len(SUBCOMMANDS):
            rounds[-1]["layers"] = spanmod.layer_metrics(trees, times, out.fit, wf.n,
                                                           wrapper_cost)
        shutil.rmtree(round_dir, ignore_errors=True)

    if args.trace:
        metrics = trace_metrics(rounds)
    else:
        metrics = end_to_end_metrics(rounds, setup_times)
    for name, m in metrics.items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def end_to_end_metrics(rounds, setup_times):
    med = statistics.median
    walls = [r["walls"] for r in rounds]
    ess = [float(np.min(r["conv"].ess_bulk)) / r["walls"]["fit"]
           for r in rounds if r["conv"] is not None]
    metrics = {"setup_s": metric(med(setup_times), "s")}
    for cmd in SUBCOMMANDS:
        metrics["%s_s" % cmd] = metric(med(w[cmd] for w in walls), "s")
    metrics["round_trip_s"] = metric(med(sum(w.values()) for w in walls), "s")
    if ess:
        metrics["min_ess_per_s"] = metric(med(ess), "1/s")
    metrics["peak_rss_mb"] = metric(max(max(r["rss"].values()) for r in rounds), "MB")
    return metrics


def trace_metrics(rounds):
    per_round = [r["layers"] for r in rounds if "layers" in r]
    if not per_round:
        return {}
    return {name: metric(statistics.median(r[name][0] for r in per_round), unit)
            for name, (_, unit) in per_round[0].items()}


if __name__ == "__main__":
    sys.exit(main())
