"""The traced run: spans cover each layer and add up to the wall clock.

    python3 -m pytest roundtrip_bench
"""

import json
import sys
import time

import conftest
import run
import spans


def test_traced_round_trip_decomposes_its_wall_clock(tiny, tmp_path):
    wf, _, root = tiny
    args = run.subcommand_args(conftest.TINY, conftest.SEED, root / "workforce.csv", tmp_path)
    launcher = run.Launcher(time.monotonic() + 120.0)
    trees, times = {}, {}
    for cmd in run.SUBCOMMANDS:
        path = tmp_path / ("spans_%s.json" % cmd)
        argv = [sys.executable, str(run.BENCH_DIR / "traced_cli.py"), str(path)]
        start, end, code, _ = launcher.run(argv + args[cmd], tmp_path / "log")
        assert code == 0, (tmp_path / "log").read_text()
        trees[cmd] = json.loads(path.read_text())
        times[cmd] = (start, end)
        nodes = [n for _, n in spans.walk(trees[cmd]["tree"])]
        assert abs(sum(n["self_s"] for n in nodes) - trees[cmd]["tree"]["total_s"]) < 1e-9
        assert start < trees[cmd]["start"] < trees[cmd]["end"] < end

    launcher.close()
    names = {p[-1] for t in trees.values() for p, _ in spans.walk(t["tree"])}
    assert {"cli.main", "records.load_csv", "factors.build_factor_index", spans.LOGP,
            spans.TRANSITION, "diagnostics.export_traces", "report.fit_metrics",
            "baseline.fit_ols", "hmc.PosteriorDraws.save"} <= names

    m = spans.layer_metrics(trees, times, tmp_path / "fit", wf.n, wrapper_cost=1e-6)
    steps = conftest.TINY.leapfrog_steps
    assert steps < m["hmc.evals_per_transition"][0] < 1.2 * steps + 3
    assert m["model.evals"][0] > (conftest.TINY.warmup + conftest.TINY.samples) * 2 * steps * 0.8
    self_total = sum(n["self_s"] for t in trees.values() for _, n in spans.walk(t["tree"]))
    wall = m["trace.round_trip_s"][0]
    assert abs(self_total + m["cli.startup_s"][0] - wall) < 1e-6 * wall
