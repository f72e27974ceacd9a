"""Per-layer metrics from the span trees that traced_cli.py writes.

A timing is self time (a span minus the spans inside it) unless its
name says otherwise; the warmup and sampling phases are whole spans.
"""

import json

LOGP = "model.HierarchicalModel.logp_and_grad"
TRANSITION = "hmc.hmc_transition"
WARMUP = "hmc.adapt_warmup"
EXPORT = "diagnostics.export_traces"


def walk(node, path=()):
    """(path of names from the root, node) for every node of a tree."""
    path = path + (node["name"],)
    yield path, node
    for child in node["children"]:
        yield from walk(child, path)


def layer_metrics(trees, times, fit_dir, n_rows, wrapper_cost):
    """name -> (value, unit) for one round trip.

    trees: subcommand -> traced_cli.py output; times: subcommand ->
    (start, end) of its process on the same clock; fit_dir: the draw
    directory of the round; wrapper_cost: seconds one traced call adds.
    """
    with open(fit_dir / "metadata.json") as fh:
        meta = json.load(fh)
    n_params = len(meta["param_names"])
    n_draws = meta["config"]["n_chains"] * meta["config"]["n_samples"]
    nodes = [(path, node) for t in trees.values() for path, node in walk(t["tree"])]

    def self_s(match):
        return sum(n["self_s"] for p, n in nodes if match(p[-1]))

    def named(name):
        return [(p, n) for p, n in nodes if p[-1] == name]

    def count(name):
        return sum(n["count"] for _, n in named(name))

    def self_of(*names):
        return self_s(lambda n: n in names)

    records = self_s(lambda n: n.startswith("records."))
    rows_read = n_rows * count("records.load_csv")
    evals, eval_s = count(LOGP), self_of(LOGP)
    transitions = count(TRANSITION)
    in_transition = [(p, n) for p, n in nodes if TRANSITION in p]
    evals_in_transitions = sum(n["count"] for p, n in in_transition if p[-1] == LOGP)
    hmc_in_transitions = sum(n["self_s"] for p, n in in_transition if p[-1].startswith("hmc."))
    diag = self_s(lambda n: n.startswith("diagnostics.") and n != EXPORT)
    diag_params = n_params * count("diagnostics.convergence_report")
    traces = self_of(EXPORT)
    trace_rows = n_params * n_draws * count(EXPORT)
    calls = sum(t["calls"] for t in trees.values())
    overhead = calls * wrapper_cost
    wall = sum(end - start for start, end in times.values())
    # interpreter start-up and exit: the only time outside the spans
    outside = sum((trees[c]["start"] - times[c][0]) + (times[c][1] - trees[c]["end"])
                  for c in trees)

    def per(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    return {
        "records.load_s": (records, "s"),
        "records.us_per_row": (per(records, rows_read, 1e6), "us"),
        "factors.index_s": (self_s(lambda n: n.startswith("factors.")), "s"),
        "model.evals": (evals, "count"),
        "model.eval_s": (eval_s, "s"),
        "model.us_per_eval": (per(eval_s, evals, 1e6), "us"),
        "model.transform_s": (self_of("model.HierarchicalModel.to_natural_matrix",
                                      "model.to_natural"), "s"),
        "hmc.evals_per_transition": (per(evals_in_transitions, transitions), "count"),
        "hmc.self_us_per_transition": (per(hmc_in_transitions, transitions, 1e6), "us"),
        "hmc.warmup_s": (sum(n["total_s"] for _, n in named(WARMUP)), "s"),
        "hmc.sampling_s": (sum(n["total_s"] for p, n in named(TRANSITION) if WARMUP not in p),
                           "s"),
        "hmc.divergences": (sum(meta["divergences"]), "count"),
        "hmc.save_s": (self_of("hmc.PosteriorDraws.save"), "s"),
        "hmc.load_s": (self_of("hmc.PosteriorDraws.load"), "s"),
        "diagnostics.report_s": (diag, "s"),
        "diagnostics.us_per_param": (per(diag, diag_params, 1e6), "us"),
        "diagnostics.traces_s": (traces, "s"),
        "diagnostics.trace_rows_per_s": (per(trace_rows, traces), "1/s"),
        "report.predictions_s": (self_of("report.counterfactual_predictions"), "s"),
        "report.fit_metrics_s": (self_of("report.fit_metrics"), "s"),
        "report.summaries_s": (self_of("report.group_gap_summaries",
                                       "report.adjusted_cents_to_dollar"), "s"),
        "report.raises_s": (self_of("report.raise_recommendations"), "s"),
        "baseline.design_s": (self_of("baseline.build_design_matrix"), "s"),
        "baseline.ols_s": (self_of("baseline.fit_ols"), "s"),
        "baseline.compare_s": (self_of("baseline.compare_estimates"), "s"),
        "cli.self_s": (self_s(lambda n: n.startswith("cli.") or n == "process"), "s"),
        "cli.import_s": (self_of("import"), "s"),
        "cli.startup_s": (outside, "s"),
        "trace.round_trip_s": (wall, "s"),
        "trace.calls": (calls, "count"),
        "trace.overhead_pct": (per(overhead, wall, 100.0), "%"),
    }
