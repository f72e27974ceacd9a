"""Command-line entry point.

Subcommands cover the full workflow: simulate a workforce, fit the
hierarchical model, re-run diagnostics on stored draws, build the gap
report, and compare against the dummy-variable regression. Every
command writes a manifest.json into its output directory recording the
resolved configuration, seeds, input digests, and output digests, so a
run can be audited and reproduced.

Exit codes: 0 success, 1 runtime failure (I/O, integrity, sampler),
2 usage or contract error (bad flags, schema, digest mismatch).
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .baseline import (build_design_matrix, compare_estimates, fit_ols,
                       format_comparison_text, write_comparison_csv)
from .diagnostics import (convergence_report, export_traces,
                          format_diagnostics_text, write_diagnostics_csv)
from .errors import (ConfigError, ContractViolation, EmptyDatasetError,
                     IntegrityError, PayEquityError, SamplerRunError,
                     SchemaError)
from . import __version__
from .factors import summarize_imbalance
from .hmc import PosteriorDraws, SamplerConfig, _sha256_file, run_chains
from .kvconfig import parse_float, parse_int, read_kv
from .model import ModelSpec
from .records import load_csv, write_csv
from .report import (build_gap_report, counterfactual_predictions,
                     format_report_text, group_gap_summaries, write_group_csv,
                     write_report_json)
from .synthetic import (REFERENCE_IMBALANCE, GroupSizeLaw, SynthConfig,
                        config_summary, generate_synthetic)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _write_manifest(out_dir, command, config, seeds, inputs, outputs):
    """One manifest per output directory; outputs keyed by digest."""
    manifest = {
        "command": command,
        "engine_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config,
        "seeds": seeds,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "outputs": {str(Path(p).name): _sha256_file(p) for p in outputs},
    }
    path = Path(out_dir) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _prepare_out_dir(raw):
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- simulate

def _synth_config_from_args(args):
    """Assemble a SynthConfig honoring flags > config file > defaults."""
    if args.reference_imbalance:
        base = REFERENCE_IMBALANCE
    else:
        base = SynthConfig()
    if args.config:
        kv = read_kv(args.config)
        known = {
            "n_geos": ("n_geos", parse_int),
            "n_gjs": ("n_gjs", parse_int),
            "n_jobs": ("n_jobs", parse_int),
            "female_rate": ("female_rate", parse_float),
            "residual_scale": ("residual_scale", parse_float),
            "seed": ("seed", parse_int),
            "size_exponent": (None, parse_float),
            "max_group_size": (None, parse_int),
        }
        law = base.group_size_law
        updates = {}
        for key, raw in kv.items():
            if key not in known:
                raise ConfigError("unknown simulate config key: %s" % key)
            field_name, parser = known[key]
            value = parser(raw, key)
            if key == "size_exponent":
                law = replace(law, exponent=value)
            elif key == "max_group_size":
                law = replace(law, max_size=value)
            else:
                updates[field_name] = value
        base = replace(base, group_size_law=law, **updates)
    law = base.group_size_law
    if args.size_exponent is not None:
        law = replace(law, exponent=args.size_exponent)
    if args.max_group_size is not None:
        law = replace(law, max_size=args.max_group_size)
    updates = {"group_size_law": law}
    for flag, field_name in (("n_geos", "n_geos"), ("n_gjs", "n_gjs"),
                             ("n_jobs", "n_jobs"), ("female_rate", "female_rate"),
                             ("residual_scale", "residual_scale"), ("seed", "seed")):
        value = getattr(args, flag)
        if value is not None:
            updates[field_name] = value
    cfg = replace(base, **updates)
    cfg.validate()
    return cfg


def cmd_simulate(args):
    cfg = _synth_config_from_args(args)
    out = _prepare_out_dir(args.out)
    wf, truth = generate_synthetic(cfg)
    data_path = out / "data.csv"
    truth_path = out / "truth.txt"
    write_csv(wf, data_path)
    truth.write(truth_path)
    print("simulated %d workers: %d GJS-geo groups, %d job-geo groups"
          % (wf.n, wf.index.n_gjs_geo, wf.index.n_job_geo))
    if args.reference_imbalance:
        print(summarize_imbalance(wf).format_table())
    _write_manifest(out, "simulate", config_summary(cfg), [cfg.seed],
                    [args.config] if args.config else [],
                    [data_path, truth_path])
    return EXIT_OK


# --------------------------------------------------------------------- fit

def _sampler_config_from_args(args):
    if args.sampler_config:
        base = SamplerConfig.from_file(args.sampler_config)
    else:
        base = SamplerConfig()
    updates = {}
    for flag, field_name in (("chains", "n_chains"), ("warmup", "n_warmup"),
                             ("samples", "n_samples"),
                             ("leapfrog_steps", "leapfrog_steps"),
                             ("target_accept", "target_accept"),
                             ("seed", "base_seed")):
        value = getattr(args, flag)
        if value is not None:
            updates[field_name] = value
    cfg = replace(base, **updates)
    cfg.validate()
    return cfg


def cmd_fit(args):
    sampler_cfg = _sampler_config_from_args(args)
    if sampler_cfg.n_chains < 2:
        raise ContractViolation("need at least 2 chains for convergence diagnostics")
    spec = ModelSpec.from_file(args.model_config) if args.model_config else ModelSpec()
    wf, excluded = load_csv(args.data)
    out = _prepare_out_dir(args.out)
    digest = _sha256_file(args.data)

    t0 = time.time()
    draws = run_chains(wf, spec, sampler_cfg,
                       data_digest=digest, progress=args.progress)
    draws.save(out)

    summary = convergence_report([c for c in draws.chains],
                                 draws.param_names, threshold=args.rhat_threshold)
    diag_csv = out / "diagnostics.csv"
    write_diagnostics_csv(summary, diag_csv)
    diag_txt = out / "diagnostics.txt"
    with open(diag_txt, "w") as fh:
        fh.write(format_diagnostics_text(summary))
    if len(excluded):
        excl_path = out / "excluded_rows.csv"
        excluded.write_csv(excl_path)
        print("excluded %d invalid rows (see excluded_rows.csv)" % len(excluded))

    duration = time.time() - t0
    print("fit complete in %.1f s: %d chains x %d draws, %d parameters"
          % (duration, sampler_cfg.n_chains, sampler_cfg.n_samples,
             len(draws.param_names)))
    print("accept rates: %s  divergences: %s"
          % (["%.3f" % a for a in draws.accept_rates], draws.divergences))
    print("flagged parameters (rhat > %.2f): %d of %d (%.2f%%)"
          % (summary.threshold, summary.n_flagged, len(summary.entries),
             100.0 * summary.flagged_fraction))

    outputs = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    _write_manifest(
        out, "fit",
        {"sampler": {"n_chains": sampler_cfg.n_chains,
                     "n_warmup": sampler_cfg.n_warmup,
                     "n_samples": sampler_cfg.n_samples,
                     "leapfrog_steps": sampler_cfg.leapfrog_steps,
                     "target_accept": sampler_cfg.target_accept,
                     "base_seed": sampler_cfg.base_seed},
         "model": spec.as_dict(),
         "rhat_threshold": args.rhat_threshold},
        [sampler_cfg.base_seed], [args.data], outputs)
    return EXIT_OK


# ---------------------------------------------------------------- diagnose

def cmd_diagnose(args):
    draws = PosteriorDraws.load(args.draws)
    out = _prepare_out_dir(args.out)
    summary = convergence_report([c for c in draws.chains],
                                 draws.param_names, threshold=args.rhat_threshold)
    write_diagnostics_csv(summary, out / "diagnostics.csv")
    text = format_diagnostics_text(summary)
    with open(out / "diagnostics.txt", "w") as fh:
        fh.write(text)
    print(text, end="")
    if args.traces:
        trace_dir = out / "traces"
        export_traces([c for c in draws.chains], draws.param_names, trace_dir)
        print("trace CSVs written to %s" % trace_dir)
    outputs = sorted(p for p in out.iterdir()
                     if p.is_file() and p.name != "manifest.json")
    _write_manifest(out, "diagnose", {"rhat_threshold": args.rhat_threshold},
                    [], [], outputs)
    return EXIT_OK


# ------------------------------------------------------------------ report

def _load_draws_and_data(draws_dir, data_path):
    """Shared loader with the digest cross-check used by report/compare."""
    draws = PosteriorDraws.load(draws_dir)
    wf, _ = load_csv(data_path)
    digest = _sha256_file(data_path)
    if draws.data_digest is not None and draws.data_digest != digest:
        raise ContractViolation(
            "data file digest %s does not match the digest recorded with "
            "the draws (%s); refusing to mix runs" % (digest[:12], draws.data_digest[:12]))
    return draws, wf


def cmd_report(args):
    draws, wf = _load_draws_and_data(args.draws, args.data)
    out = _prepare_out_dir(args.out)
    report = build_gap_report(draws, wf, interval_mass=args.interval_mass)
    write_report_json(report, out / "report.json")
    text = format_report_text(report)
    with open(out / "report.txt", "w") as fh:
        fh.write(text)
    write_group_csv(report.summaries, out / "groups.csv")
    print(text.split("\n\n")[0])
    outputs = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    _write_manifest(out, "report", {"interval_mass": args.interval_mass},
                    [], [args.data], outputs)
    return EXIT_OK


# ----------------------------------------------------------------- compare

def cmd_compare(args):
    draws, wf = _load_draws_and_data(args.draws, args.data)
    out = _prepare_out_dir(args.out)
    pred = counterfactual_predictions(draws, wf)
    summaries = group_gap_summaries(draws, wf, predictions=pred)
    lm = fit_ols(build_design_matrix(wf), wf.log_salary)
    table = compare_estimates(summaries, lm, wf.index,
                              small_group_k=args.small_group_k)
    write_comparison_csv(table, out / "comparison.csv")
    text = format_comparison_text(table)
    with open(out / "comparison.txt", "w") as fh:
        fh.write(text)
    print(text.split("\n\n")[0])
    outputs = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    _write_manifest(out, "compare", {"small_group_k": args.small_group_k},
                    [], [args.data], outputs)
    return EXIT_OK


# -------------------------------------------------------------- arg wiring

def build_parser():
    parser = argparse.ArgumentParser(
        prog="payequity",
        description="Hierarchical Bayesian pay-equity analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic workforce CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--reference-imbalance", action="store_true",
                   help="use the reference imbalance profile and print its summary")
    p.add_argument("--seed", type=int)
    p.add_argument("--n-geos", dest="n_geos", type=int)
    p.add_argument("--n-gjs", dest="n_gjs", type=int)
    p.add_argument("--n-jobs", dest="n_jobs", type=int)
    p.add_argument("--female-rate", dest="female_rate", type=float)
    p.add_argument("--residual-scale", dest="residual_scale", type=float)
    p.add_argument("--size-exponent", dest="size_exponent", type=float)
    p.add_argument("--max-group-size", dest="max_group_size", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="sample the posterior for a workforce CSV")
    p.add_argument("--data", required=True, help="workforce CSV")
    p.add_argument("--out", required=True, help="output directory for draws")
    p.add_argument("--chains", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--leapfrog-steps", dest="leapfrog_steps", type=int)
    p.add_argument("--target-accept", dest="target_accept", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--sampler-config", help="key=value sampler config file")
    p.add_argument("--model-config", help="key=value prior config file")
    p.add_argument("--rhat-threshold", dest="rhat_threshold",
                   type=float, default=1.1)
    p.add_argument("--progress", action="store_true",
                   help="print sampling progress to stderr")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("diagnose", help="re-run diagnostics on stored draws")
    p.add_argument("--draws", required=True, help="directory written by fit")
    p.add_argument("--out", required=True)
    p.add_argument("--rhat-threshold", dest="rhat_threshold",
                   type=float, default=1.1)
    p.add_argument("--traces", action="store_true",
                   help="export per-parameter trace CSVs")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("report", help="build the wage-gap report from draws")
    p.add_argument("--draws", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--interval-mass", dest="interval_mass",
                   type=float, default=0.95)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="fit the dummy-variable LM and compare")
    p.add_argument("--draws", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--small-group-k", dest="small_group_k",
                   type=int, default=4)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError, EmptyDatasetError, ContractViolation) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (IntegrityError, SamplerRunError, PayEquityError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
