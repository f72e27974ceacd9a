import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from payequity import cli
from payequity.hmc import PosteriorDraws, SamplerConfig
from payequity.model import natural_param_names
from payequity.records import load_csv


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def simulate_small(tmp_path, name="sim", seed=5):
    out = tmp_path / name
    rc = cli.main(["simulate", "--out", str(out), "--seed", str(seed),
                   "--n-geos", "1", "--n-gjs", "2", "--n-jobs", "40",
                   "--max-group-size", "8", "--residual-scale", "0.25"])
    assert rc == 0
    return out


def fit_small(tmp_path, data, name="fit", seed=30, samples=50):
    out = tmp_path / name
    rc = cli.main(["fit", "--data", str(data), "--out", str(out),
                   "--chains", "2", "--warmup", "100",
                   "--samples", str(samples), "--leapfrog-steps", "16",
                   "--seed", str(seed)])
    assert rc == 0
    return out


# ---------------------------------------------------------------- simulate

def test_simulate_is_deterministic(tmp_path):
    a = simulate_small(tmp_path, "a")
    b = simulate_small(tmp_path, "b")
    assert sha(a / "data.csv") == sha(b / "data.csv")
    assert sha(a / "truth.txt") == sha(b / "truth.txt")


def test_simulate_seed_changes_output(tmp_path):
    a = simulate_small(tmp_path, "a", seed=5)
    b = simulate_small(tmp_path, "b", seed=6)
    assert sha(a / "data.csv") != sha(b / "data.csv")


def test_simulate_preset_prints_reference_imbalance(tmp_path, capsys):
    rc = cli.main(["simulate", "--out", str(tmp_path / "t1"),
                   "--reference-imbalance"])
    assert rc == 0
    out = capsys.readouterr().out
    row = next(line for line in out.split("\n") if line.startswith("job_geo"))
    fields = row.split()
    pct_single_gender, pct_single_worker = float(fields[-2]), float(fields[-1])
    assert abs(pct_single_gender - 68.2) <= 3.0
    assert abs(pct_single_worker - 40.9) <= 3.0


def test_simulate_missing_out_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--seed", "1"])
    assert exc.value.code == 2


def test_simulate_flags_beat_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("seed=5\nn_jobs=12\nfemale_rate=0.4\n"
                   "size_exponent=2.0\nmax_group_size=3\n")
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--out", str(out), "--config", str(cfg),
                   "--seed", "9", "--size-exponent", "0.5"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 9          # flag wins
    assert manifest["config"]["n_jobs"] == 12       # file beats default
    assert manifest["config"]["female_rate"] == 0.4
    assert manifest["config"]["group_size_law"] == {"exponent": 0.5, "max_size": 3}


def test_simulate_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("workers=100\n")
    rc = cli.main(["simulate", "--out", str(tmp_path / "x"),
                   "--config", str(cfg)])
    assert rc == 2


def test_simulate_manifest_records_run(tmp_path):
    out = simulate_small(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seeds"] == [5]
    assert set(manifest["outputs"]) == {"data.csv", "truth.txt"}
    assert manifest["outputs"]["data.csv"] == sha(out / "data.csv")
    assert "engine_version" in manifest and "created_utc" in manifest


# --------------------------------------------------------------------- fit

@pytest.fixture(scope="module")
def sim_and_fit(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clirun")
    sim = simulate_small(tmp)
    fit = fit_small(tmp, sim / "data.csv")
    return tmp, sim, fit


def test_fit_writes_draws_diagnostics_manifest(sim_and_fit):
    _, _, fit = sim_and_fit
    names = {p.name for p in fit.iterdir()}
    assert {"draws_chain00.npy", "draws_chain01.npy", "metadata.json",
            "diagnostics.csv", "diagnostics.txt", "manifest.json"} <= names
    manifest = json.loads((fit / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["config"]["sampler"]["n_chains"] == 2
    assert manifest["seeds"] == [30]
    assert len(manifest["inputs"]) == 1


def test_fit_single_chain_is_usage_error(sim_and_fit, tmp_path):
    tmp, sim, _ = sim_and_fit
    rc = cli.main(["fit", "--data", str(sim / "data.csv"),
                   "--out", str(tmp_path / "one"), "--chains", "1",
                   "--warmup", "10", "--samples", "10"])
    assert rc == 2


def test_fit_missing_data_file_is_usage_error(tmp_path):
    rc = cli.main(["fit", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "f")])
    assert rc == 2


def test_fit_rerun_same_seed_bit_identical(sim_and_fit, tmp_path):
    tmp, sim, fit = sim_and_fit
    again = fit_small(tmp_path, sim / "data.csv", "again")
    for name in ("draws_chain00.npy", "draws_chain01.npy",
                 "logp_chain00.npy", "logp_chain01.npy"):
        assert sha(fit / name) == sha(again / name), name


def test_fit_different_seed_changes_draws(sim_and_fit, tmp_path):
    tmp, sim, fit = sim_and_fit
    other = fit_small(tmp_path, sim / "data.csv", "other", seed=31)
    assert sha(fit / "draws_chain00.npy") != sha(other / "draws_chain00.npy")


# ---------------------------------------------------------------- diagnose

def test_diagnose_reruns_on_stored_draws(sim_and_fit, tmp_path, capsys):
    _, _, fit = sim_and_fit
    out = tmp_path / "diag"
    rc = cli.main(["diagnose", "--draws", str(fit), "--out", str(out),
                   "--traces"])
    assert rc == 0
    assert (out / "diagnostics.csv").exists()
    assert (out / "traces").is_dir()
    traces = sorted(out.glob("traces/trace_*.csv"))
    assert traces
    manifest = json.loads((out / "manifest.json").read_text())
    for path in traces:
        assert manifest["outputs"]["traces/" + path.name] == sha(path)
    assert manifest["inputs"] == {str(fit / "metadata.json"): sha(fit / "metadata.json")}
    assert manifest["outputs"]["diagnostics.csv"] == sha(out / "diagnostics.csv")
    with open(out / "diagnostics.csv") as fh:
        header = fh.readline().strip()
    assert header == "parameter_name,rhat,ess,flagged"


def test_diagnose_corrupted_draws_is_runtime_error(sim_and_fit, tmp_path, capsys):
    tmp, sim, fit = sim_and_fit
    broken = tmp_path / "broken"
    broken.mkdir()
    for p in fit.iterdir():
        (broken / p.name).write_bytes(p.read_bytes())
    with open(broken / "draws_chain00.npy", "ab") as fh:
        fh.write(b"\x00")
    rc = cli.main(["diagnose", "--draws", str(broken),
                   "--out", str(tmp_path / "d")])
    assert rc == 1

    # malformed metadata.json: truncated, a key missing, a value of the wrong type
    meta_text = (fit / "metadata.json").read_text()
    meta = json.loads(meta_text)
    no_key = {k: v for k, v in meta.items() if k != "file_digests"}
    wrong_type = dict(meta, config="n_chains=2")
    for name, text in (("truncated", meta_text[: len(meta_text) // 2]),
                       ("missing_key", json.dumps(no_key)),
                       ("wrong_type", json.dumps(wrong_type))):
        bad = tmp_path / name
        bad.mkdir()
        for p in fit.iterdir():
            (bad / p.name).write_bytes(p.read_bytes())
        (bad / "metadata.json").write_text(text)
        capsys.readouterr()
        rc = cli.main(["diagnose", "--draws", str(bad),
                       "--out", str(tmp_path / ("d_" + name))])
        assert rc == 1, name
        assert capsys.readouterr().err.startswith("error: "), name


# ------------------------------------------------------------------ report

def zero_slope_draws(data_path, out_dir, n=40):
    """Stored draws whose slope columns are all zero, tied to data_path."""
    records, _ = load_csv(data_path)
    index = records.index
    names = natural_param_names(index)
    rng = np.random.default_rng(0)
    mat = np.zeros((n, len(names)))
    G, J = index.n_gjs_geo, index.n_job_geo
    mat[:, :G] = 10.0 + 0.01 * rng.standard_normal((n, G))     # intercepts
    mat[:, 2 * G:2 * G + J] = 0.1 * rng.standard_normal((n, J))
    mat[:, -1] = 0.1                                           # sigma_resid
    config = SamplerConfig(n_chains=2, n_warmup=10, n_samples=n,
                           leapfrog_steps=4, base_seed=1)
    digest = hashlib.sha256(data_path.read_bytes()).hexdigest()
    draws = PosteriorDraws(
        chains=[mat, mat.copy()], logps=[np.zeros(n), np.zeros(n)],
        param_names=names, config=config, seeds=[1, 0],
        divergences=[0, 0], warmup_divergences=[0, 0],
        accept_rates=[1.0, 1.0], duration_s=0.1, G=G, J=J,
        data_digest=digest)
    draws.save(out_dir)
    return index


def test_report_zero_slopes_header_is_exactly_one(tmp_path, capsys):
    sim = simulate_small(tmp_path)
    draws_dir = tmp_path / "zero_draws"
    index = zero_slope_draws(sim / "data.csv", draws_dir)
    out = tmp_path / "rep"
    rc = cli.main(["report", "--draws", str(draws_dir),
                   "--data", str(sim / "data.csv"), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "adjusted cents-to-the-dollar: 1.0000" in printed
    with open(out / "groups.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + index.n_job_geo
    report = json.loads((out / "report.json").read_text())
    assert report["adjusted_cents_to_dollar"] == pytest.approx(1.0, abs=1e-12)
    assert report["raises"] == []
    manifest = json.loads((out / "manifest.json").read_text())
    meta = draws_dir / "metadata.json"
    assert manifest["inputs"][str(meta)] == sha(meta)


def test_report_digest_mismatch_is_usage_error(tmp_path):
    sim = simulate_small(tmp_path, "a", seed=5)
    other = simulate_small(tmp_path, "b", seed=6)
    draws_dir = tmp_path / "draws"
    zero_slope_draws(sim / "data.csv", draws_dir)
    rc = cli.main(["report", "--draws", str(draws_dir),
                   "--data", str(other / "data.csv"),
                   "--out", str(tmp_path / "rep")])
    assert rc == 2


def test_report_corrupted_draws_is_runtime_error(tmp_path):
    sim = simulate_small(tmp_path)
    draws_dir = tmp_path / "draws"
    zero_slope_draws(sim / "data.csv", draws_dir)
    meta = json.loads((draws_dir / "metadata.json").read_text())
    meta["file_digests"]["draws_chain00.npy"] = "0" * 64
    (draws_dir / "metadata.json").write_text(json.dumps(meta))
    rc = cli.main(["report", "--draws", str(draws_dir),
                   "--data", str(sim / "data.csv"),
                   "--out", str(tmp_path / "rep")])
    assert rc == 1


# ----------------------------------------------------------------- compare

def test_compare_writes_table(sim_and_fit, tmp_path, capsys):
    tmp, sim, fit = sim_and_fit
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--draws", str(fit),
                   "--data", str(sim / "data.csv"), "--out", str(out)])
    assert rc == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["job_geo", "n", "hlm_effect", "lm_effect", "lm_se"]
    records, _ = load_csv(sim / "data.csv")
    index = records.index
    assert len(rows) == 1 + index.n_job_geo
    sizes = [int(r[1]) for r in rows[1:]]
    assert sizes == sorted(sizes)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"][str(fit / "metadata.json")] == sha(fit / "metadata.json")


def test_compare_single_gender_groups_have_empty_lm_cells(sim_and_fit, tmp_path):
    tmp, sim, fit = sim_and_fit
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--draws", str(fit),
                   "--data", str(sim / "data.csv"), "--out", str(out)])
    assert rc == 0
    records, _ = load_csv(sim / "data.csv")
    index = records.index
    variant = index.gender_variant()
    labels_invariant = {index.job_geo_label(j) for j in range(index.n_job_geo)
                        if not variant[j]}
    assert labels_invariant, "fixture should contain single-gender groups"
    with open(out / "comparison.csv") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        if row[0] in labels_invariant:
            assert row[3] == "" and row[4] == ""
        else:
            assert row[3] != ""


def test_compare_digest_mismatch_is_usage_error(sim_and_fit, tmp_path):
    tmp, sim, fit = sim_and_fit
    other = simulate_small(tmp_path, "other", seed=77)
    rc = cli.main(["compare", "--draws", str(fit),
                   "--data", str(other / "data.csv"),
                   "--out", str(tmp_path / "cmp")])
    assert rc == 2


# ----------------------------------------------------------------- imports

def test_cli_import_does_not_load_scipy():
    """scipy is a test dependency only: no subcommand pays for importing it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, payequity.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.strip() == "[]"
