"""Each output check passes on a real round trip and reports a perturbation.

A tiny workforce goes through fit, diagnose --traces, report and compare
once; each test then edits one output value in a copy and asserts that
the check responsible for it reports the edit.

    python3 -m pytest roundtrip_bench
"""

import csv
import json
import shutil

import numpy as np

import checks
import convergence

def perturbed(tiny, tmp_path):
    """A copy of the round trip's outputs that a test may edit."""
    _, _, root = tiny
    copy = tmp_path / "copy"
    shutil.copytree(root, copy)
    return checks.Outputs(copy)


def rewrite_report(out, edit):
    rep = out.report_json()
    edit(rep)
    with open(out.report / "report.json", "w") as fh:
        json.dump(rep, fh)
    return rep


def report_problems(exp, out):
    names, chains = out.draws()
    rep = out.report_json()
    rec = checks.Recomputed(exp, names, chains)
    return checks.check_report(exp, rec, rep) + checks.check_raises(exp, rec, rep)


def test_unperturbed_outputs_pass_every_check(tiny):
    _, exp, root = tiny
    out = checks.Outputs(root)
    names, chains = out.draws()
    rep = out.report_json()
    assert checks.check_ingest(exp, out, names, rep) == []
    assert checks.check_draws(exp, names, chains) == []
    assert checks.check_traces(out, names, chains) == []
    assert checks.check_verdict(out, names, convergence.diagnose(chains)) == []
    assert report_problems(exp, out) == []
    assert checks.check_lm(exp, out) == []
    assert rep["raises"], "the fixture should recommend at least one raise"
    assert exp.single_gender, "the fixture should have a single-gender group"


def test_cents_to_the_dollar_perturbation_is_reported(tiny, tmp_path):
    _, exp, _ = tiny
    out = perturbed(tiny, tmp_path)
    rewrite_report(out, lambda r: r.update(
        adjusted_cents_to_dollar=r["adjusted_cents_to_dollar"] * (1 + 1e-6)))
    assert any("cents-to-the-dollar" in p for p in report_problems(exp, out))


def test_group_interval_perturbation_is_reported(tiny, tmp_path):
    _, exp, _ = tiny
    out = perturbed(tiny, tmp_path)
    rewrite_report(out, lambda r: r["groups"][0].update(ci_high=r["groups"][0]["ci_high"] + 1e-6))
    assert any("group effects" in p for p in report_problems(exp, out))


def test_raise_perturbation_is_reported(tiny, tmp_path):
    _, exp, _ = tiny
    out = perturbed(tiny, tmp_path)
    rewrite_report(out, lambda r: r["raises"][0].update(raise_usd=r["raises"][0]["raise_usd"] + 0.01))
    assert any("recomputed gap" in p for p in report_problems(exp, out))


def test_dropped_raise_is_reported(tiny, tmp_path):
    _, exp, _ = tiny
    out = perturbed(tiny, tmp_path)
    rewrite_report(out, lambda r: r["raises"].pop())
    assert any("missing" in p for p in report_problems(exp, out))


def test_lm_coefficient_perturbation_is_reported(tiny, tmp_path):
    _, exp, _ = tiny
    out = perturbed(tiny, tmp_path)
    path = out.compare / "comparison.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = next(i for i, r in enumerate(rows) if i and r[3])
    rows[k][3] = "%.6f" % (float(rows[k][3]) + 2e-6)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert any("LM female coefficients" in p for p in checks.check_lm(exp, out))


def test_lm_inestimable_set_is_checked(tiny, tmp_path):
    _, exp, _ = tiny
    out = perturbed(tiny, tmp_path)
    path = out.compare / "comparison.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = next(i for i, r in enumerate(rows) if i and r[3])
    rows[k][3] = ""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert any("LM-inestimable" in p for p in checks.check_lm(exp, out))


def test_trace_value_perturbation_is_reported(tiny, tmp_path):
    out = perturbed(tiny, tmp_path)
    names, chains = out.draws()
    path = checks.trace_file(out.diag, names[0])
    lines = path.read_text().split("\n")
    c, i, v = lines[5].split(",")
    lines[5] = "%s,%s,%r" % (c, i, float(v) + 1e-12)
    path.write_text("\n".join(lines))
    problems = checks.check_traces(out, names, chains)
    assert problems == ["trace of %s does not reproduce its draws" % names[0]]


def test_flipped_verdict_is_reported(tiny, tmp_path):
    out = perturbed(tiny, tmp_path)
    names, chains = out.draws()
    conv = convergence.diagnose(chains)
    path = out.diag / "diagnostics.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    k = int(np.argmax(conv.rhat_bulk))
    assert conv.rhat_bulk[k] > 1.2 and rows[k + 1][3] == "true"
    rows[k + 1][3] = "false"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert checks.check_verdict(out, names, conv)
