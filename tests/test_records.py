import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest

from payequity import records
from payequity.errors import EmptyDatasetError, SchemaError
from payequity.records import REQUIRED_COLUMNS, Workforce, load_csv, write_csv

HEADER = ",".join(REQUIRED_COLUMNS)
FIELDS = ("worker_id", "geo", "gjs", "job", "female", "recent_perf", "past_perf",
          "time_in_job", "salary")


def make_record(i=0, **overrides):
    fields = dict(
        worker_id="w%03d" % i,
        geo="geo0",
        gjs="E3",
        job="job0",
        female=bool(i % 2),
        recent_perf=0.1 * i,
        past_perf=-0.2,
        time_in_job=1.5,
        salary=100000.0 + i,
    )
    fields.update(overrides)
    fields["log_salary"] = math.log(fields["salary"])
    return SimpleNamespace(**fields)


def workforce(rows):
    """A Workforce holding the make_record rows, in order."""
    return Workforce.from_columns(*([getattr(r, f) for r in rows] for f in FIELDS))


def take(wf, rows):
    """A Workforce of wf's workers at positions rows, in that order."""
    columns = ("worker_id", "geo", "gjs", "job", "female", "recent", "past", "tenure",
               "salary", "log_salary")
    return Workforce.from_columns(*([getattr(wf, c)[i] for i in rows] for c in columns))


def write_lines(path, rows):
    path.write_text("\n".join([HEADER] + rows) + "\n")


def good_row(wid="w1", salary="100000"):
    return f"{wid},geo0,E3,job0,1,0.5,-0.3,2.0,{salary}"


def test_roundtrip_preserves_every_field(tmp_path):
    records = workforce([make_record(i) for i in range(7)])
    path = tmp_path / "data.csv"
    write_csv(records, path)
    loaded, excluded = load_csv(path)
    assert len(excluded) == 0
    assert loaded == records


def test_log_salary_computed_not_read(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, [good_row(salary="100000")])
    records, _ = load_csv(path)
    assert records.log_salary[0] == pytest.approx(math.log(100000.0), abs=1e-12)


def test_missing_column_raises_schema_error(tmp_path):
    path = tmp_path / "data.csv"
    cols = [c for c in REQUIRED_COLUMNS if c != "salary"]
    path.write_text(",".join(cols) + "\nw1,geo0,E3,job0,1,0.5,-0.3,2.0\n")
    with pytest.raises(SchemaError):
        load_csv(path)


def test_invalid_rows_excluded_with_reason(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, [
        good_row("w1"),
        "w2,geo0,E3,job0,1,0.5,-0.3,2.0,-5",        # nonpositive salary
        "w3,geo0,E3,job0,maybe,0.5,-0.3,2.0,100",   # bad female flag
        "w4,geo0,E3,job0,1,abc,-0.3,2.0,100",       # bad number
        "w5,geo0,E3,job0,1,0.5,-0.3,-1.0,100",      # negative tenure
        "w6,,E3,job0,1,0.5,-0.3,2.0,100",           # missing field
    ])
    records, excluded = load_csv(path)
    assert list(records.worker_id) == ["w1"]
    reasons = {e.worker_id: e.reason for e in excluded.rows}
    assert reasons["w2"] == "NONPOSITIVE_SALARY"
    assert reasons["w3"] == "INVALID_FEMALE"
    assert reasons["w4"] == "INVALID_NUMBER"
    assert reasons["w5"] == "NEGATIVE_TIME_IN_JOB"
    assert reasons["w6"] == "MISSING_FIELD"


def test_all_rows_invalid_raises_empty_dataset(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, ["w1,geo0,E3,job0,1,0.5,-0.3,2.0,0"])
    with pytest.raises(EmptyDatasetError):
        load_csv(path)


def test_nonfinite_numbers_rejected(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, [
        good_row("w1"),
        "w2,geo0,E3,job0,1,inf,-0.3,2.0,100",
        "w3,geo0,E3,job0,1,0.5,nan,2.0,100",
    ])
    records, excluded = load_csv(path)
    assert records.n == 1
    assert all(e.reason == "INVALID_NUMBER" for e in excluded.rows)


def test_female_flag_accepts_text_and_numeric_forms(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, [
        "w1,geo0,E3,job0,true,0.5,-0.3,2.0,100",
        "w2,geo0,E3,job0,FALSE,0.5,-0.3,2.0,100",
        "w3,geo0,E3,job0,0,0.5,-0.3,2.0,100",
    ])
    records, _ = load_csv(path)
    assert records.female.tolist() == [True, False, False]


def test_exclusion_log_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_lines(path, [good_row("w1"), "w2,geo0,E3,job0,1,x,-0.3,2.0,100"])
    _, excluded = load_csv(path)
    out = tmp_path / "excluded.csv"
    excluded.write_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "row_number,worker_id,reason_code"
    assert lines[1] == "2,w2,INVALID_NUMBER"


# ------------------------------------------------ row-wise oracle of load_csv

def oracle_load(path):
    """The loading rules restated row by row on csv.DictReader: returns the
    kept columns in FIELDS order and (row_number, worker_id, reason) per
    excluded row."""
    kept = [[] for _ in FIELDS]
    excluded = []
    with open(path, newline="", encoding="utf-8") as fh:
        for number, row in enumerate(csv.DictReader(fh), start=1):
            raw = {c: (row.get(c) or "").strip() for c in REQUIRED_COLUMNS}
            values, reason = dict(raw), None
            if not all(raw.values()):
                reason = "MISSING_FIELD"
            else:
                try:
                    for c in ("recent_perf", "past_perf", "time_in_job", "salary"):
                        values[c] = float(raw[c])
                        if not math.isfinite(values[c]):
                            raise ValueError(c)
                except ValueError:
                    reason = "INVALID_NUMBER"
            if reason is None:
                values["female"] = {"1": True, "true": True, "0": False,
                                    "false": False}.get(raw["female"].lower())
                if values["female"] is None:
                    reason = "INVALID_FEMALE"
                elif values["salary"] <= 0.0:
                    reason = "NONPOSITIVE_SALARY"
                elif values["time_in_job"] < 0.0:
                    reason = "NEGATIVE_TIME_IN_JOB"
            if reason is None:
                for column, field in zip(kept, FIELDS):
                    column.append(values[field])
            else:
                excluded.append((number, (row.get("worker_id") or "").strip(), reason))
    return kept, excluded


def messy_csv(path, n_rows=600, seed=31):
    """A CSV with reordered and extra columns, a repeated column name, padded
    fields, every female spelling, non-finite and malformed numbers, short
    and long rows, and blank lines, enough of each to hit every reason."""
    rng = np.random.default_rng(seed)

    def pick(*options):
        return options[rng.integers(len(options))]

    def mostly(good, *bad):
        """good, padded or not, and one of bad in about one case in 25"""
        return pick(*bad) if rng.random() < 0.04 else pick(good, good, " %s " % good)

    def number(x):
        return mostly(repr(x), "1_000.5", "inf", "-inf", "nan", "abc", "", "  ", "1e999")

    # salary is named twice; the last column is the one that counts
    header = ["salary", "job", "notes", "female", "worker_id", "time_in_job", "geo",
              "past_perf", "gjs", "recent_perf", "salary"]
    lines = [",".join(header)]
    for i in range(n_rows):
        fields = {
            "worker_id": mostly("w%04d" % i, '"w,%04d"' % i, ""),
            "geo": mostly(pick("geo0", "geo1", "geo2"), " "),
            "gjs": mostly(pick("E3", "E4"), ""),
            "job": mostly(pick("job0", "job1", "job2"), ""),
            "female": mostly(pick("0", "1", "true", "FALSE", "True"), "yes", "2", ""),
            "recent_perf": number(rng.normal()),
            "past_perf": number(rng.normal()),
            "time_in_job": mostly(number(rng.uniform(0, 5)), "-1.5", "-0.0", "0"),
            "salary": mostly(number(rng.lognormal(11, 0.3)), "0", "-5", "-0.0"),
            "notes": pick("", "x", "a b"),
        }
        row = [fields.get(name, "") for name in header]
        row[0] = pick("junk", "-1", "")                 # the first salary column
        # the row short or long by a few fields, now and then
        row = (row + ["extra", "more"])[:pick(*[len(row)] * 20, 3, len(row) - 1,
                                                 len(row) + 2)]
        lines.append(",".join(row))
        if rng.random() < 0.05:
            lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
def test_columnar_load_matches_row_wise_rules(tmp_path, monkeypatch, chunk_rows):
    if chunk_rows is not None:   # row numbers and columns carry over chunks
        monkeypatch.setattr(records, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "messy.csv"
    messy_csv(path)
    kept, expected_log = oracle_load(path)
    assert {r for _, _, r in expected_log} == {
        "MISSING_FIELD", "INVALID_NUMBER", "INVALID_FEMALE", "NONPOSITIVE_SALARY",
        "NEGATIVE_TIME_IN_JOB"}
    assert len(kept[0]) >= 5

    wf, excluded = load_csv(path)
    assert wf == Workforce.from_columns(*kept)
    assert [(e.row_number, e.worker_id, e.reason) for e in excluded.rows] == expected_log
