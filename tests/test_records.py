import math
from types import SimpleNamespace

import pytest

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
