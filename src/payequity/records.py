"""The workforce: columnar storage, CSV ingestion, validation, and output.

A worker row carries three categorical factors (geo, GJS, job), a
gender flag, three covariates, and an annualized USD salary. The
natural log of salary is the modeling target and is computed at load
time, never read from the file. Rows are held as one column per field
in a Workforce, together with the factor index built from them.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ContractViolation, EmptyDatasetError, SchemaError
from .factors import FactorIndex, build_factor_index

REQUIRED_COLUMNS = (
    "worker_id",
    "geo",
    "gjs",
    "job",
    "female",
    "recent_perf",
    "past_perf",
    "time_in_job",
    "salary",
)

# Exclusion reason codes, in the order the checks run.
MISSING_FIELD = "MISSING_FIELD"
INVALID_NUMBER = "INVALID_NUMBER"
INVALID_FEMALE = "INVALID_FEMALE"
NONPOSITIVE_SALARY = "NONPOSITIVE_SALARY"
NEGATIVE_TIME_IN_JOB = "NEGATIVE_TIME_IN_JOB"

_FEMALE_VALUES = {"1": True, "true": True, "0": False, "false": False}

# Rows parsed at once by load_csv: bounds the raw rows it holds.
_CHUNK_ROWS = 1 << 8


@dataclass(frozen=True, eq=False)
class Workforce:
    """One column per field, aligned with the factor index built from them.

    Worker i is entry i of every column and of index.g_of / index.j_of.
    Build one with from_columns, which checks that the columns agree
    in length and builds the index once.
    """

    worker_id: tuple[str, ...]
    geo: tuple[str, ...]
    gjs: tuple[str, ...]
    job: tuple[str, ...]
    female: np.ndarray      # bool
    recent: np.ndarray      # recent_perf
    past: np.ndarray        # past_perf
    tenure: np.ndarray      # time_in_job
    salary: np.ndarray
    log_salary: np.ndarray
    index: FactorIndex

    @classmethod
    def from_columns(cls, worker_id, geo, gjs, job, female, recent, past, tenure,
                     salary, log_salary=None) -> "Workforce":
        """Assemble a Workforce; log_salary defaults to log(salary)."""
        labels = [tuple(c) for c in (worker_id, geo, gjs, job)]
        numeric = [np.asarray(female, dtype=bool)]
        numeric += [np.asarray(c, dtype=float) for c in (recent, past, tenure, salary)]
        if log_salary is None:
            # libm's log value by value, so the target does not depend on
            # which vectorized log numpy dispatches to
            log_salary = [math.log(s) for s in numeric[-1].tolist()]
        numeric.append(np.asarray(log_salary, dtype=float))
        n = len(labels[0])
        if any(len(c) != n for c in labels + numeric):
            raise ContractViolation("workforce columns differ in length")
        return cls(*labels, *numeric, index=build_factor_index(*labels[1:], numeric[0]))

    @property
    def n(self) -> int:
        return len(self.worker_id)

    def __eq__(self, other):
        if not isinstance(other, Workforce):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.name != "index")


@dataclass(frozen=True)
class Exclusion:
    row_number: int  # 1-based position among data rows
    worker_id: str
    reason: str


class ExclusionLog:
    """Itemized record of dropped rows."""

    def __init__(self) -> None:
        self.rows: list[Exclusion] = []

    def add(self, row_number: int, worker_id: str, reason: str) -> None:
        self.rows.append(Exclusion(row_number, worker_id, reason))

    def __len__(self) -> int:
        return len(self.rows)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row_number", "worker_id", "reason_code"])
            for row in self.rows:
                writer.writerow([row.row_number, row.worker_id, row.reason])


def _validate_row(row: dict[str, str]) -> tuple[tuple | None, str | None]:
    """Return (values in REQUIRED_COLUMNS order, None) for a clean row
    or (None, reason_code)."""
    values = {}
    for col in REQUIRED_COLUMNS:
        raw = row.get(col)
        raw = raw.strip() if raw is not None else ""
        if not raw:
            return None, MISSING_FIELD
        values[col] = raw

    numeric = {}
    for col in ("recent_perf", "past_perf", "time_in_job", "salary"):
        try:
            x = float(values[col])
        except ValueError:
            return None, INVALID_NUMBER
        if not math.isfinite(x):
            return None, INVALID_NUMBER
        numeric[col] = x

    female = _FEMALE_VALUES.get(values["female"].lower())
    if female is None:
        return None, INVALID_FEMALE
    if numeric["salary"] <= 0.0:
        return None, NONPOSITIVE_SALARY
    if numeric["time_in_job"] < 0.0:
        return None, NEGATIVE_TIME_IN_JOB

    return (values["worker_id"], values["geo"], values["gjs"], values["job"], female,
            numeric["recent_perf"], numeric["past_perf"], numeric["time_in_job"],
            numeric["salary"]), None


def _floats(strings) -> np.ndarray:
    """float() of each string, NaN where float() raises ValueError."""
    try:
        return np.fromiter(map(float, strings), dtype=float, count=len(strings))
    except ValueError:
        def parse(s):
            try:
                return float(s)
            except ValueError:
                return math.nan
        return np.fromiter(map(parse, strings), dtype=float, count=len(strings))


def _parse_rows(rows, header, position, first_number, excluded):
    """Validate csv rows, the first of them data row first_number.

    Returns the clean rows as columns in REQUIRED_COLUMNS order: four
    lists of labels, then arrays of female, recent_perf, past_perf,
    time_in_job and salary.  The other rows go to excluded.
    """
    width = max(position.values()) + 1
    # a short row gets empty fields, which fail the missing-field check
    rows = [row if len(row) >= width else row + [""] * (width - len(row)) for row in rows]
    columns = list(zip(*rows))
    n = len(rows)
    labels = [[v.strip() for v in columns[position[col]]]
              for col in ("worker_id", "geo", "gjs", "job")]

    ok = np.ones(n, dtype=bool)
    for values in labels:
        if "" in values:
            ok &= np.fromiter(map(bool, values), dtype=bool, count=n)
    # float() ignores surrounding whitespace and fails on an empty field
    numeric = [_floats(columns[position[col]])
               for col in ("recent_perf", "past_perf", "time_in_job", "salary")]
    for values in numeric:
        ok &= np.isfinite(values)
    female = np.fromiter((_FEMALE_VALUES.get(v.strip().lower(), -1)
                          for v in columns[position["female"]]), dtype=np.int8, count=n)
    ok &= (female >= 0) & (numeric[3] > 0.0) & (numeric[2] >= 0.0)

    for k in np.flatnonzero(~ok).tolist():
        row = dict(zip(header, rows[k]))
        excluded.add(first_number + k, row["worker_id"].strip(), _validate_row(row)[1])
    keep = np.flatnonzero(ok)
    if keep.size < n:
        labels = [[values[k] for k in keep.tolist()] for values in labels]
    return [*labels, female[keep] == 1, *(values[keep] for values in numeric)]


def load_csv(path: str | Path) -> tuple[Workforce, ExclusionLog]:
    """Load and validate a workforce CSV.

    Rows violating any field constraint are dropped and itemized in the
    returned ExclusionLog with a reason code.  Raises SchemaError when a
    required column is absent and EmptyDatasetError when nothing
    survives validation.  I/O failures propagate as OSError.

    The file is parsed column by column, _CHUNK_ROWS rows at a time, and
    every check runs on whole columns; only the rows that fail one go
    through _validate_row, which gives each its first reason in check
    order.  As with csv.DictReader, blank lines are skipped and not
    numbered, fields past the header are ignored, and a column name
    given twice takes its last column.
    """
    excluded = ExclusionLog()
    chunks = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for col in REQUIRED_COLUMNS:
            if col not in header:
                raise SchemaError(f"missing required column: {col}")
        position = {name: k for k, name in enumerate(header) if name in REQUIRED_COLUMNS}
        rows = (row for row in reader if row)
        number = 1
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            chunks.append(_parse_rows(chunk, header, position, number, excluded))
            number += len(chunk)
    columns = [list(itertools.chain.from_iterable(c[k] for c in chunks)) for k in range(4)]
    if not columns[0]:
        raise EmptyDatasetError(f"no valid rows in {path}")
    columns += [np.concatenate([c[k] for c in chunks]) for k in range(4, 9)]
    return Workforce.from_columns(*columns), excluded


def write_csv(wf: Workforce, path: str | Path) -> None:
    """Write a Workforce so that load_csv reproduces it field for field.

    Floats are written with repr (shortest exact round-trip form).
    """
    female = ["1" if f else "0" for f in wf.female.tolist()]
    floats = [map(repr, c.tolist()) for c in (wf.recent, wf.past, wf.tenure, wf.salary)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        writer.writerows(zip(wf.worker_id, wf.geo, wf.gjs, wf.job, female, *floats))
