"""The workforce: columnar storage, CSV ingestion, validation, and output.

A worker row carries three categorical factors (geo, GJS, job), a
gender flag, three covariates, and an annualized USD salary. The
natural log of salary is the modeling target and is computed at load
time, never read from the file. Rows are held as one column per field
in a Workforce, together with the factor index built from them.
"""

from __future__ import annotations

import csv
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


def load_csv(path: str | Path) -> tuple[Workforce, ExclusionLog]:
    """Load and validate a workforce CSV.

    Rows violating any field constraint are dropped and itemized in the
    returned ExclusionLog with a reason code.  Raises SchemaError when a
    required column is absent and EmptyDatasetError when nothing
    survives validation.  I/O failures propagate as OSError.
    """
    columns: list[list] = [[] for _ in REQUIRED_COLUMNS]
    excluded = ExclusionLog()
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in REQUIRED_COLUMNS:
            if col not in header:
                raise SchemaError(f"missing required column: {col}")
        for row_number, row in enumerate(reader, start=1):
            values, reason = _validate_row(row)
            if values is None:
                excluded.add(row_number, (row.get("worker_id") or "").strip(), reason)
            else:
                for column, value in zip(columns, values):
                    column.append(value)
    if not columns[0]:
        raise EmptyDatasetError(f"no valid rows in {path}")
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
