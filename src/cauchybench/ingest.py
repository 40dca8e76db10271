"""CSV ingestion for real-world regression data.

Built around the Seoul bike sharing demand file (hourly rental counts
with weather and calendar covariates) but schema-driven, so any CSV with
one target column can be loaded. Headers match schema names
order-insensitively, with parenthesized unit suffixes stripped
("Temperature(\N{DEGREE SIGN}C)" matches "Temperature"); the published
bike file carries a degree sign in a single-byte encoding, so decoding
falls back from UTF-8 to cp1252.

Categorical features are one-hot encoded with lexicographically ordered
category columns, making the feature layout a pure function of the
table and schema.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datagen import Dataset

__all__ = [
    "Role",
    "ColumnSchema",
    "Table",
    "IngestionError",
    "load_csv",
    "encode",
    "load_dataset",
    "schema_from_json",
    "SEOUL_BIKE_SCHEMA",
]


class IngestionError(ValueError):
    """A CSV could not be loaded or encoded; message carries the location."""


# Roles a schema column can play.
class Role:
    NUMERIC = "numeric_feature"
    CATEGORICAL = "categorical_feature"
    TARGET = "target"
    DROPPED = "dropped"

    ALL = (NUMERIC, CATEGORICAL, TARGET, DROPPED)


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    role: str

    def __post_init__(self):
        if self.role not in Role.ALL:
            raise ValueError(f"unknown column role {self.role!r}")


def _validate_schema(schema: list[ColumnSchema]) -> None:
    targets = [c for c in schema if c.role == Role.TARGET]
    features = [c for c in schema if c.role in (Role.NUMERIC, Role.CATEGORICAL)]
    if len(targets) != 1:
        raise ValueError(f"schema must declare exactly one target column, found {len(targets)}")
    if not features:
        raise ValueError("schema must declare at least one feature column")
    names = [c.name for c in schema]
    if len(set(names)) != len(names):
        raise ValueError("schema column names must be unique")


# Default featurization of the Seoul bike file: drop the date, keep the
# hour numeric, one-hot the three categoricals, predict the rental count.
SEOUL_BIKE_SCHEMA: tuple[ColumnSchema, ...] = (
    ColumnSchema("Date", Role.DROPPED),
    ColumnSchema("Rented Bike Count", Role.TARGET),
    ColumnSchema("Hour", Role.NUMERIC),
    ColumnSchema("Temperature", Role.NUMERIC),
    ColumnSchema("Humidity", Role.NUMERIC),
    ColumnSchema("Wind speed", Role.NUMERIC),
    ColumnSchema("Visibility", Role.NUMERIC),
    ColumnSchema("Dew point temperature", Role.NUMERIC),
    ColumnSchema("Solar Radiation", Role.NUMERIC),
    ColumnSchema("Rainfall", Role.NUMERIC),
    ColumnSchema("Snowfall", Role.NUMERIC),
    ColumnSchema("Seasons", Role.CATEGORICAL),
    ColumnSchema("Holiday", Role.CATEGORICAL),
    ColumnSchema("Functioning Day", Role.CATEGORICAL),
)


@dataclass
class Table:
    """Typed columns in schema order: floats for numeric/target, str otherwise."""

    columns: dict[str, list]
    n_rows: int


def _normalize(name: str) -> str:
    """Strip a parenthesized unit suffix and surrounding whitespace."""
    return name.split("(")[0].strip()


def _read_text(path: Path) -> str:
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("cp1252")


def load_csv(path, schema) -> Table:
    """Parse a CSV into typed columns, reordered to match the schema.

    Header matching is order-insensitive and ignores unit suffixes. Any
    numeric cell that fails to parse raises IngestionError naming its
    1-based data row and column.
    """
    schema = list(schema)
    _validate_schema(schema)
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"no such file: {path}")
    reader = csv.reader(_read_text(path).splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path} is empty") from None

    by_name = {h: i for i, h in enumerate(header)}
    by_norm = {_normalize(h): i for i, h in enumerate(header)}
    positions: dict[str, int] = {}
    for col in schema:
        idx = by_name.get(col.name, by_norm.get(_normalize(col.name)))
        if idx is None:
            raise IngestionError(f"{path}: header has no column matching {col.name!r}")
        positions[col.name] = idx
    matched = set(positions.values())
    extra = [h for i, h in enumerate(header) if i not in matched]
    if extra:
        raise IngestionError(f"{path}: columns not covered by the schema: {extra}")

    numeric_roles = (Role.NUMERIC, Role.TARGET)
    columns: dict[str, list] = {c.name: [] for c in schema}
    n_rows = 0
    for row_num, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise IngestionError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
        for col in schema:
            cell = row[positions[col.name]]
            if col.role in numeric_roles:
                try:
                    columns[col.name].append(float(cell))
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {row_num}, column {col.name!r}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            else:
                columns[col.name].append(cell)
        n_rows += 1
    if n_rows == 0:
        raise IngestionError(f"{path} has a header but no data rows")
    return Table(columns=columns, n_rows=n_rows)


def encode(table: Table, schema) -> Dataset:
    """Turn a typed table into a Dataset.

    Numeric features pass through; each categorical feature becomes one
    indicator column per category, categories sorted lexicographically.
    """
    schema = list(schema)
    _validate_schema(schema)
    feature_cols: list[np.ndarray] = []
    feature_names: list[str] = []
    used_categories: dict[str, list[str]] = {}
    target_name = next(c.name for c in schema if c.role == Role.TARGET)
    for col in schema:
        if col.role == Role.NUMERIC:
            feature_cols.append(np.asarray(table.columns[col.name], dtype=float))
            feature_names.append(col.name)
        elif col.role == Role.CATEGORICAL:
            values = table.columns[col.name]
            cats = sorted(set(values))
            used_categories[col.name] = cats
            for cat in cats:
                feature_cols.append(np.array([1.0 if v == cat else 0.0 for v in values]))
                feature_names.append(f"{col.name}={cat}")
    X = np.column_stack(feature_cols)
    y = np.asarray(table.columns[target_name], dtype=float)
    return Dataset(
        X,
        y,
        meta={
            "feature_names": feature_names,
            "target_name": target_name,
            "categories": used_categories,
        },
    )


def load_dataset(path, schema=SEOUL_BIKE_SCHEMA) -> Dataset:
    """load_csv followed by encode, recording the source path."""
    ds = encode(load_csv(path, schema), schema)
    ds.meta["source"] = str(path)
    return ds


def schema_from_json(path) -> list[ColumnSchema]:
    """Sidecar format: a JSON list of {"name": ..., "role": ...} objects."""
    with open(path) as fh:
        doc = json.load(fh)
    return [ColumnSchema(entry["name"], entry["role"]) for entry in doc]
