"""CSV ingestion for real-world regression data.

Built around the Seoul bike sharing demand file (hourly rental counts
with weather and calendar covariates) but schema-driven, so any CSV with
one target column can be loaded. Headers match schema names
order-insensitively, with parenthesized unit suffixes stripped
("Temperature(°C)" matches "Temperature"); the published
bike file carries a degree sign in a single-byte encoding, so decoding
falls back from UTF-8 to cp1252. A leading UTF-8 byte-order mark, which
Excel's "CSV UTF-8" format writes, is dropped.

Categorical features are one-hot encoded with lexicographically ordered
category columns, making the feature layout a pure function of the
table and schema.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .datagen import Dataset

__all__ = [
    "IngestionError",
    "load_dataset",
    "schema_from_json",
    "SEOUL_BIKE_SCHEMA",
]


class IngestionError(ValueError):
    """A CSV or schema that is malformed or unfit for the run; ``cauchybench`` exits 1 on it."""


# The roles a schema column can play: a schema maps each column name to one
# of them, in the order of the features.
_ROLES = ("numeric_feature", "categorical_feature", "target", "dropped")


def _validate_schema(schema: Mapping[str, str], source: str = "schema") -> None:
    """The check every schema passes: known roles, exactly one target and
    at least one feature. Each message starts with ``source``."""
    for i, (name, role) in enumerate(schema.items()):
        if role not in _ROLES:
            raise IngestionError(
                f"{source}: entry {i} ({name!r}) has unknown column role {role!r}; "
                f"expected one of {', '.join(_ROLES)}"
            )
    roles = list(schema.values())
    if roles.count("target") != 1:
        raise IngestionError(f"{source}: needs exactly one target column, found {roles.count('target')}")
    if "numeric_feature" not in roles and "categorical_feature" not in roles:
        raise IngestionError(f"{source}: needs at least one feature column")


# Default featurization of the Seoul bike file: drop the date, keep the
# hour numeric, one-hot the three categoricals, predict the rental count.
SEOUL_BIKE_SCHEMA: Mapping[str, str] = MappingProxyType({
    "Date": "dropped",
    "Rented Bike Count": "target",
    "Hour": "numeric_feature",
    "Temperature": "numeric_feature",
    "Humidity": "numeric_feature",
    "Wind speed": "numeric_feature",
    "Visibility": "numeric_feature",
    "Dew point temperature": "numeric_feature",
    "Solar Radiation": "numeric_feature",
    "Rainfall": "numeric_feature",
    "Snowfall": "numeric_feature",
    "Seasons": "categorical_feature",
    "Holiday": "categorical_feature",
    "Functioning Day": "categorical_feature",
})


def _normalize(name: str) -> str:
    """Strip a parenthesized unit suffix and surrounding whitespace."""
    return name.split("(")[0].strip()


def _read_text(path: Path) -> str:
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        try:
            return raw.decode("cp1252")
        except UnicodeDecodeError as err:
            raise IngestionError(f"{path}: neither UTF-8 nor cp1252 text: {err}") from None


def _csv_rows(lines: list[str], path: Path):
    """The CSV's rows, header first. A row the csv module cannot parse, such
    as one with a field over its size limit, is an IngestionError naming its
    1-based data row."""
    reader = csv.reader(lines)
    for row_num in itertools.count():
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            where = f"row {row_num}" if row_num else "header"
            raise IngestionError(f"{path}: {where}: {err}") from None
        yield row


def load_dataset(path, schema: Mapping[str, str] = SEOUL_BIKE_SCHEMA) -> Dataset:
    """Parse a CSV and encode it as a Dataset whose meta records the source path.

    ``schema`` maps each column name to its role, in the order of the
    features. Header matching is order-insensitive and ignores unit
    suffixes. Any numeric cell that does not parse as a finite number raises
    IngestionError naming its 1-based data row and column; a row the csv
    module refuses raises one naming the row. Numeric
    features pass through; each categorical feature becomes one indicator
    column per category, categories sorted lexicographically.
    """
    _validate_schema(schema)
    source = str(path)
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"no such file: {path}")
    reader = _csv_rows(_read_text(path).splitlines(), path)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path} is empty") from None

    by_name = {h: i for i, h in enumerate(header)}
    by_norm = {_normalize(h): i for i, h in enumerate(header)}
    positions: dict[str, int] = {}
    bound: dict[int, str] = {}  # header index -> the schema column bound to it
    for name in schema:
        idx = by_name.get(name, by_norm.get(_normalize(name)))
        if idx is None:
            raise IngestionError(f"{path}: header has no column matching {name!r}")
        if idx in bound:
            raise IngestionError(
                f"{path}: schema columns {bound[idx]!r} and {name!r} "
                f"both match header column {header[idx]!r}"
            )
        positions[name], bound[idx] = idx, name
    extra = [h for i, h in enumerate(header) if i not in bound]
    if extra:
        raise IngestionError(f"{path}: columns not covered by the schema: {extra}")

    # Typed columns: floats for numeric features and the target, str otherwise.
    columns: dict[str, list] = {name: [] for name in schema}
    for row_num, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise IngestionError(f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}")
        for name, role in schema.items():
            cell = row[positions[name]]
            if role in ("numeric_feature", "target"):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):  # nan, inf and 1e999 parse, but are no data
                    raise IngestionError(
                        f"{path}: row {row_num}, column {name!r}: "
                        f"cannot parse {cell!r} as a finite number"
                    )
                columns[name].append(value)
            else:
                columns[name].append(cell)
    target_name = next(name for name, role in schema.items() if role == "target")
    if not columns[target_name]:
        raise IngestionError(f"{path} has a header but no data rows")

    feature_cols: list[np.ndarray] = []
    feature_names: list[str] = []
    used_categories: dict[str, list[str]] = {}
    for name, role in schema.items():
        if role == "numeric_feature":
            feature_cols.append(np.asarray(columns[name], dtype=float))
            feature_names.append(name)
        elif role == "categorical_feature":
            values = columns[name]
            cats = sorted(set(values))
            used_categories[name] = cats
            for cat in cats:
                feature_cols.append(np.array([1.0 if v == cat else 0.0 for v in values]))
                feature_names.append(f"{name}={cat}")
    X = np.column_stack(feature_cols)
    y = np.asarray(columns[target_name], dtype=float)
    return Dataset(
        X,
        y,
        meta={
            "feature_names": feature_names,
            "target_name": target_name,
            "categories": used_categories,
            "source": source,
        },
    )


def schema_from_json(path) -> dict[str, str]:
    """The schema of a sidecar, a JSON list of {"name": <string>, "role": ...}
    objects in column order; every error names the file and the entry."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise IngestionError(f"{path} is not JSON: {err}") from None
    if not isinstance(doc, list):
        raise IngestionError(f"{path}: a schema must be a JSON list of {{name, role}} objects")
    schema: dict[str, str] = {}
    for i, entry in enumerate(doc):
        keys_ok = isinstance(entry, dict) and set(entry) == {"name", "role"}
        if not (keys_ok and isinstance(entry["name"], str)):
            raise IngestionError(f"{path}: entry {i} is not {{name: <string>, role}}: {entry!r}")
        if entry["name"] in schema:
            raise IngestionError(f"{path}: entry {i} repeats the column name {entry['name']!r}")
        schema[entry["name"]] = entry["role"]
    _validate_schema(schema, str(path))
    return schema
