import json

import numpy as np
import pytest

from cauchybench.datagen import export_csv, make_hc2
from cauchybench.ingest import (
    SEOUL_BIKE_SCHEMA,
    ColumnSchema,
    IngestionError,
    Role,
    encode,
    load_csv,
    load_dataset,
    schema_from_json,
)

from ._surrogate import real_bike_csv, write_surrogate_bike_csv

SMALL_SCHEMA = [
    ColumnSchema("Temperature", Role.NUMERIC),
    ColumnSchema("Season", Role.CATEGORICAL),
    ColumnSchema("Count", Role.TARGET),
]


def write(tmp_path, text, name="t.csv", encoding="utf-8"):
    p = tmp_path / name
    p.write_bytes(text.encode(encoding))
    return p


class TestLoadCsv:
    def test_three_row_fixture(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count\n1.5,A,10\n2.5,B,20\n-3,A,0\n")
        table = load_csv(p, SMALL_SCHEMA)
        assert table.n_rows == 3
        assert table.columns["Temperature"] == [1.5, 2.5, -3.0]
        assert table.columns["Season"] == ["A", "B", "A"]
        assert table.columns["Count"] == [10.0, 20.0, 0.0]

    def test_reordered_header_gives_identical_table(self, tmp_path):
        a = load_csv(
            write(tmp_path, "Temperature,Season,Count\n1,A,10\n2,B,20\n", "a.csv"), SMALL_SCHEMA
        )
        b = load_csv(
            write(tmp_path, "Count,Temperature,Season\n10,1,A\n20,2,B\n", "b.csv"), SMALL_SCHEMA
        )
        assert a.columns == b.columns

    def test_bad_numeric_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count\n1,A,10\nabc,B,20\n3,A,30\n")
        with pytest.raises(IngestionError, match=r"row 2.*'Temperature'.*'abc'"):
            load_csv(p, SMALL_SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="no such file"):
            load_csv(tmp_path / "nope.csv", SMALL_SCHEMA)

    def test_header_mismatch(self, tmp_path):
        p = write(tmp_path, "Temp,Season,Count\n1,A,2\n")
        with pytest.raises(IngestionError, match="no column matching 'Temperature'"):
            load_csv(p, SMALL_SCHEMA)

    def test_extra_columns_rejected(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count,Bogus\n1,A,2,x\n")
        with pytest.raises(IngestionError, match="not covered"):
            load_csv(p, SMALL_SCHEMA)

    def test_unit_suffixes_and_cp1252_degrees(self, tmp_path):
        text = "Temperature(\N{DEGREE SIGN}C),Season,Count\n1.5,A,10\n"
        p = write(tmp_path, text, encoding="cp1252")
        table = load_csv(p, SMALL_SCHEMA)
        assert table.columns["Temperature"] == [1.5]

    def test_empty_data_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="no data rows"):
            load_csv(write(tmp_path, "Temperature,Season,Count\n"), SMALL_SCHEMA)


class TestEncode:
    def test_one_hot_layout(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count\n1,A,10\n2,B,20\n3,A,30\n")
        ds = encode(load_csv(p, SMALL_SCHEMA), SMALL_SCHEMA)
        assert ds.meta["feature_names"] == ["Temperature", "Season=A", "Season=B"]
        assert np.array_equal(ds.X[:, 1:], [[1, 0], [0, 1], [1, 0]])
        assert np.array_equal(ds.y, [10, 20, 30])

    def test_all_numeric_passthrough(self, tmp_path):
        schema = [
            ColumnSchema("a", Role.NUMERIC),
            ColumnSchema("b", Role.NUMERIC),
            ColumnSchema("y", Role.TARGET),
        ]
        p = write(tmp_path, "a,b,y\n1,4,7\n2,5,8\n3,6,9\n")
        ds = encode(load_csv(p, schema), schema)
        assert np.array_equal(ds.X, [[1, 4], [2, 5], [3, 6]])

    def test_deterministic_category_order(self, tmp_path):
        # Categories sort lexicographically no matter the row order.
        p = write(tmp_path, "Temperature,Season,Count\n1,Z,1\n2,A,2\n3,M,3\n")
        ds = encode(load_csv(p, SMALL_SCHEMA), SMALL_SCHEMA)
        assert ds.meta["feature_names"] == ["Temperature", "Season=A", "Season=M", "Season=Z"]

    def test_no_target_leakage(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count\n1,A,10\n")
        ds = encode(load_csv(p, SMALL_SCHEMA), SMALL_SCHEMA)
        assert "Count" not in ds.meta["feature_names"]
        assert ds.meta["target_name"] == "Count"

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            load_csv("x.csv", [ColumnSchema("a", Role.NUMERIC)])  # no target
        with pytest.raises(ValueError):
            load_csv("x.csv", [ColumnSchema("y", Role.TARGET)])  # no features
        with pytest.raises(ValueError):
            ColumnSchema("a", "mystery_role")

    def test_round_trip_through_dataset_csv(self, tmp_path):
        ds = make_hc2(20, seed=1)
        out = tmp_path / "hc2.csv"
        export_csv(ds, out)
        schema = [ColumnSchema("x1", Role.NUMERIC), ColumnSchema("x2", Role.NUMERIC),
                  ColumnSchema("y", Role.TARGET)]
        back = encode(load_csv(out, schema), schema)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)


class TestSchemaJson:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps([{"name": c.name, "role": c.role} for c in SMALL_SCHEMA]))
        back = schema_from_json(p)
        assert back == SMALL_SCHEMA


class TestBikeFile:
    def test_surrogate_loads_with_default_schema(self, tmp_path):
        path = write_surrogate_bike_csv(tmp_path / "bike.csv", n_rows=240)
        ds = load_dataset(path)
        # 9 numeric + 4 seasons + 2 holiday + 2 functioning = 17 columns
        assert ds.X.shape == (240, 17)
        assert ds.meta["target_name"] == "Rented Bike Count"
        assert "Seasons=Winter" in ds.meta["feature_names"]
        assert np.all(ds.y >= 0)

    def test_real_file_shape_if_available(self):
        path = real_bike_csv()
        if path is None:
            pytest.skip("real Seoul bike CSV not present (set SEOUL_BIKE_CSV)")
        ds = load_dataset(path)
        assert len(ds) == 8760  # one year of hourly records
        assert ds.meta["target_name"] == "Rented Bike Count"
