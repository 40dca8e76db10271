import json

import numpy as np
import pytest

from cauchybench.datagen import export_csv, make_hc2
from cauchybench.ingest import (
    SEOUL_BIKE_SCHEMA,
    ColumnSchema,
    IngestionError,
    Role,
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
        ds = load_dataset(p, SMALL_SCHEMA)
        assert len(ds) == 3
        assert ds.X[:, 0].tolist() == [1.5, 2.5, -3.0]
        assert ds.meta["categories"] == {"Season": ["A", "B"]}
        assert ds.X[:, 1:].tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]  # A, B, A
        assert ds.y.tolist() == [10.0, 20.0, 0.0]

    def test_reordered_header_gives_identical_table(self, tmp_path):
        a = load_dataset(
            write(tmp_path, "Temperature,Season,Count\n1,A,10\n2,B,20\n", "a.csv"), SMALL_SCHEMA
        )
        b = load_dataset(
            write(tmp_path, "Count,Temperature,Season\n10,1,A\n20,2,B\n", "b.csv"), SMALL_SCHEMA
        )
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        assert {**a.meta, "source": None} == {**b.meta, "source": None}

    def test_bad_numeric_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count\n1,A,10\nabc,B,20\n3,A,30\n")
        with pytest.raises(IngestionError, match=r"row 2.*'Temperature'.*'abc'"):
            load_dataset(p, SMALL_SCHEMA)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    @pytest.mark.parametrize("column", ["Temperature", "Count"])
    def test_non_finite_numeric_cell_names_row_and_column(self, tmp_path, cell, column):
        rows = [["1", "A", "10"], ["2", "B", "20"], ["3", "A", "30"]]
        rows[2][0 if column == "Temperature" else 2] = cell
        text = "Temperature,Season,Count\n" + "".join(",".join(r) + "\n" for r in rows)
        p = write(tmp_path, text)
        with pytest.raises(IngestionError) as exc:
            load_dataset(p, SMALL_SCHEMA)
        assert str(exc.value) == f"{p}: row 3, column {column!r}: cannot parse {cell!r} as a finite number"

    @pytest.mark.parametrize("row, where", [(0, "header"), (2, "row 2")])
    def test_a_row_the_csv_module_refuses_names_the_row(self, tmp_path, row, where):
        lines = ["Temperature,Season,Count", "1,A,10", "2,B,20", "3,A,30"]
        lines[row] = "x" * 200_000 + lines[row]  # a field past the csv module's size limit
        p = write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(IngestionError) as exc:
            load_dataset(p, SMALL_SCHEMA)
        assert str(exc.value) == f"{p}: {where}: field larger than field limit (131072)"

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="no such file"):
            load_dataset(tmp_path / "nope.csv", SMALL_SCHEMA)

    def test_header_mismatch(self, tmp_path):
        p = write(tmp_path, "Temp,Season,Count\n1,A,2\n")
        with pytest.raises(IngestionError, match="no column matching 'Temperature'"):
            load_dataset(p, SMALL_SCHEMA)

    def test_extra_columns_rejected(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count,Bogus\n1,A,2,x\n")
        with pytest.raises(IngestionError, match="not covered"):
            load_dataset(p, SMALL_SCHEMA)

    def test_target_and_feature_bound_to_one_column_rejected(self, tmp_path):
        p = write(tmp_path, "Count(n),Temp\n5,1\n6,2\n")
        schema = [
            ColumnSchema("Count", Role.NUMERIC),
            ColumnSchema("Count(x)", Role.TARGET),
            ColumnSchema("Temp", Role.NUMERIC),
        ]
        with pytest.raises(IngestionError) as exc:
            load_dataset(p, schema)
        assert str(exc.value) == (
            f"{p}: schema columns 'Count' and 'Count(x)' both match header column 'Count(n)'"
        )

    def test_two_features_bound_to_one_column_rejected(self, tmp_path):
        p = write(tmp_path, "Temperature(C),Count\n1.5,10\n")
        schema = [
            ColumnSchema("Temperature", Role.NUMERIC),
            ColumnSchema("Temperature(C)", Role.NUMERIC),
            ColumnSchema("Count", Role.TARGET),
        ]
        with pytest.raises(IngestionError) as exc:
            load_dataset(p, schema)
        assert str(exc.value) == (
            f"{p}: schema columns 'Temperature' and 'Temperature(C)' "
            "both match header column 'Temperature(C)'"
        )

    def test_unit_suffixes_and_cp1252_degrees(self, tmp_path):
        text = "Temperature(\N{DEGREE SIGN}C),Season,Count\n1.5,A,10\n"
        p = write(tmp_path, text, encoding="cp1252")
        ds = load_dataset(p, SMALL_SCHEMA)
        assert ds.X[:, 0].tolist() == [1.5]

    def test_utf8_byte_order_mark_and_cp1252_load_as_plain_utf8(self, tmp_path):
        # Excel's "CSV UTF-8" format starts the file with a byte-order mark,
        # right before the first header column.
        text = "Temperature(\N{DEGREE SIGN}C),Season,Count\n1.5,A,10\n2.5,B,20\n"
        plain = load_dataset(write(tmp_path, text, "plain.csv"), SMALL_SCHEMA)
        for encoding in ("utf-8-sig", "cp1252"):
            other = load_dataset(write(tmp_path, text, f"{encoding}.csv", encoding), SMALL_SCHEMA)
            assert np.array_equal(other.X, plain.X) and np.array_equal(other.y, plain.y), encoding
            assert {**other.meta, "source": None} == {**plain.meta, "source": None}, encoding

    def test_empty_data_rejected(self, tmp_path):
        with pytest.raises(IngestionError, match="no data rows"):
            load_dataset(write(tmp_path, "Temperature,Season,Count\n"), SMALL_SCHEMA)


class TestEncode:
    def test_one_hot_layout(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count\n1,A,10\n2,B,20\n3,A,30\n")
        ds = load_dataset(p, SMALL_SCHEMA)
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
        ds = load_dataset(p, schema)
        assert np.array_equal(ds.X, [[1, 4], [2, 5], [3, 6]])

    def test_deterministic_category_order(self, tmp_path):
        # Categories sort lexicographically no matter the row order.
        p = write(tmp_path, "Temperature,Season,Count\n1,Z,1\n2,A,2\n3,M,3\n")
        ds = load_dataset(p, SMALL_SCHEMA)
        assert ds.meta["feature_names"] == ["Temperature", "Season=A", "Season=M", "Season=Z"]

    def test_no_target_leakage(self, tmp_path):
        p = write(tmp_path, "Temperature,Season,Count\n1,A,10\n")
        ds = load_dataset(p, SMALL_SCHEMA)
        assert "Count" not in ds.meta["feature_names"]
        assert ds.meta["target_name"] == "Count"

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            load_dataset("x.csv", [ColumnSchema("a", Role.NUMERIC)])  # no target
        with pytest.raises(ValueError):
            load_dataset("x.csv", [ColumnSchema("y", Role.TARGET)])  # no features
        with pytest.raises(ValueError):
            ColumnSchema("a", "mystery_role")

    def test_round_trip_through_dataset_csv(self, tmp_path):
        ds = make_hc2(20, seed=1)
        out = tmp_path / "hc2.csv"
        export_csv(ds, out)
        schema = [ColumnSchema("x1", Role.NUMERIC), ColumnSchema("x2", Role.NUMERIC),
                  ColumnSchema("y", Role.TARGET)]
        back = load_dataset(out, schema)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)


class TestSchemaJson:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps([{"name": c.name, "role": c.role} for c in SMALL_SCHEMA]))
        back = schema_from_json(p)
        assert back == SMALL_SCHEMA

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"name": "Count", "role": "target"}, "JSON list"),
            ([{"name": "Temperature", "role": "numeric_feature"}, {"role": "target"}], "entry 1"),
            ([{"name": "Count", "role": "target", "unit": "n"}], "entry 0"),
            ([{"name": 3, "role": "target"}], "entry 0"),
            ([{"name": "Count", "role": "target"}, "Season"], "entry 1"),
        ],
    )
    def test_malformed_sidecar_names_the_entry(self, tmp_path, doc, where):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(IngestionError, match=where):
            schema_from_json(p)


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
