import numpy as np
import pytest

from graphsdp.fileio import (
    GsetGraph,
    dump_matrix,
    load_matrix,
    parse_gset,
    read_csv,
    render_gset,
    write_csv,
    write_json,
)
from graphsdp.linalg import InvalidInputError
from graphsdp.models import SyncParams, gen_sync


class TestCoordinateFormat:
    def test_round_trip_real(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((6, 6))
        M = (M + M.T) / 2
        M[np.abs(M) < 0.3] = 0.0
        path = tmp_path / "m.coo"
        dump_matrix(M, path)
        assert np.array_equal(load_matrix(path), M)

    def test_round_trip_hermitian(self, tmp_path):
        inst = gen_sync(SyncParams(n=5, sigma=0.4), seed=1)
        path = tmp_path / "h.coo"
        dump_matrix(inst.observed, path)
        back = load_matrix(path)
        assert np.array_equal(back, inst.observed)

    def test_header_and_indexing(self, tmp_path):
        M = np.array([[0.0, 2.0], [2.0, 0.0]])
        path = tmp_path / "x.coo"
        dump_matrix(M, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 1"
        assert lines[1] == "1 2 2.0"

    def test_rejects_duplicate_entries(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("2 2\n1 2 1.0\n1 2 2.0\n")
        with pytest.raises(InvalidInputError):
            load_matrix(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("2 1\n1 3 1.0\n")
        with pytest.raises(InvalidInputError):
            load_matrix(path)


class TestGset:
    def test_parse_simple(self):
        g = parse_gset("3 2\n1 2 1\n2 3 -1\n")
        A = g.adjacency()
        assert g.n == 3 and g.m == 2
        assert A[0, 1] == 1.0 and A[1, 2] == -1.0 and A[0, 2] == 0.0

    def test_weight_defaults_to_one(self):
        g = parse_gset("2 1\n1 2\n")
        assert g.edges == ((0, 1, 1.0),)

    def test_index_out_of_range_with_line_number(self):
        with pytest.raises(InvalidInputError, match="line 2"):
            parse_gset("2 1\n1 3 1\n")

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInputError, match="self-loop"):
            parse_gset("2 1\n1 1 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidInputError, match="duplicate"):
            parse_gset("3 2\n1 2 1\n2 1 1\n")

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected_with_line_number(self, weight):
        with pytest.raises(InvalidInputError, match="line 3: non-finite weight"):
            parse_gset(f"3 2\n1 2 1\n2 3 {weight}\n")

    def test_count_mismatch(self):
        with pytest.raises(InvalidInputError, match="advertises"):
            parse_gset("3 3\n1 2 1\n2 3 1\n")

    def test_round_trip(self):
        g = parse_gset("4 3\n1 2 1\n2 3 -1\n3 4 2\n")
        assert parse_gset(render_gset(g)) == g

    def test_average_degree(self):
        g = GsetGraph(n=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        assert g.average_degree == pytest.approx(1.0)


class TestCsvJson:
    def test_csv_round_trip_and_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [{"a": 1, "b": 0.5, "c": "ok"}, {"a": 2, "c": "err"}]
        write_csv(path, ("a", "b", "c"), rows)
        header, back = read_csv(path)
        assert header == ["a", "b", "c"]
        assert back[0]["b"] == "0.5"
        assert back[1]["b"] == ""

    def test_json_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        obj = {"z": np.float64(0.1), "a": np.arange(3), "flag": np.bool_(True)}
        write_json(obj, p1)
        write_json(obj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert b'"a"' in p1.read_bytes()
