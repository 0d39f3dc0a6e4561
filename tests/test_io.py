"""Unit tests for edge-list and npz IO."""

import gzip
import io
import re

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import generators, weighting
from repro.graph.digraph import DiGraph
from repro.graph.io import (
    edge_list_to_string,
    load_npz,
    read_edge_list,
    save_npz,
    write_edge_list,
)


@pytest.fixture
def weighted_graph():
    return weighting.weighted_cascade(
        generators.preferential_attachment(30, 2, seed=0, directed=False)
    )


class TestTextRoundTrip:
    def test_round_trip_preserves_graph(self, weighted_graph, tmp_path):
        path = tmp_path / "graph.txt"
        write_edge_list(weighted_graph, path)
        loaded = read_edge_list(path)
        assert loaded == weighted_graph

    def test_round_trip_via_handles(self, weighted_graph):
        buffer = io.StringIO()
        write_edge_list(weighted_graph, buffer)
        buffer.seek(0)
        assert read_edge_list(buffer) == weighted_graph

    def test_gzip_round_trip(self, weighted_graph, tmp_path):
        """SNAP dumps ship gzipped; a .gz path is handled transparently."""
        path = tmp_path / "graph.txt.gz"
        write_edge_list(weighted_graph, path)
        # Really gzip on disk, not plain text with a misleading name.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert read_edge_list(path) == weighted_graph

    def test_gzip_reads_foreign_dump(self, tmp_path):
        """A gzipped edge list written by another tool parses the same."""
        import gzip

        path = tmp_path / "snap.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("# comment\n0 1 0.5\n1 2\n")
        graph = read_edge_list(path)
        assert graph.n == 3
        assert graph.m == 2
        assert graph.edge_probability(0, 1) == 0.5
        assert graph.edge_probability(1, 2) == 1.0

    def test_header_carries_node_count(self, tmp_path):
        # A trailing isolated node survives because of the header.
        g = generators.path_graph(3)
        from repro.graph.digraph import DiGraph

        g = DiGraph.from_edges(5, list(g.edges()))  # nodes 3, 4 isolated
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path).n == 5

    def test_missing_probability_defaults(self):
        text = "0 1\n1 2 0.25\n"
        g = read_edge_list(io.StringIO(text), default_probability=0.5)
        assert g.edge_probability(0, 1) == pytest.approx(0.5)
        assert g.edge_probability(1, 2) == pytest.approx(0.25)

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\n0 1 0.5\n"
        g = read_edge_list(io.StringIO(text))
        assert g.m == 1

    def test_explicit_n_parameter(self):
        g = read_edge_list(io.StringIO("0 1 0.5\n"), n=10)
        assert g.n == 10

    def test_malformed_line_rejected(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("0 1 0.5 extra junk\n"))

    def test_unparseable_numbers_rejected(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("zero one\n"))

    def test_nan_probability_rejected(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("0 1 nan\n"))

    def test_edge_list_to_string(self, weighted_graph):
        text = edge_list_to_string(weighted_graph)
        assert text.startswith("# nodes 30")
        assert len(text.splitlines()) == weighted_graph.m + 1


#: Node ids and header counts stay below 2**20, so no example allocates
#: more than a few MB; random byte runs lose any digit run long enough to
#: spell a larger id.
_ID = st.integers(0, 2**20 - 1)
_LINE = st.one_of(
    st.tuples(_ID, _ID).map(lambda t: f"{t[0]} {t[1]}".encode()),
    st.tuples(_ID, _ID, st.floats()).map(lambda t: f"{t[0]} {t[1]} {t[2]}".encode()),
    _ID.map(lambda n: f"# nodes {n} edges 0".encode()),
    st.binary(max_size=40).map(lambda b: re.sub(rb"[0-9_]{7,}", b" ", b)),
)


class TestMalformedInput:
    @seed(20261019)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        lines=st.lists(_LINE, max_size=12),
        gz=st.booleans(),
        keep=st.floats(0.0, 1.0),
    )
    def test_bytes_parse_or_raise_graph_error(self, tmp_path, lines, gz, keep):
        data = b"\n".join(lines)
        path = tmp_path / "g.txt"
        if gz:
            data = gzip.compress(data)
            data = data[: int(len(data) * keep)]  # keep == 1.0: whole stream
            path = tmp_path / "g.txt.gz"
        path.write_bytes(data)
        try:
            graph = read_edge_list(path)
        except GraphError:
            return
        assert isinstance(graph, DiGraph)

    @pytest.mark.parametrize(
        "data, match",
        [
            (b"0 99999999999999999999999\n", "line 1"),  # above int64
            (b"0 1\n-4 2\n", "line 2"),
            (b"# nodes 99999999999999999999999\n0 1\n", "line 1"),
            # A CSR the allocator refuses (7.28 TiB), or numpy cannot size.
            (b"0 1000000000000\n", "n=1000000000001"),
            (b"# nodes 1000000000000\n0 1\n", "n=1000000000000"),
            (b"0 4611686018427387904\n", "n=4611686018427387905"),
            (b"0 1\n\xff\xfe 2\n", "line 2"),  # not UTF-8
        ],
        ids=["id-overflow", "negative-id", "header-overflow", "huge-id",
             "huge-header", "unsizable-id", "not-utf8"],
    )
    def test_typed_error_names_the_line_or_n(self, tmp_path, data, match):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        with pytest.raises(GraphError, match=match):
            read_edge_list(path)

    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "g.txt.gz"
        path.write_bytes(gzip.compress(b"0 1\n1 2\n" * 500)[:-9])
        with pytest.raises(GraphError, match="past line"):
            read_edge_list(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="cannot open"):
            read_edge_list(tmp_path / "absent.txt")


class TestNpzRoundTrip:
    def test_round_trip(self, weighted_graph, tmp_path):
        path = tmp_path / "graph.npz"
        save_npz(weighted_graph, path)
        assert load_npz(path) == weighted_graph

    def test_missing_arrays_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez_compressed(path, n=np.array([3]))
        with pytest.raises(GraphError):
            load_npz(path)
