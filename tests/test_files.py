"""Edge-list and coloring text formats: round trips and line-numbered rejection."""

import io

import numpy as np
import pytest

from mclab.coloring import EdgeColoring, spanning_tree_coloring
from mclab.errors import FormatError
from mclab.files import read_coloring, read_edge_list, write_coloring, write_edge_list
from mclab.graphs import Graph, complete_graph, cycle_graph, petersen_graph
from mclab.sampling import RngSeed, sample_gnp


def test_edge_list_round_trip(tmp_path):
    for g in (Graph(1), Graph(3), cycle_graph(4), petersen_graph(),
              sample_gnp(30, 0.3, RngSeed(5))):
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


def test_edge_list_written_form(tmp_path):
    path = tmp_path / "k3.txt"
    write_edge_list(complete_graph(3), path)
    assert path.read_text() == "3 3\n0 1\n0 2\n1 2\n"
    write_edge_list(Graph(4), path)
    assert path.read_text() == "4 0\n"
    assert read_edge_list(path) == Graph(4)
    g = sample_gnp(300, 0.1, RngSeed(20))
    reference = io.StringIO()
    np.savetxt(reference, g.edge_array, fmt="%d")
    write_edge_list(g, path)
    assert path.read_bytes() == f"{g.n} {g.m}\n{reference.getvalue()}".encode()
    assert read_edge_list(path) == g


def test_edge_list_ignores_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# generated\n\n3 2\n# edges follow\n0 1\n\n1 2\n")
    g = read_edge_list(path)
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "missing 'n m' header"),
        ("# only comments\n", "missing 'n m' header"),
        ("3\n", "line 1"),
        ("a b\n", "line 1"),
        ("0 0\n", "invalid sizes"),
        ("3 1\n0 1 2\n", "line 2"),
        ("3 1\n1 0\n", "line 2"),
        ("3 1\n0 3\n", "line 2"),
        ("3 1\n1 1\n", "line 2"),
        ("3 2\n0 2\n0 1\n", "line 3"),
        ("3 2\n0 1\n0 1\n", "line 3"),
        ("3 1\n0 1\n1 2\n", "line 3"),
        ("3 2\n0 1\n", "expected 2 edges, found 1"),
    ],
)
def test_edge_list_rejects_malformed(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(FormatError) as err:
        read_edge_list(path)
    assert fragment in str(err.value)


def test_coloring_round_trip(tmp_path):
    g = cycle_graph(4)
    c = spanning_tree_coloring(g)
    path = tmp_path / "c.txt"
    write_coloring(c, path)
    assert path.read_text() == "2\n0\n0\n0\n1\n"
    assert read_coloring(path, g) == c


def test_coloring_round_trip_edgeless(tmp_path):
    g = Graph(3)
    c = EdgeColoring(g, [])
    path = tmp_path / "c.txt"
    write_coloring(c, path)
    assert path.read_text() == "0\n"  # the header alone
    assert read_coloring(path, g) == c


def test_coloring_read_canonicalizes(tmp_path):
    g = cycle_graph(4)
    path = tmp_path / "c.txt"
    path.write_text("2\n7\n7\n3\n7\n")
    c = read_coloring(path, g)
    assert c.labels == (0, 0, 1, 0)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "missing 'k' header"),
        ("x\n", "line 1"),
        ("-1\n", "line 1"),
        ("2\n0\n1\n", "2 labels"),  # too few for a 4-edge graph
        ("2\n0\n0\n1\n1\n0\n", "line 6"),
        ("3\n0\n0\n1\n1\n", "3 colors"),
        ("2\n0 1\n0\n1\n1\n", "line 2"),
    ],
)
def test_coloring_rejects_malformed(tmp_path, content, fragment):
    g = cycle_graph(4)
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(FormatError) as err:
        read_coloring(path, g)
    assert fragment in str(err.value)


def test_coloring_color_count_message(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("3\n0\n0\n1\n1\n")
    with pytest.raises(FormatError, match="header declares 3 colors but 2 distinct labels appear"):
        read_coloring(path, cycle_graph(4))


def test_coloring_wrong_edge_count_message(tmp_path):
    g = cycle_graph(4)
    path = tmp_path / "short.txt"
    path.write_text("1\n0\n0\n0\n")
    with pytest.raises(FormatError, match="3 labels"):
        read_coloring(path, g)
