"""Text formats for graphs and colorings.

Edge list: a header line ``n m`` followed by m lines ``u v`` in canonical
order (0-based, u < v, lexicographically sorted, no duplicates). Coloring: a
header line ``k`` followed by one integer label per edge, aligned with the
canonical edge order. Lines starting with ``#`` and blank lines are ignored.
Violations raise :class:`FormatError` naming the offending line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from .coloring import EdgeColoring
from .errors import FormatError
from .graphs import Graph


def _significant_lines(path: Path) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _parse_ints(lineno: int, line: str, expected: int, what: str) -> list[int]:
    tokens = line.split()
    if len(tokens) != expected:
        raise FormatError(f"line {lineno}: expected {what}, got {line!r}")
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"line {lineno}: expected {what}, got {line!r}") from None


def read_edge_list(path: str | Path) -> Graph:
    """Parse an edge-list file, enforcing canonical form line by line."""
    path = Path(path)
    lines = _significant_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("line 1: missing 'n m' header") from None
    n, m = _parse_ints(lineno, header, 2, "'n m' header")
    if n < 1 or m < 0:
        raise FormatError(f"line {lineno}: invalid sizes n={n}, m={m}")
    edges: list[tuple[int, int]] = []
    prev: tuple[int, int] | None = None
    for lineno, line in lines:
        if len(edges) == m:
            raise FormatError(f"line {lineno}: more than {m} edges")
        u, v = _parse_ints(lineno, line, 2, "edge 'u v'")
        if not (0 <= u < v < n):
            raise FormatError(f"line {lineno}: edge ({u}, {v}) is not canonical for n={n}")
        if prev is not None and (u, v) <= prev:
            raise FormatError(f"line {lineno}: edge ({u}, {v}) out of lexicographic order")
        prev = (u, v)
        edges.append((u, v))
    if len(edges) != m:
        raise FormatError(f"expected {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_edge_list(g: Graph, path: str | Path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        fh.write("".join(f"{u} {v}\n" for u, v in g.edge_array.tolist()))


def read_coloring(path: str | Path, g: Graph) -> EdgeColoring:
    """Parse a coloring file for graph g; labels are canonicalized on read."""
    path = Path(path)
    lines = _significant_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("line 1: missing 'k' header") from None
    (k,) = _parse_ints(lineno, header, 1, "'k' header")
    if k < 0:
        raise FormatError(f"line {lineno}: color count must be non-negative, got {k}")
    labels: list[int] = []
    for lineno, line in lines:
        if len(labels) == g.m:
            raise FormatError(f"line {lineno}: more labels than the graph's {g.m} edges")
        (lab,) = _parse_ints(lineno, line, 1, "integer label")
        labels.append(lab)
    if len(labels) != g.m:
        raise FormatError(f"coloring has {len(labels)} labels but the graph has {g.m} edges")
    coloring = EdgeColoring.from_labels(g, labels)
    if coloring.num_colors != k:
        raise FormatError(f"header declares {k} colors but {coloring.num_colors} distinct labels appear")
    return coloring


def write_coloring(c: EdgeColoring, path: str | Path) -> None:
    with open(Path(path), "w", encoding="utf-8") as fh:
        fh.write(f"{c.num_colors}\n")
        for lab in c.labels:
            fh.write(f"{lab}\n")
