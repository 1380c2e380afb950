"""Immutable simple undirected graphs and the structural queries behind the bounds.

Vertices are ``0..n-1``. Edges are stored canonically: each pair ``(u, v)``
with ``u < v``, sorted lexicographically, no duplicates. All values are
immutable after construction and safe to share between threads or processes.

A ``Graph`` memoises these fields on first read, through :class:`_memo`, which
takes no lock:

* ``_indptr``, the CSR row pointer of its edge array (the edges each vertex
  heads), read by the degrees, the CSR, the connectivity labelling, the
  triangle test and ``threshold.decide_mc_at_least``;
* ``degrees``;
* ``_connected``: a walk over the neighbour masks up to ``_SMALL_EDGES`` edges
  and on dense graphs whose n x n bools fit one block of ``_BLOCK_BYTES``,
  otherwise :func:`_csr_connected` on the row pointer: scipy's labelling of
  every j-th edge when the mean degree is j >= 2 times ceil(ln n) + 4, and of
  all edges when that is lower or the sample is not connected;
* ``_adjacency``, one symmetric CSR adjacency matrix with sorted rows;
* ``_masks``, its neighbourhoods as Python-int bitmasks, read by the
  connectivity walk, vertex connectivity, certificate (a), the chromatic
  number, the exact search and the far-pair test of certificate (d).
  :func:`_neighbour_masks` builds them by a loop over the edges up to
  ``_SMALL_EDGES`` edges, and by one block scattered from the edge array when
  n x n bools fit it; above, they are a :class:`_MaskBlocks`, which cuts each
  block of CSR rows on its first read and keeps it.

Vertex connectivity reads nothing but the masks: its pairs' short paths, and
the augmenting searches that grow them, run on them, as certificate (a) does
on the complemented masks. The far-pair test reads masks only when the degrees
leave it open; past one block its rows cut only the blocks they read, so a far
pair near the start builds few. The triangle test reads none of it but the
degrees: it first looks for a triangle through vertex 0 in the rows of its
neighbours, and only when none exists orients the edge array into a CSR of its
own.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import connected_components as _scipy_components
from scipy.sparse.csgraph import shortest_path

from .errors import CapExceededError, NotConnectedError

MAX_VERTICES = 1 << 20
MAX_EDGES = 1 << 28

# working memory, in bytes, of one block of the array checks: the row blocks of
# the diameter and triangle tests and of the neighbour masks here, and of the
# coloring verifier; a graph whose n x n bools fit one block scatters its masks
# into one block with no CSR
_BLOCK_BYTES = 1 << 20

DEFAULT_CHI_CAP = 16  # exact chromatic number is exponential in n

# up to this many edges one loop over the edges builds the neighbour masks (on 2
# cores at m = 64, 9-16 us at n = 12..128 against 9-54 us for the one-block
# scatter, whose cost grows with n), and Graph._connected walks them: on 2 cores,
# building the masks and walking took 2.3 / 18 / 56 / 159 us at m = 6 / 66 / 220 /
# 437, scipy's labelling 93-173 us at any m, so 64 keeps the walk near 30 us
_SMALL_EDGES = 64

# past _SMALL_EDGES, Graph._connected still walks the masks of a graph whose
# n x n bools fit one block when n^2 <= _WALK_DENSITY * m: on 2 cores, at
# n = 300..1024, building the masks and walking took 0.6-1.0 of scipy's
# labelling at n^2/m = 4..10 (0.8 ms against 1.0 ms at n = 600, n^2/m = 8) and
# 1.0-1.2 of it at n^2/m = 16..20; at n <= 200 the walk won at every density.
# The masks it builds are then cached, at most an eighth of the edge array's bytes
_WALK_DENSITY = 10

EdgePair = tuple[int, int]


class _memo:
    """A method read as an attribute and computed on first read, which writes
    its value into the instance's ``__dict__`` under the method's name, so
    later reads find it there and never reach this descriptor.

    Python 3.12's ``functools.cached_property`` does the same; 3.11's takes a
    lock shared by every instance on each first read. This one takes none:
    threads that race on a first read may each compute the value, and the
    last to finish stores it, so every field it memoises must be a pure
    function of the immutable instance.
    """

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.build(instance)
        return value


class Graph:
    """Simple undirected graph in canonical form.

    ``edges`` may be any sequence of integer pairs already in canonical order
    (u < v, lexicographically sorted, no duplicates); violations are rejected.
    Use :meth:`from_pairs` to build from unordered pair data.
    """

    def __init__(self, n: int, edges: Sequence[EdgePair] | np.ndarray = ()):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError("vertex count must be an integer")
        n = int(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds limit {MAX_VERTICES}")
        arr = np.asarray(edges)
        if arr.shape in ((0,), (0, 2)):  # edgeless whatever the dtype: [] is float
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be a sequence of (u, v) pairs")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("edge endpoints must be integers")
        if arr.shape[0] > MAX_EDGES:
            raise ValueError(f"edge count {arr.shape[0]} exceeds limit {MAX_EDGES}")
        arr = arr.astype(np.int64, copy=True)
        if arr.shape[0]:
            if int(arr[:, 0].min()) < 0 or int(arr[:, 1].max()) >= n:
                raise ValueError("edge endpoint out of range")
            if (arr[:, 0] >= arr[:, 1]).any():
                raise ValueError("each edge must satisfy u < v (no self-loops)")
            keys = arr[:, 0] * n + arr[:, 1]
            if arr.shape[0] > 1 and not (np.diff(keys) > 0).all():
                raise ValueError("edges must be strictly increasing lexicographically")
        arr.flags.writeable = False
        self.n, self.m = n, arr.shape[0]
        self._array = arr

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from unordered pairs, normalizing each to (min, max) and sorting."""
        arr = np.asarray(list(pairs))
        if arr.ndim == 2 and arr.shape[1] == 2 and np.issubdtype(arr.dtype, np.integer):
            arr = np.sort(arr, axis=1)
            arr = arr[np.argsort(arr[:, 0] * n + arr[:, 1])]
            loops, repeats = arr[:, 0] == arr[:, 1], (arr[1:] == arr[:-1]).all(axis=1)
            if loops.any():
                raise ValueError(f"self-loop {tuple(arr[loops.argmax()].tolist())} not allowed")
            if repeats.any():
                raise ValueError(f"duplicate edge {tuple(arr[repeats.argmax()].tolist())}")
        return cls(n, arr)  # rejects other shapes, non-integer and out-of-range endpoints

    @property
    def edge_array(self) -> np.ndarray:
        """Read-only (m, 2) int64 array of edges in canonical order."""
        return self._array

    @_memo
    def edges(self) -> tuple[EdgePair, ...]:
        return tuple(map(tuple, self._array.tolist()))

    @_memo
    def edge_set(self) -> frozenset[EdgePair]:
        return frozenset(self.edges)

    @_memo
    def _indptr(self) -> np.ndarray:
        """Read-only CSR row pointer of the canonical edge array: vertex u heads
        the rows ``_indptr[u]:_indptr[u+1]``, its edges to higher vertices."""
        indptr = self._array[:, 0].searchsorted(np.arange(self.n + 1))
        indptr.flags.writeable = False
        return indptr

    @_memo
    def degrees(self) -> np.ndarray:
        # a vertex heads its edges to higher vertices, its row, and tails the rest
        indptr = self._indptr
        d = indptr[1:] - indptr[:-1]
        d += np.bincount(self._array[:, 1], minlength=self.n)
        d.flags.writeable = False
        return d

    @_memo
    def _connected(self) -> bool:
        # scipy's labelling costs about 0.1 ms and more with m (all 10^5 edges of
        # G(2000, 0.05) took 1.3-2.5 ms on 2 cores): small and dense graphs walk masks
        n, m = self.n, self.m
        if m < n - 1:
            return False
        if m > _SMALL_EDGES and n * n > min(_BLOCK_BYTES, _WALK_DENSITY * m):
            return _csr_connected(n, self._indptr, self._array[:, 1])
        full = (1 << n) - 1
        return _reach(self._masks, 1, full) == full

    @_memo
    def _masks(self) -> Sequence[int]:
        """Every vertex's neighbour mask (see :func:`_neighbour_masks`), kept
        for the life of the graph like its other fields: a list of all n^2/8
        bytes of bits up to one block, past it a :class:`_MaskBlocks` that
        keeps the blocks its readers have cut."""
        return _neighbour_masks(self)

    @_memo
    def _adjacency(self) -> csr_matrix:
        """Symmetric float32 CSR adjacency matrix, each row's columns ascending.

        Only its structure is read, never its values: by the spanning-tree BFS,
        ``diameter``, the cut-vertex DFS, and on graphs past ``_SMALL_EDGES``
        edges whose n x n bools take more than one block by
        :class:`_MaskBlocks`, which cuts their masks from it."""
        arr, n = self._array, self.n
        ones = np.ones(arr.shape[0], dtype=np.float32)
        # the canonical edge array is the upper triangle in CSR order
        upper = csr_matrix((ones, arr[:, 1], self._indptr), (n, n))
        adj = upper + upper.T
        adj.sort_indices()  # only a check: scipy's sum of canonical matrices is sorted
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edge_set

    def with_edge(self, u: int, v: int) -> "Graph":
        """New graph with one extra edge; rejects loops, out-of-range ends and existing edges."""
        return Graph.from_pairs(self.n, np.vstack((self._array, [(u, v)])))

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self.n, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _csr_components(n: int, indptr: np.ndarray, tails: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count and labels of the undirected graph on 0..n-1 whose
    vertex u has the edges to ``tails[indptr[u]:indptr[u+1]]``."""
    ones = np.ones(tails.shape[0])  # float64, the dtype scipy's traversal reads
    return _scipy_components(csr_matrix((ones, tails, indptr), shape=(n, n)), directed=False)


def _csr_connected(n: int, indptr: np.ndarray, tails: np.ndarray) -> bool:
    """Whether the graph of :func:`_csr_components`'s CSR is connected.

    With j = floor(2m / (n (ceil(ln n) + 4))), read from m and n alone, a
    graph with j >= 2 first labels the spanning subgraph of every j-th edge.
    Its mean degree is at least ceil(ln n) + 4, so on G(n, p) it is almost
    always connected when G is (Erdos & Renyi, 1960), and a connected spanning
    subgraph proves G connected. Edge k*j lies in row u iff indptr[u] <= k*j <
    indptr[u+1], so the subgraph's CSR is the row pointer divided by j,
    rounded up, over a strided view of the tails: no sort and no index array.
    Every other case, a sample that is not connected included, labels all m
    edges, so the answer is always that of the full labelling.
    """
    j = 2 * tails.shape[0] // (n * (math.ceil(math.log(n)) + 4))
    if j >= 2 and _csr_components(n, -(-indptr // j), tails[::j])[0] == 1:
        return True
    return _csr_components(n, indptr, tails)[0] == 1


def component_labels(n: int, heads: np.ndarray, tails: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count and per-vertex component label of the undirected graph
    on 0..n-1 with edges (heads[i], tails[i]); repeated edges are allowed.

    Non-decreasing heads (canonical edge order) are read as CSR rows in place;
    other edge orders go through a COO matrix.
    """
    if (heads[1:] >= heads[:-1]).all():
        return _csr_components(n, np.searchsorted(heads, np.arange(n + 1)), tails)
    mat = coo_matrix((np.ones(heads.shape[0]), (heads, tails)), shape=(n, n))
    return _scipy_components(mat, directed=False)


def is_connected(g: Graph) -> bool:
    """Whether g is connected; settled once per ``Graph`` and memoised (see
    ``Graph._connected``)."""
    return g._connected


def min_degree(g: Graph) -> int:
    return int(g.degrees.min())


def max_degree(g: Graph) -> int:
    return int(g.degrees.max())


def spanning_tree(g: Graph) -> tuple[EdgePair, ...]:
    """Deterministic spanning tree: breadth-first from vertex 0, neighbors ascending.

    Returns the tree's edges in canonical order, and raises when the search
    reaches fewer than n vertices. It runs on the graph's CSR, whose rows are
    sorted, so it visits each vertex's neighbours in ascending order.
    """
    order, pred = breadth_first_order(g._adjacency, 0, directed=True, return_predecessors=True)
    if order.size < g.n:
        raise NotConnectedError("graph is not connected")
    child = np.arange(1, g.n)
    parent = pred[1:].astype(np.int64)
    lo, hi = np.minimum(parent, child), np.maximum(parent, child)
    order = np.argsort(lo * g.n + hi)
    return tuple(zip(lo[order].tolist(), hi[order].tolist()))


def diameter(g: Graph) -> int | float:
    """Largest shortest-path distance; ``math.inf`` for disconnected graphs.

    Breadth-first distances come from scipy's unweighted shortest paths, a
    block of sources at a time, so each block's rows of the n-column distance
    array take about ``_BLOCK_BYTES``.
    """
    if not is_connected(g):
        return math.inf
    n, adj = g.n, g._adjacency
    rows = max(1, _BLOCK_BYTES // (8 * n))
    far = 0
    for start in range(0, n, rows):
        block = np.arange(start, min(start + rows, n))
        far = max(far, int(shortest_path(adj, unweighted=True, indices=block).max()))
    return far


def has_cut_vertex(g: Graph) -> bool:
    """True iff removing some single vertex disconnects its component.

    An iterative depth-first search over the CSR's rows (Hopcroft & Tarjan,
    1973) returns at the first cut vertex it proves: a vertex other than a
    root whose child's subtree reaches nothing above it, or a root whose
    second child's subtree finishes.
    """
    flat, ends = g._adjacency.indices.tolist(), g._adjacency.indptr.tolist()
    adj = [flat[start:end] for start, end in zip(ends, ends[1:])]
    disc, low = [-1] * g.n, [0] * g.n
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        split = False  # set when the root's first child finishes
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, parent, rest = stack[-1]
            for v in rest:
                if disc[v] == -1:
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, iter(adj[v])))
                    break
                if v != parent and disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if parent == -1:
                    continue
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if low[u] >= disc[parent]:  # always so for the root's children
                    if parent != root or split:
                        return True
                    split = True
    return False


def _neighbour_masks(g: Graph) -> Sequence[int]:
    """Every vertex's neighbour bitmask: bit u of the int for v is set iff u ~ v.

    Up to ``_SMALL_EDGES`` edges, where the block scatter costs as much or
    more, one loop over the edges sets the bits. Above, a graph whose n x n
    bools fit one block of ``_BLOCK_BYTES`` scatters both orientations of its
    edge array into that block and packs it to bytes, with no CSR. A larger
    graph gets a :class:`_MaskBlocks`, which cuts each block of rows from the
    CSR when one of its masks is first read, so a reader builds only the
    blocks it reads and holds one block of bool at a time, whatever n.
    """
    n = g.n
    if g.m <= _SMALL_EDGES:
        masks = [0] * n
        for u, v in g._array.tolist():
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks
    if n * n <= _BLOCK_BYTES:
        heads, tails = g._array.T
        block = np.zeros(n * n, dtype=bool)
        block[heads * n + tails] = True
        block[tails * n + heads] = True
        return _packed_rows(block.reshape(n, n))
    return _MaskBlocks(g)


class _MaskBlocks(dict):
    """The neighbour masks of a graph past one block, read as the sequence of
    them in vertex order: ``len`` is n, iteration yields every mask in vertex
    order, and ``[v]`` cuts v's block of rows, about ``_BLOCK_BYTES`` of bool,
    from the CSR adjacency on the block's first read.

    Hits take dict's own lookup. The store keeps every block its readers cut
    for the life of the graph: a far-pair scan that stops near the start
    leaves a block or a few, a reader of every row all n^2/8 bytes, as kappa's
    does. Threads racing on a first read may each cut the same block; its
    masks are pure, so the later write stores equal ints.
    """

    def __init__(self, g: Graph):
        super().__init__()
        self.n, self.adj, self.rows = g.n, g._adjacency, max(1, _BLOCK_BYTES // g.n)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return map(self.__getitem__, range(self.n))

    def __missing__(self, v: int) -> int:
        lo = v - v % self.rows
        ends = self.adj.indptr[lo : lo + self.rows + 1]
        rows = np.repeat(np.arange(len(ends) - 1), np.diff(ends))
        block = np.zeros((len(ends) - 1, self.n), dtype=bool)
        block[rows, self.adj.indices[ends[0] : ends[-1]]] = True
        self.update(enumerate(_packed_rows(block), lo))
        return self[v]


def _packed_rows(block: np.ndarray) -> list[int]:
    """Each row of a 2-D bool array as an int, column j at bit j."""
    width = (block.shape[1] + 7) // 8
    packed = np.packbits(block, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]


def _reach(masks: Sequence[int], seed: int, full: int) -> int:
    """The bitmask of the vertices joined to those of ``seed`` by a walk in the
    graph with neighbour masks ``masks``; it stops early once it holds ``full``."""
    reached = todo = seed
    while todo and reached != full:
        low = todo & -todo
        new = masks[low.bit_length() - 1] & ~reached
        reached |= new
        todo = todo ^ low | new
    return reached


def _complement(masks: Sequence[int]) -> list[int]:
    """The neighbour masks of the complement of the graph with ``masks``."""
    full = (1 << len(masks)) - 1
    return [full ^ mask ^ 1 << v for v, mask in enumerate(masks)]


def _has_far_pair(g: Graph) -> bool:
    """True iff two distinct vertices have no path of length at most 2 between them.

    On a connected graph this is exactly ``diameter(g) >= 3``. Two degree
    bounds answer first, with no mask: a vertex of degree n - 1 puts every pair
    within distance 2, so it answers no; and a vertex of least degree delta has
    at most 1 + delta * Delta vertices within distance 2, so 1 + delta * Delta
    < n answers yes.

    Otherwise only the rows outside N[h] are scanned, for h a vertex of
    largest degree: any two vertices of N[h] lie within distance 2 through h,
    so every far pair has an end outside N[h]. Each such vertex x ORs into its
    closed neighbourhood N[x] the masks of its neighbours, ascending, and
    stops as soon as the union holds every vertex; a row that runs out of
    neighbours first answers yes. It reads ``g._masks``; past one block that
    store cuts a block of rows only when a row first reads one of its masks,
    so a graph with a far pair near the start builds few of them. With no far
    pair nearly every block gets built: up to n^2/8 bytes of masks, as kappa's
    take, kept on the graph for the next reader.

    :func:`~mclab.coloring.exactness_certificate` reaches this test only when
    2m >= (n - Delta)(n - 3) + 3(n - 1). That needs Delta > n/2, so there the
    second bound fires only when delta = 1, and the masks outgrow the 16m
    bytes of the edge array only when Delta exceeds about n - n/64.
    """
    n, top = g.n, max_degree(g)
    if top == n - 1:
        return False
    if 1 + min_degree(g) * top < n:
        return True
    masks, full = g._masks, (1 << n) - 1
    h = int(g.degrees.argmax())
    outside = full ^ masks[h] ^ 1 << h
    while outside:
        low = outside & -outside
        outside ^= low
        x = low.bit_length() - 1
        rest = masks[x]
        reach = rest | (1 << x)
        while reach != full:
            if not rest:
                return True
            low = rest & -rest
            reach |= masks[low.bit_length() - 1]
            rest ^= low
    return False


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent.

    A triangle through vertex 0 answers first, with no pass over all m edges.
    Vertex 0's edges are the first rows of the canonical edge array, so its
    neighbourhood N(0) is a slice; such a triangle is an edge a-b, a < b, with
    both ends in N(0), and it lies in the rows of a. The graph's row pointer,
    n + 1 binary searches on the heads that the degrees share, gives the rows
    of each a in N(0), and their tails are looked up in a mark of N(0):
    O(Delta) plus the out-degrees d+(a) of N(0) past the row pointer.

    Otherwise vertices are ranked by (degree, vertex), and each edge points
    from its lower-ranked end to its higher, which gives a strictly
    upper-triangular CSR L on the ranks (Chiba & Nishizeki, 1985). A triangle
    x < y < z holds the path x-y-z of L @ L and the edge x-z of L, so the
    graph has one iff some row block of L @ L shares an entry with L. Row x
    of the product takes one multiplication per out-edge of each
    out-neighbour of x, row x of L @ outdeg, and the degree order keeps each
    out-degree at most sqrt(2m). Blocks are cut by that count: the first to
    1/64 of 1 MiB of product entries, each next one to twice its
    predecessor's share up to 1 MiB, whatever n. The test stops at the first
    block with a triangle, so an early triangle costs only a small block,
    while the six growing blocks of a triangle-free scan together hold about
    as much work as one full block.
    """
    n, arr, indptr = g.n, g.edge_array, g._indptr
    heads, tails = arr[:, 0], arr[:, 1]
    near = tails[: indptr[1]]  # N(0): vertex 0 heads the first rows
    mark = np.zeros(n, dtype=bool)
    mark[near] = True
    starts, stops = indptr[near], indptr[near + 1]
    counts = stops - starts  # the rows of each a in N(0), laid end to end
    rows = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    if mark[tails[rows]].any():
        return False
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(n)
    ru, rv = rank[heads], rank[tails]
    # edge x-z, x < z, as the key x * n + z: sorted keys list L in CSR order
    keys = np.sort(np.minimum(ru, rv) * n + np.maximum(ru, rv))
    ones = np.ones(g.m, dtype=np.float32)  # L @ L counts paths, at most n <= 2^24
    forward = csr_matrix((ones, keys % n, np.searchsorted(keys, np.arange(n + 1) * n)), (n, n))
    work = np.cumsum(forward @ np.diff(forward.indptr).astype(np.float64))
    limit = max(1, _BLOCK_BYTES // 8)  # an entry takes an int32 index and a float32 value
    budget, start = max(1, limit >> 6), 0
    while start < n:
        done = work[start - 1] if start else 0.0
        stop = max(start + 1, int(np.searchsorted(work, done + budget, side="right")))
        block = forward[start:stop]
        if (block @ forward).multiply(block).count_nonzero():
            return False
        budget, start = min(2 * budget, limit), stop
    return True


def complement(g: Graph) -> Graph:
    """The graph of the non-edges of g: the upper-triangle cells its edge array misses."""
    n, arr = g.n, g.edge_array
    if n * (n - 1) // 2 - g.m > MAX_EDGES:
        raise ValueError(f"complement edge count exceeds limit {MAX_EDGES}")
    absent = np.triu(np.ones((n, n), dtype=bool), 1)
    absent[arr[:, 0], arr[:, 1]] = False
    return Graph(n, np.argwhere(absent))


def _separating_pairs(masks: Sequence[int], v: int) -> Iterator[tuple[int, int]]:
    """Non-adjacent pairs (s, t), one at a time, whose least local connectivity
    is kappa on a non-complete graph with neighbour masks ``masks`` and v of
    minimum degree (Esfahanian & Hakimi, 1984): v and each non-neighbour,
    ascending, then each non-adjacent pair of v's neighbours, row by row. A
    minimum cut that misses v separates it from some non-neighbour; one that
    holds v separates two of v's neighbours: at most (n - 1 - delta) +
    delta(delta - 1)/2 pairs."""
    near = masks[v]
    far = ((1 << len(masks)) - 1) ^ near ^ 1 << v
    while far:
        low = far & -far
        yield v, low.bit_length() - 1
        far ^= low
    while near:
        a = (near & -near).bit_length() - 1
        near ^= 1 << a
        later = near & ~masks[a]
        while later:
            low = later & -later
            yield a, low.bit_length() - 1
            later ^= low


def _short_paths(
    masks: Sequence[int], s: int, t: int, need: int, pred: dict[int, int] | None = None
) -> int:
    """Internally disjoint s-t paths of length 2 and 3, counted until the
    count reaches ``need``; ``masks[v]`` has bit u set iff u ~ v.

    Each common neighbour c gives a path s-c-t. Short of ``need``, the edges
    a-b of a greedy matching between A, the neighbours of s that are not
    neighbours of t, and B, those of t not of s, add paths s-a-b-t. A and B
    are disjoint from each other and from the common neighbours, so no vertex
    but s and t lies on two of these paths. A's vertices go in ascending
    order of their number of partners in B, ties by vertex, and each takes
    its lowest free partner.

    Given ``pred``, a count short of ``need`` also records its paths there,
    each inner vertex mapped to the vertex before it: c and a to s, b to a.
    """
    common = masks[s] & masks[t]
    paths = common.bit_count()
    if paths >= need:
        return paths
    if pred is not None:
        while common:
            low = common & -common
            pred[low.bit_length() - 1] = s
            common ^= low
    side_s, side_t = masks[s] & ~masks[t], masks[t] & ~masks[s]
    options = []
    while side_s:
        low = side_s & -side_s
        a = low.bit_length() - 1
        options.append(((masks[a] & side_t).bit_count(), a))
        side_s ^= low
    options.sort()
    free = side_t
    for _, a in options:
        avail = masks[a] & free
        if avail:
            low = avail & -avail
            free ^= low
            if pred is not None:
                pred[a], pred[low.bit_length() - 1] = s, a
            paths += 1
            if paths == need:
                break
    return paths


def _augment(masks: Sequence[int], s: int, t: int, pred: dict[int, int]) -> bool:
    """Add one internally disjoint s-t path to those in ``pred`` (each inner
    vertex mapped to the vertex before it on its path), if the flow they
    carry has an augmenting path; True iff one was found.

    The search is breadth-first in the vertex-split residual network, where
    vertex v has an in-state 2v, entered along edges, and an out-state 2v + 1,
    left along edges, joined by an arc of capacity 1 that a path through v
    fills. From the out-state of x the search enters the in-state of every
    neighbour of x, and of x itself when x is on a path, undoing its arc. From
    the in-state of y it moves to y's out-state when y is free, and otherwise
    to the out-state of pred[y], undoing the edge pred[y]-y. Each level ORs
    the masks of its out-states, as :func:`_has_far_pair` does. The walk back
    from t enters each in-state from any out-state of the level before that
    holds it: a vertex of that level in its mask, since adjacency is
    symmetric, or the vertex itself.
    """
    flowing = 0
    for v in pred:
        flowing |= 1 << v
    seen = front = 1 << s
    levels, back = [], {}
    while front:
        levels.append(front)
        reach, rest = front & flowing, front
        while rest:
            low = rest & -rest
            reach |= masks[low.bit_length() - 1]
            rest ^= low
        reach &= ~seen
        if reach >> t & 1:
            break
        seen |= reach
        # no out-state is met twice: a free vertex's is reached from its own
        # in-state alone, and pred[y]'s from y's, its one successor
        front, rest = reach & ~flowing, reach & flowing
        while rest:
            low = rest & -rest
            y = low.bit_length() - 1
            if pred[y] != s:
                back[pred[y]] = y
                front |= 1 << pred[y]
            rest ^= low
    else:
        return False
    w = t
    for front in reversed(levels):
        link = masks[w] & front
        if link:  # the path runs x -> w
            x = (link & -link).bit_length() - 1
            if w != t:
                pred[w] = x
        else:  # from w's out-state back to its in-state: w leaves its path
            x = w
            del pred[w]
        w = back.get(x, x)
    return True


def _local_connectivity(masks: Sequence[int], s: int, t: int, need: int) -> int:
    """min(need, kappa(s, t)) for non-adjacent s and t: by Menger's theorem
    the most internally disjoint s-t paths, capped at ``need``.

    Most pairs stop at the count of :func:`_short_paths`. A pair that falls
    short counts again, recording its short paths, and grows them one
    augmenting search (:func:`_augment`) at a time until it has ``need`` of
    them or no search finds a path.
    """
    paths = _short_paths(masks, s, t, need)
    if paths < need:
        pred: dict[int, int] = {}
        _short_paths(masks, s, t, need, pred)
        while paths < need and _augment(masks, s, t, pred):
            paths += 1
    return min(paths, need)


def _least_pair_connectivity(masks: Sequence[int], v: int, cap: int, stop: int) -> int:
    """min(cap, kappa), or the first value at most ``stop`` the search meets, of
    the graph with neighbour masks ``masks``, v of minimum degree and ``cap``
    at most that degree: each pair of :func:`_separating_pairs` is capped at
    the running minimum (see :func:`_local_connectivity`)."""
    least = cap
    for s, t in _separating_pairs(masks, v):
        least = _local_connectivity(masks, s, t, least)
        if least <= stop:
            break
    return least


def _connectivity(g: Graph, cap: int, stop: int) -> int:
    """min(cap, kappa(g)), or the first value at most ``stop`` the search meets;
    kappa is 0 for a disconnected graph and n - 1 for a complete one, K_1 too.

    The cap is clipped to delta, which is n - 1 on a complete graph, before any
    mask is built, and a complete graph has no pair to lower it.
    """
    if not is_connected(g):
        return 0
    cap = min(cap, min_degree(g))
    if cap <= stop:
        return cap
    return _least_pair_connectivity(g._masks, int(g.degrees.argmin()), cap, stop)


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity: minimum vertex cut over all non-adjacent pairs,
    with the complete-graph convention n - 1; 0 for disconnected graphs.

    Bounds at most (n - 1 - delta) + delta(delta - 1)/2 pairs (see
    :func:`_separating_pairs`), and stops once the minimum reaches 1. Most
    pairs need no search: the common neighbours of the two ends, and the
    edges of a greedy matching between their other neighbours, give
    internally disjoint paths of length 2 and 3, at most kappa(s, t) of them,
    and a pair with as many as the running minimum cannot lower it (see
    :func:`_short_paths`). A pair that falls short grows its short paths by
    augmenting searches on the masks, only up to the running minimum (see
    :func:`_local_connectivity`).
    """
    return _connectivity(g, g.n, 1)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff the graph stays connected after removing any k - 1 vertices.

    Stops at the first pair of :func:`_separating_pairs` that fewer than k
    vertices separate. A pair needs no search when its common neighbours and
    the edges of a greedy matching between the other neighbours of its ends
    give k internally disjoint paths of length 2 and 3, since fewer than k
    vertices cannot cut them all (see :func:`_short_paths`); one short of k
    grows them by augmenting searches until it has k or none is left (see
    :func:`_local_connectivity`).
    """
    return k <= 0 or _connectivity(g, k, k - 1) == k


def chromatic_number(g: Graph, cap: int = DEFAULT_CHI_CAP) -> int:
    """Exact chromatic number by backtracking; exhaustive, so capped by n.

    Vertices go in (-degree, vertex) order into color classes held as vertex
    bitmasks, and k rises from a greedy clique's size until a k-coloring is
    found. No upper bound is needed: each vertex tries the open classes before
    it opens one, so the first descent is first-fit in the same order, and at
    the first-fit color count the search succeeds without backtracking.
    """
    n = g.n
    if n > cap:
        raise CapExceededError(f"graph too large for exact chromatic number (n={n} > cap={cap})")
    masks = g._masks
    order = (-g.degrees).argsort(kind="stable").tolist()
    clique = 0
    for v in order:
        if clique & ~masks[v] == 0:
            clique |= 1 << v
    classes: list[int] = []  # each failed search pops every class it opens

    def place(i: int, k: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for c, members in enumerate(classes):
            if members & masks[v] == 0:
                classes[c] = members | 1 << v
                if place(i + 1, k):
                    return True
                classes[c] = members
        # opening at most one new class per vertex breaks label symmetry
        if len(classes) < k:
            classes.append(1 << v)
            if place(i + 1, k):
                return True
            classes.pop()
        return False

    k = clique.bit_count()
    while not place(0, k):
        k += 1
    return k


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]))


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph(n, [(0, i) for i in range(1, n)])


def petersen_graph() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (5, 8), (6, 8), (6, 9), (7, 9)]
    return Graph(10, sorted(outer + spokes + inner))
