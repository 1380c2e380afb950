"""Brute-force reference implementations used only by the test suite.

Everything here favors obviousness over speed: direct definitions, exhaustive
enumeration, no shared code with the library under test.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from mclab.graphs import Graph


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def pair_at(index, n):
    """The pair (u, v), u < v, of lexicographic rank `index` among the pairs of
    0..n-1: the row u is the root of a quadratic, taken by exact isqrt."""
    total = n * (n - 1) // 2
    if not (0 <= index < total):
        raise ValueError(f"pair index {index} out of range for n={n}")
    tn = 2 * n - 1
    u = (tn - math.isqrt(tn * tn - 8 * index)) // 2
    base = u * n - u * (u + 1) // 2
    if base > index:
        u -= 1
        base = u * n - u * (u + 1) // 2
    return u, index - base + u + 1


def edge_classes(edges, labels):
    """Edges grouped by color label 0..k-1, one edge list per color."""
    classes = [[] for _ in range(max(labels, default=-1) + 1)]
    for edge, label in zip(edges, labels):
        classes[label].append(edge)
    return classes


def all_edge_subsets(n):
    """Every labeled graph on n vertices, as an edge list."""
    pairs = all_pairs(n)
    for mask in range(1 << len(pairs)):
        yield [p for i, p in enumerate(pairs) if (mask >> i) & 1]


def all_graphs(n):
    for edges in all_edge_subsets(n):
        yield Graph(n, edges)


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_components(n, edges, skip=()):
    """Connected components by plain DFS; `skip` simulates vertex removal."""
    adj = adjacency(n, edges)
    skip = set(skip)
    seen = set(skip)
    comps = []
    for s in range(n):
        if s in seen:
            continue
        stack = [s]
        seen.add(s)
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    __slots__ = ("parent", "size", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.count -= 1
        return True


def brute_connected(n, edges):
    return len(brute_components(n, edges)) == 1


def bfs_spanning_tree(n, edges):
    """Spanning tree by a Python BFS from vertex 0 over ascending neighbour
    lists, in canonical order; None if the graph is disconnected."""
    adj = [sorted(nbrs) for nbrs in adjacency(n, edges)]
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    tree = []
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                tree.append((min(u, v), max(u, v)))
                queue.append(v)
    return tuple(sorted(tree)) if all(seen) else None


def brute_separating_pairs(n, edges):
    """Esfahanian-Hakimi pairs of a connected, non-complete graph, by definition:
    v is the smallest vertex of least degree; v with each non-neighbour in
    ascending order, then the non-adjacent pairs of v's neighbours in
    lexicographic order."""
    adj = adjacency(n, edges)
    v = min(range(n), key=lambda x: (len(adj[x]), x))
    pairs = [(v, w) for w in range(n) if w != v and w not in adj[v]]
    nbrs = sorted(adj[v])
    return pairs + [(x, y) for x, y in itertools.combinations(nbrs, 2) if y not in adj[x]]


def brute_complement(n, edges):
    present = set(edges)
    return [p for p in all_pairs(n) if p not in present]


def batched_sparse_ranks(gen, total, p, batch=4096):
    """Geometric-gap ranks of G(n,p), drawn in fixed batches of `batch`
    uniforms; `gen` is the Philox generator of the trial's seed."""
    log_q = math.log1p(-p)
    hits = []
    position = -1
    while True:
        u = gen.random(batch)
        with np.errstate(over="ignore"):
            quotient = np.log1p(-u) / log_q
        gaps = 1 + np.minimum(np.floor(quotient), total).astype(np.int64)
        steps = position + np.cumsum(gaps)
        hits.append(steps[steps < total])
        if steps[-1] >= total:
            break
        position = int(steps[-1])
    return np.concatenate(hits)


def brute_diameter(n, edges):
    if not brute_connected(n, edges):
        return float("inf")
    dist = [[0 if i == j else float("inf") for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return max(max(row) for row in dist)


def brute_cut_vertices(n, edges):
    base = len(brute_components(n, edges))
    out = []
    for v in range(n):
        if len(brute_components(n, edges, skip=(v,))) > base:
            out.append(v)
    return tuple(out)


def brute_vertex_connectivity(n, edges):
    if not brute_connected(n, edges):
        return 0
    if len(edges) == n * (n - 1) // 2:
        return n - 1
    for k in range(n - 1):
        for cut in itertools.combinations(range(n), k):
            if len(brute_components(n, edges, skip=cut)) > 1:
                return k
    return n - 1


def brute_local_connectivity(n, edges, s, t):
    """Fewest vertices other than the non-adjacent s and t whose removal leaves
    them in different components, by enumerating cuts in order of size and
    searching from s around each one."""
    adj = adjacency(n, edges)
    others = [v for v in range(n) if v not in (s, t)]
    for k in range(len(others) + 1):
        for cut in itertools.combinations(others, k):
            seen, stack = {s, *cut}, [s]
            while stack:
                for v in adj[stack.pop()] - seen:
                    seen.add(v)
                    stack.append(v)
            if t not in seen:
                return k
    raise AssertionError("unreachable: removing every other vertex separates s and t")


def brute_bipartite_matching(n, edges, left, right):
    """Most edges of the graph from `left` to the disjoint `right` with no end in
    common: every way for each left vertex to take a free partner or none is
    tried, except branches that cannot beat the best matching found so far."""
    adj = adjacency(n, edges)
    options = [sorted(adj[a] & set(right)) for a in sorted(left)]
    best = 0

    def extend(i, used, size):
        nonlocal best
        best = max(best, size)
        if size + min(len(options) - i, len(right) - len(used)) <= best:
            return
        for b in options[i]:
            if b not in used:
                extend(i + 1, used | {b}, size + 1)
        extend(i + 1, used, size)

    extend(0, frozenset(), 0)
    return best


def brute_is_k_connected(n, edges, k):
    """True iff n > k and no set of fewer than k vertices disconnects the rest."""
    if k <= 0:
        return True
    if n <= k:
        return False
    return all(
        len(brute_components(n, edges, skip=cut)) == 1
        for size in range(k)
        for cut in itertools.combinations(range(n), size)
    )


def brute_chromatic(n, edges):
    for k in range(1, n + 1):
        for coloring in itertools.product(range(k), repeat=n):
            if all(coloring[u] != coloring[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def brute_triangle_free(n, edges):
    es = set(edges)
    for a, b, c in itertools.combinations(range(n), 3):
        if (a, b) in es and (b, c) in es and (a, c) in es:
            return False
    return True


def _partitions_into(items, k):
    """All partitions of `items` into exactly k nonempty blocks."""

    def rec(i, blocks):
        remaining = len(items) - i
        if i == len(items):
            if len(blocks) == k:
                yield [list(b) for b in blocks]
            return
        if len(blocks) + remaining < k:
            return
        for b in blocks:
            b.append(items[i])
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([items[i]])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def brute_first_uncovered_pair(n, blocks):
    """Smallest pair (s, t), s < t, that lies in no connected component of any
    block (a block is one color class's edge list); None when every pair does.
    """
    block_comps = [[set(c) for c in brute_components(n, block)] for block in blocks]
    for s in range(n):
        for t in range(s + 1, n):
            if not any(
                any(s in comp and t in comp for comp in comps) for comps in block_comps
            ):
                return (s, t)
    return None


def _pair_covered_everywhere(n, blocks):
    """True iff every vertex pair lies in one connected component of some block."""
    return brute_first_uncovered_pair(n, blocks) is None


def oracle_mc(n, edges):
    """Exact mc by scanning class counts downward until a witness partition passes."""
    if not brute_connected(n, edges):
        return 0
    m = len(edges)
    for k in range(m, 0, -1):
        for blocks in _partitions_into(list(edges), k):
            if _pair_covered_everywhere(n, blocks):
                return k
    raise AssertionError("unreachable: the one-block partition always passes")


def binom(n, k):
    num = 1
    for i in range(k):
        num = num * (n - i) // (i + 1)
    return num
