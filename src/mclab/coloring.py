"""Colorings in which every vertex pair has a single-color path, and the
machinery around mc(G), the largest color count such a coloring can use.

The bound ladder:

* lower: a spanning tree painted one color and every other edge painted its
  own fresh color gives mc(G) >= m - n + 2 for connected G;
* upper: mc(G) <= min(m - n + delta + 1, m - n + chi, m - n + kappa + 1),
  never above C(n, 2);
* exactness certificates: five structural conditions, any of which forces
  mc(G) = m - n + 2 on connected graphs with more than 3 vertices;
* exact oracle: mc(G) = m - tau(G), where tau(G) is the least cost of a
  cover of the non-edges by edge-disjoint trees, found by branch and bound
  for small m.

Disconnected graphs take mc = 0 by convention; operations whose construction
genuinely needs connectivity raise instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from . import graphs
from .errors import CapExceededError, NotConnectedError
from .graphs import (
    DEFAULT_CHI_CAP,
    EdgePair,
    Graph,
    _complement,
    _has_far_pair,
    _least_pair_connectivity,
    _memo,
    _reach,
    chromatic_number,
    component_labels,
    is_connected,
    is_triangle_free,
    max_degree,
    min_degree,
    spanning_tree,
    vertex_connectivity,
)

# certificate tags recording which argument produced a bound or exact value
TREE_LOWER = "TREE_LOWER"
MIN_DEGREE_UPPER = "MIN_DEGREE_UPPER"
CHROMATIC_UPPER = "CHROMATIC_UPPER"
CONNECTIVITY_UPPER = "CONNECTIVITY_UPPER"
EXACT_A = "EXACT_A"  # complement is 4-connected
EXACT_B = "EXACT_B"  # triangle-free
EXACT_C = "EXACT_C"  # max-degree inequality in exact integer arithmetic
EXACT_D = "EXACT_D"  # diameter at least 3
EXACT_E = "EXACT_E"  # cut vertex
COMPLETE_GRAPH = "COMPLETE_GRAPH"
DISCONNECTED = "DISCONNECTED"
EXACT_ORACLE = "EXACT_ORACLE"

# the tree-cover search is exponential in the worst case; with at most 12
# edges its slowest case over 200 sparse graphs (delta >= 2, n = 8..11) took
# about 20 ms in CPython 3.11 on one core
DEFAULT_ORACLE_CAP = 12
# the kappa bound and certificate (a) are skipped beyond this; each bounds
# O(n + delta^2) vertex pairs, most settled by short paths, and a pair that
# falls short takes augmenting searches on the neighbour masks
DEFAULT_KAPPA_CAP = 64


class EdgeColoring:
    """Total assignment of color labels to the edges of one graph.

    Labels are contiguous integers 0..k-1 in first-occurrence order along the
    canonical edge sequence. Use :meth:`from_labels` to canonicalize arbitrary
    label values. They are kept as one read-only int64 array, which equality,
    hashing and the verifier read; ``labels`` is its tuple of Python ints.
    """

    def __init__(self, graph: Graph, labels: Sequence[int]):
        indexed = map(operator.index, labels)  # unlike int(), refuses floats; ints come back as is
        try:
            labels = tuple(indexed)
        except TypeError:
            raise ValueError("edge labels must be integers") from None
        if len(labels) != graph.m:
            raise ValueError(
                f"coloring has {len(labels)} labels but the graph has {graph.m} edges"
            )
        arr, num_colors = np.array(labels), 0  # object dtype past int64
        if labels:
            # first-occurrence order: labels >= 0, the first 0, and each at most
            # one above the largest label before it
            bound = np.maximum.accumulate(arr)
            bound += 1
            if arr[0] != 0 or arr.min() < 0 or (arr[1:] > bound[:-1]).any():
                raise ValueError(
                    "labels must be contiguous from 0 in first-occurrence order; "
                    "use from_labels() to canonicalize"
                )
            num_colors = int(bound[-1])
        self.graph = graph
        self.num_colors = num_colors
        self._array = arr.astype(np.int64, copy=False)  # each label is below m <= 2^28
        self._array.flags.writeable = False

    @classmethod
    def from_labels(cls, graph: Graph, raw: Iterable[object]) -> "EdgeColoring":
        """Map arbitrary hashable labels onto the canonical 0..k-1 scheme."""
        mapping: dict[object, int] = {}
        return cls(graph, [mapping.setdefault(lab, len(mapping)) for lab in raw])

    @_memo
    def labels(self) -> tuple[int, ...]:
        return tuple(self._array.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self.graph, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"EdgeColoring(k={self.num_colors}, m={self._array.shape[0]})"


@dataclass(frozen=True)
class McBounds:
    """Certified bracket on mc(G), with the arguments that produced it."""

    lower: int
    upper: int
    exact: Optional[int]
    certificates: tuple[str, ...]

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper):
            raise ValueError("bounds must satisfy 0 <= lower <= upper")
        if self.exact is not None and not (self.lower <= self.exact <= self.upper):
            raise ValueError("exact value must lie within the bounds")


def first_uncovered_pair(g: Graph, c: EdgeColoring) -> Optional[tuple[int, int]]:
    """Smallest vertex pair (canonical order) with no single-color path, or None.

    Extra memory is O(m + block * n), where a block is as many rows u as fit
    in about 1 MiB (at least one); never an n x n array. A class with at least
    n - 1 edges that joins all n vertices answers None at once; only such
    classes can, and one component labelling decides them all. Otherwise every
    class's components are labelled in one pass, and the pairs are scanned a
    block of rows u at a time: (u, v) is covered iff some class component holds
    both.
    """
    if c.graph is not g and c.graph != g:
        raise ValueError("coloring does not belong to this graph")
    n, m = g.n, g.m
    if n == 1:
        return None
    arr = g.edge_array
    labels = c._array
    # the candidate classes side by side: class big[i] on nodes i*n .. i*n + n - 1
    big = np.flatnonzero(np.bincount(labels, minlength=c.num_colors) >= n - 1)
    if big.size:
        keep = np.isin(labels, big)
        offset, kept = np.searchsorted(big, labels[keep]) * n, arr[keep]
        _, comp = component_labels(big.size * n, kept[:, 0] + offset, kept[:, 1] + offset)
        if (np.bincount(comp) == n).any():
            return None
    # one node per (class, vertex) incidence; its components are the class components
    nodes, ends = np.unique(
        np.concatenate((labels * n + arr[:, 0], labels * n + arr[:, 1])), return_inverse=True
    )
    count, comp = component_labels(nodes.shape[0], ends[:m], ends[m:])
    member = csr_matrix(
        (np.ones(nodes.shape[0], dtype=bool), (nodes % n, comp)), shape=(n, count)
    )
    shared = member.T.tocsr()
    rows = max(1, graphs._BLOCK_BYTES // (8 * n))
    for start in range(0, n - 1, rows):
        covered = (member[start : start + rows] @ shared).toarray()
        uncovered = np.triu(~covered, start + 1)  # keep v > u only
        first = int(uncovered.argmax())
        if uncovered.flat[first]:
            return start + first // n, first % n
    return None


def verify_mc_coloring(g: Graph, c: EdgeColoring) -> bool:
    """True iff every vertex pair is joined by a path inside one color class."""
    return first_uncovered_pair(g, c) is None


def spanning_tree_coloring(g: Graph) -> EdgeColoring:
    """Tree edges share label 0; every non-tree edge gets a fresh label.

    Uses exactly m - n + 2 colors on a connected graph (one color when g is a
    tree) and always verifies: the tree class alone joins every pair.
    """
    tree_edges = np.array(spanning_tree(g), dtype=np.int64).reshape(-1, 2)
    arr = g.edge_array
    # u * n + v ranks canonical edges in order, so the tree's ranks are found by search
    ranks = arr[:, 0] * g.n + arr[:, 1]
    tree = np.zeros(g.m, dtype=bool)
    tree[np.searchsorted(ranks, tree_edges[:, 0] * g.n + tree_edges[:, 1])] = True
    return EdgeColoring(g, np.where(tree, 0, np.cumsum(~tree)).tolist())


def mc_lower_bound(g: Graph) -> int:
    """m - n + 2 for connected graphs; 0 when disconnected.

    A single vertex has no edges to color, so it also takes 0 despite the
    formula giving 1.
    """
    if g.n == 1 or not is_connected(g):
        return 0
    return g.m - g.n + 2


def mc_upper_bound(
    g: Graph,
    chi_cap: int = DEFAULT_CHI_CAP,
    kappa_cap: int = DEFAULT_KAPPA_CAP,
) -> tuple[int, tuple[str, ...]]:
    """Minimum of the degree, chromatic, and connectivity upper bounds.

    The chromatic term joins only when n <= chi_cap (exact chi is exponential),
    the connectivity term only when n <= kappa_cap (kappa bounds O(n + delta^2)
    vertex pairs, most of them without an augmenting search). Returns the
    bound and the tags of every term achieving it.
    """
    if g.n < 2:
        raise ValueError("upper bound needs at least 2 vertices")
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    m, n = g.m, g.n
    candidates = [(m - n + min_degree(g) + 1, MIN_DEGREE_UPPER)]
    if n <= chi_cap:
        candidates.append((m - n + chromatic_number(g, cap=chi_cap), CHROMATIC_UPPER))
    if n <= kappa_cap:
        candidates.append((m - n + vertex_connectivity(g) + 1, CONNECTIVITY_UPPER))
    best = min(value for value, _ in candidates)
    tags = tuple(tag for value, tag in candidates if value == best)
    return best, tags


def _degree_certificate(n: int, m: int, delta_max: int) -> bool:
    """Certificate (c): Delta*(n-3) < n*(n-3) - (2m - 3(n-1)), in exact integer
    arithmetic; on a connected graph with n > 3 it forces mc(G) = m - n + 2."""
    return delta_max * (n - 3) < n * (n - 3) - (2 * m - 3 * (n - 1))


def exactness_certificate(
    g: Graph, kappa_cap: int = DEFAULT_KAPPA_CAP
) -> Optional[str]:
    """First structural condition forcing mc(G) = m - n + 2, or None.

    Checked in order: (a) complement 4-connected, (b) triangle-free, (c) the
    max-degree inequality Delta*(n-3) < n*(n-3) - (2m - 3(n-1)) in exact
    integer arithmetic, (d) diameter >= 3, (e) cut vertex. Applies only to
    connected graphs on more than 3 vertices; condition (a) is skipped (never
    fires) when n > kappa_cap.

    Condition (a) builds no complement graph. The complement's neighbour masks
    are g's complemented, ``full ^ masks[v] ^ 1 << v``, its least degree is
    n - 1 - Delta, at a vertex of g's largest degree, and vertex
    connectivity's pair search runs on them with cap 4. So no search runs
    when n - 1 - Delta < 4, nor when 2 Delta <= n - 4: then the complement's
    least degree is at least (n + 2)/2, and a graph of least degree at least
    (n + k - 2)/2 is k-connected (Chartrand & Harary, 1968).

    Condition (d) runs no BFS: on a connected graph, diameter >= 3 holds iff
    some two vertices have no common neighbour and no edge. Unless the degrees
    settle it, each vertex ORs the neighbour bitmasks of its neighbours into
    its own closed neighbourhood until the union holds every vertex, and a
    vertex whose neighbours run out first has a far partner (see
    :func:`_has_far_pair`).

    Condition (e) runs no depth-first search either, because it is reached only
    with diameter <= 2. If removing v leaves x and y in different components,
    every x-y path runs through v, so distance at most 2 makes x-v-y a path:
    v is adjacent to every other vertex. With a second such vertex w, G - v
    stays connected through w. So (e) holds iff exactly one vertex has degree
    n - 1 and removing it disconnects G, which one component labelling decides.
    """
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    n, m = g.n, g.m
    if n <= 3:
        raise ValueError("hypothesis violated: certificate requires more than 3 vertices")
    delta_max = max_degree(g)
    if n <= kappa_cap and n - 1 - delta_max >= 4:
        if 2 * delta_max <= n - 4:
            return EXACT_A
        if _least_pair_connectivity(_complement(g._masks), int(g.degrees.argmax()), 4, 3) == 4:
            return EXACT_A
    if is_triangle_free(g):
        return EXACT_B
    if _degree_certificate(n, m, delta_max):
        return EXACT_C
    if _has_far_pair(g):
        return EXACT_D
    # (d) failed, so the diameter is at most 2 and a cut vertex is adjacent to
    # every other vertex; it is one only if no second vertex is
    full = np.flatnonzero(g.degrees == n - 1)
    if full.size == 1:
        arr = g.edge_array
        kept = arr[(arr != full[0]).all(axis=1)]
        # the cut vertex itself is left isolated, one of the components
        if component_labels(n, kept[:, 0], kept[:, 1])[0] > 2:
            return EXACT_E
    return None


def _tree_cover_search(edges: Sequence[EdgePair], n: int, best: int, floor: int) -> int:
    """Least tree-cover cost tau(G) of a connected graph, by branch and bound.

    A tree cover is a family of edge-disjoint subtrees, each with at least two
    edges, whose vertex sets together hold both ends of every non-edge; its
    cost is the sum of |V(T)| - 2 over its trees. Painting each tree one color
    and every other edge its own color is a valid coloring with m - cost
    colors, and every optimal coloring has this form (see
    :func:`exact_mc_small`), so mc(G) = m - tau(G).

    A node of the search holds partial trees, as vertex bitmasks, and the
    bitmask of the edges they use. It takes the first non-edge {x, y}, in
    canonical order, that no partial tree holds, and branches:

    * grow partial tree j: attach x, then y, each by a simple path of unused
      edges that stops at the first vertex already in the tree (no path for
      an end the tree holds);
    * start a new tree: a simple x-y path of unused edges.

    No branch set loses an optimum. Fix an optimal cover F and suppose every
    partial tree is a subtree of its own tree of F, so the unused edges hold
    every edge of F outside the partial trees. Some tree T of F holds x and y.
    If T is the tree of partial tree j, T's path from x to the nearest vertex
    of j consists of unused edges and stops at the first vertex of j, so the
    grow-j branch adds it, and then T's path from y; tree j stays a subtree of
    T. Otherwise T's x-y path is unused and the new-tree branch adds it. By
    induction some leaf holds subtrees of distinct trees of F that cover every
    non-edge; its cost is at most tau, so it is optimal.

    Every branch adds at least one vertex, at cost 1, so a node at cost c
    explores only paths that keep the cost below ``best`` and the search
    returns ``best`` unchanged when no cheaper cover exists; ``best`` starts
    at the cost of a cover already known. The search stops once ``best``
    reaches ``floor``, a lower bound on tau.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append((v, 1 << i))
        adj[v].append((u, 1 << i))
    present = set(edges)
    holes = [
        (x, y, 1 << x | 1 << y)
        for x in range(n)
        for y in range(x + 1, n)
        if (x, y) not in present
    ]
    trees: list[int] = []

    def paths(v: int, target: int, path: int, used: int, spent: int, done) -> bool:
        """Extend the path ending at v over unused edges until it reaches
        ``target``; ``spent`` is the cost should it arrive now, and each vertex
        added outside ``target`` costs 1. Calls ``done(path, used, spent)`` at
        each arrival; True once the search is over."""
        for u, bit in adj[v]:
            if used & bit:
                continue
            if target >> u & 1:
                if done(path, used | bit, spent):
                    return True
            elif spent + 1 < best and not path >> u & 1:
                if paths(u, target, path | 1 << u, used | bit, spent + 1, done):
                    return True
        return False

    def search(start: int, cost: int, used: int) -> bool:
        """Cover the non-edges from ``start`` on; True once ``best`` reaches ``floor``."""
        nonlocal best
        if cost >= best:
            return False
        for i in range(start, len(holes)):
            x, y, pair = holes[i]
            if not any(tree & pair == pair for tree in trees):
                break
        else:
            best = cost
            return best <= floor

        def grow(j: int, ends: tuple[int, ...], used: int, spent: int) -> bool:
            """Attach each of ``ends`` to partial tree j in turn, then search on."""
            if not ends:
                return search(i + 1, spent, used)
            tree, v = trees[j], ends[0]
            if tree >> v & 1:
                return grow(j, ends[1:], used, spent)

            def arrive(path: int, used: int, spent: int) -> bool:
                trees[j] = tree | path
                over = grow(j, ends[1:], used, spent)
                trees[j] = tree
                return over

            return spent + 1 < best and paths(v, tree, 1 << v, used, spent + 1, arrive)

        def plant(path: int, used: int, spent: int) -> bool:
            trees.append(path | 1 << y)
            over = search(i + 1, spent, used)
            trees.pop()
            return over

        return any(grow(j, (x, y), used, cost) for j in range(len(trees))) or paths(
            x, 1 << y, 1 << x, used, cost, plant
        )

    search(0, 0, 0)
    return best


def _component_cover_cost(masks: Sequence[int]) -> int:
    """The cost of the component cover of the graph with neighbour masks
    ``masks``: the sum, over the components C of its complement with at least
    2 vertices, of |C| - 2 when the graph's edges inside C join it and
    |C| - 1 otherwise (see :func:`exact_mc_small`)."""
    n, cost = len(masks), 0
    left = full = (1 << n) - 1
    far = _complement(masks)
    while left:
        low = left & -left
        part = _reach(far, low, full)
        left ^= part
        if part != low:
            inner = [mask & part for mask in masks]
            cost += part.bit_count() - 1 - (_reach(inner, low, part) == part)
    return cost


def exact_mc_small(g: Graph, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Exact mc(G) as m - tau(G), by a tree-cover search; 0 when disconnected.

    Every color class of an optimal coloring is a tree (Caro & Yuster, 2011).
    A class that is disconnected splits into its components, each with a
    color of its own, and no pair loses its path; a class with a cycle gives
    one cycle edge a fresh color, and its components stay the same. Either
    would add a color. A tree with k >= 2 edges takes k - 1 = |V(T)| - 2
    colors from the m a coloring could have, and an edge joins its own ends,
    so the non-edges are what the trees must hold: mc(G) = m - tau(G), where
    tau(G) is the least tree-cover cost (see :func:`_tree_cover_search`).

    A connected graph with more than ``cap`` edges raises.

    The upper bound m - n + delta + 1 is at most C(n, 2), since a vertex of
    degree delta misses n - 1 - delta others; when the spanning-tree
    coloring's m - n + 2 colors (cost n - 2) already meet it (delta = 1, say)
    no search runs at all. Nor does it when n > 3 and certificate (c), the
    max-degree inequality of :func:`exactness_certificate`, already proves
    mc(G) = m - n + 2. Delta and delta are the bit counts of the neighbour
    masks that the connectivity walk has already built and cached.

    Otherwise the search starts from the component cover
    (:func:`_component_cover_cost`), an upper bound on tau, and stops at the
    larger of two lower bounds on tau: m minus the upper bound on mc, and the
    counting floor t*. When the cover already meets that floor no search runs.

    The component cover. Every non-edge joins two vertices of one component
    of the complement, so every vertex outside a component C is adjacent to
    all of C. Each C with at least 2 vertices takes one tree that holds all
    of C: a spanning tree of G[C], cost |C| - 2, when G[C] is connected (then
    |C| >= 3, since a C of 2 vertices is one non-edge), and otherwise the star
    from the lowest vertex c outside C to the vertices of C, |C| edges at
    cost |C| - 1; in all, sum(|C| - 1 - [G[C] connected]). When the
    complement is connected, C is every vertex and G[C] = G is connected, so
    this is the spanning tree's n - 2; it is never above n - k for k >= 2
    components. The spanning trees use edges inside their own components and
    the stars edges between two components, so a spanning tree shares no
    edge with any other tree. Two stars share an edge only when each centre
    lies in the other's component, and the shared edge is the one between the
    centres; since a centre lies in one component, each star shares with at
    most one other. Two such stars, on C and C', join into one tree on C + C'
    with |C| + |C'| - 1 edges and the same total cost (C_4 is such a case:
    its complement is 2 K_2). So the trees, thus merged, are a tree cover,
    and their cost bounds tau from above.

    The counting floor. A tree of cost c has c + 2 vertices and c + 1 edges,
    so its vertex set holds at most C(c + 2, 2) - (c + 1) = c(c + 1)/2
    non-edges. Since sum(c_i^2) <= (sum c_i)^2, a cover of cost tau holds at
    most tau(tau + 1)/2 of them, and it holds all C(n, 2) - m. So tau >= t*,
    the least t with t(t + 1)/2 >= C(n, 2) - m, which is
    (isqrt(8 (C(n, 2) - m)) + 1) // 2 in exact integers.

    The tests check it against an independent exhaustive partition oracle,
    and against the search started from the spanning tree alone.
    """
    if not is_connected(g):
        return 0
    n, m = g.n, g.m
    if m > cap:
        raise CapExceededError(f"edge count {m} too large for the exact search (cap {cap})")
    masks = g._masks
    degree = [mask.bit_count() for mask in masks]
    seed = m - n + 2
    top = m - n + min(degree) + 1
    if seed >= top:  # a single vertex has seed 1 > top 0; otherwise seed <= top
        return top
    if n > 3 and _degree_certificate(n, m, max(degree)):
        return seed
    best = _component_cover_cost(masks)
    floor = max(m - top, (math.isqrt(4 * n * (n - 1) - 8 * m) + 1) // 2)
    if best <= floor:
        return m - best
    return m - _tree_cover_search(g.edges, n, best, floor)


def analyze(
    g: Graph,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    chi_cap: int = DEFAULT_CHI_CAP,
    kappa_cap: int = DEFAULT_KAPPA_CAP,
) -> McBounds:
    """Full certified bracket on mc(G), with the exact value whenever one
    of the closed-form arguments or the small-graph oracle (run when
    m <= ``oracle_cap``, so never at 0) settles it.

    It returns at the first rung that settles mc(G): disconnected, a single
    vertex, complete, a certificate (a)-(e) when n > 3, a closed bracket
    (lower == upper), then the oracle; past them all the exact value is None.
    """
    if not is_connected(g):
        return McBounds(0, 0, 0, (DISCONNECTED,))
    n, m = g.n, g.m
    if n == 1:
        return McBounds(0, 0, 0, (TREE_LOWER, COMPLETE_GRAPH))
    lower = m - n + 2  # connected on n >= 2 vertices: the spanning-tree coloring
    upper, upper_tags = mc_upper_bound(g, chi_cap=chi_cap, kappa_cap=kappa_cap)
    certs = (TREE_LOWER, *upper_tags)
    if g.is_complete():
        return McBounds(lower, upper, n * (n - 1) // 2, certs + (COMPLETE_GRAPH,))
    cert = exactness_certificate(g, kappa_cap=kappa_cap) if n > 3 else None
    if cert is not None:
        return McBounds(lower, upper, lower, certs + (cert,))
    if lower == upper:
        return McBounds(lower, upper, lower, certs)
    if m <= oracle_cap:
        return McBounds(lower, upper, exact_mc_small(g, cap=oracle_cap), certs + (EXACT_ORACLE,))
    return McBounds(lower, upper, None, certs)
