"""Graph representation and structural queries, cross-checked against brute force."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import oracles
from mclab import graphs
from mclab.coloring import _component_cover_cost, analyze, exact_mc_small, exactness_certificate
from mclab.errors import CapExceededError, NotConnectedError
from mclab.graphs import (
    MAX_VERTICES,
    Graph,
    _has_far_pair,
    chromatic_number,
    complement,
    complete_graph,
    component_labels,
    cycle_graph,
    diameter,
    has_cut_vertex,
    is_connected,
    is_k_connected,
    is_triangle_free,
    max_degree,
    min_degree,
    path_graph,
    petersen_graph,
    spanning_tree,
    star_graph,
    vertex_connectivity,
)
from mclab.sampling import RngSeed, sample_gnp
from oracles import UnionFind


@st.composite
def random_graphs(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = oracles.all_pairs(n)
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def partition(g):
    """The vertex classes of component_labels, each ascending, ordered by
    smallest member as oracles.brute_components lists them."""
    _, labels = component_labels(g.n, *g.edge_array.T)
    comps = {}
    for v, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(v)
    return sorted(comps.values())


# ------------------------------------------------------------- construction


@pytest.mark.parametrize(
    "edges",
    [
        [(1, 0)],  # endpoints out of order
        [(0, 0)],  # self-loop
        [(0, 2), (0, 1)],  # not sorted
        [(0, 1), (0, 1)],  # duplicate
        [(0, 3)],  # endpoint out of range
        [(-1, 0)],
        [(0, 1, 2)],  # wrong shape
    ],
)
def test_constructor_rejects_non_canonical(edges):
    with pytest.raises(ValueError):
        Graph(3, edges)


def test_constructor_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(MAX_VERTICES + 1)
    with pytest.raises(ValueError):
        Graph(3, [(0.0, 1.5)])


def test_only_empty_pair_shapes_are_edgeless():
    for edges in ((), [], np.empty((0, 2), dtype=np.int64), np.empty((0, 2)), np.asarray([])):
        g = Graph(3, edges)
        assert g.m == 0 and g.edge_array.shape == (0, 2) and g.edge_array.dtype == np.int64
    for edges in ([()], [[]], np.zeros((0, 5), dtype=int), np.zeros((2, 0), dtype=int)):
        with pytest.raises(ValueError, match=r"edges must be a sequence of \(u, v\) pairs"):
            Graph(3, edges)
    with pytest.raises(ValueError, match=r"edges must be a sequence of \(u, v\) pairs"):
        Graph.from_pairs(3, [()])


def test_from_pairs_normalizes():
    g = Graph.from_pairs(4, [(3, 1), (2, 0), (0, 1)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert Graph.from_pairs(4, np.array([[3, 1], [2, 0], [0, 1]])) == g
    assert Graph.from_pairs(4, {(1, 3), (0, 2), (1, 0)}) == g
    assert Graph.from_pairs(3, []) == Graph(3)
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        Graph.from_pairs(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
        Graph.from_pairs(3, [(1, 1)])
    with pytest.raises(ValueError, match="integers"):
        Graph.from_pairs(3, [(0.5, 2), (1.9, 0)])  # not truncated to (0, 1), (0, 2)
    with pytest.raises(ValueError):
        Graph.from_pairs(3, [(0, 1, 2)])  # no third coordinate dropped
    for bad in ([(0,)], [("0", "1")], [(2**70, 1)]):
        with pytest.raises(ValueError):
            Graph.from_pairs(3, bad)
    with pytest.raises(ValueError):
        Graph.from_pairs(3, [(0, 3)])


def test_graph_accepts_numpy_edges_and_is_immutable():
    arr = np.array([[0, 1], [1, 2]], dtype=np.int64)
    g = Graph(3, arr)
    arr[0, 0] = 99  # caller's array is not shared
    assert g.edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 5


def test_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(0, 1)])
    c = Graph(4, [(0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_with_edge():
    g = path_graph(3).with_edge(2, 0)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    with pytest.raises(ValueError):
        g.with_edge(0, 1)
    with pytest.raises(ValueError):
        g.with_edge(1, 1)
    with pytest.raises(ValueError):
        g.with_edge(0, 3)
    with pytest.raises(ValueError):
        g.with_edge(0.5, 2)


# ------------------------------------------------------------- named graphs


def test_named_graphs():
    k4 = complete_graph(4)
    assert k4.m == 6 and min_degree(k4) == max_degree(k4) == 3 and k4.is_complete()
    p4 = path_graph(4)
    assert p4.m == 3 and min_degree(p4) == 1 and max_degree(p4) == 2
    c4 = cycle_graph(4)
    assert c4.m == 4 and min_degree(c4) == max_degree(c4) == 2
    s4 = star_graph(4)
    assert s4.m == 3 and s4.degrees[0] == 3 and min_degree(s4) == 1
    pet = petersen_graph()
    assert pet.n == 10 and pet.m == 15
    assert min_degree(pet) == max_degree(pet) == 3
    with pytest.raises(ValueError):
        cycle_graph(2)


# ------------------------------------------- exhaustive oracle cross-checks


def test_queries_match_brute_force_all_graphs_up_to_n5():
    for n in range(1, 6):
        for edges in oracles.all_edge_subsets(n):
            g = Graph(n, edges)
            comps = oracles.brute_components(n, edges)
            assert partition(g) == comps
            assert is_connected(g) == (len(comps) == 1)
            assert diameter(g) == oracles.brute_diameter(n, edges)
            assert has_cut_vertex(g) == bool(oracles.brute_cut_vertices(n, edges))
            assert is_triangle_free(g) == oracles.brute_triangle_free(n, edges)
            kappa = oracles.brute_vertex_connectivity(n, edges)
            assert vertex_connectivity(g) == kappa
            for k in range(-1, n + 2):
                assert is_k_connected(g, k) == (kappa >= k)
            if edges:
                degs = [0] * n
                for u, v in edges:
                    degs[u] += 1
                    degs[v] += 1
                assert min_degree(g) == min(degs) and max_degree(g) == max(degs)


def test_is_connected_matches_brute_force_all_graphs_up_to_n6():
    for n in range(1, 7):
        for edges in oracles.all_edge_subsets(n):
            assert is_connected(Graph(n, edges)) == oracles.brute_connected(n, edges)


def joined_blocks(rng, n, blocks, m):
    """m edges on n vertices: a path through each block, then chords drawn
    inside the blocks; the blocks' vertices are relabelled among themselves at
    random, and a vertex in no block stays isolated under its own label."""
    pairs = {p for block in blocks for p in zip(block, block[1:])}
    chords = [p for block in blocks for p in itertools.combinations(block, 2) if p not in pairs]
    pairs.update(chords[i] for i in rng.choice(len(chords), m - len(pairs), replace=False))
    inside = sorted({v for block in blocks for v in block})
    relabel = dict(zip(inside, rng.permutation(inside).tolist()))
    return Graph.from_pairs(n, [(relabel[u], relabel[v]) for u, v in pairs])


def test_is_connected_both_sides_of_small_edge_bound(labellings):
    rng = np.random.default_rng(6465)
    # n = 30 keeps m = 65 below the walk's density, so only the edge bound moves
    n = 30
    cases = (
        ([list(range(n))], True),  # a path plus chords
        ([list(range(n - 1))], False),  # the last vertex isolated
        ([list(range(15)), list(range(15, n))], False),  # two components
    )
    assert n * n > graphs._WALK_DENSITY * (graphs._SMALL_EDGES + 1)
    for m in (graphs._SMALL_EDGES, graphs._SMALL_EDGES + 1):
        for blocks, connected in cases:
            g = joined_blocks(rng, n, blocks, m)
            assert g.m == m and g.n == n
            if len(blocks[0]) == n - 1:
                assert g.degrees[n - 1] == 0
            labellings.clear()
            assert is_connected(g) is connected == oracles.brute_connected(n, g.edges)
            assert sum(labellings.values()) == (0 if m <= graphs._SMALL_EDGES else 1)
    labellings.clear()
    assert is_connected(Graph(1)) and not labellings


def labelled_edges(key):
    """The (u, v) edges of a graph as the ``labellings`` fixture keys it."""
    _, heads, tails = key
    heads, tails = np.frombuffer(heads, np.int64), np.frombuffer(tails, np.int64)
    return list(zip(heads.tolist(), tails.tolist()))


def stride(n, m):
    """The j of ``graphs._csr_connected``: from j = 2 on it first labels every
    j-th edge."""
    return 2 * m // (n * (math.ceil(math.log(n)) + 4))


def csr_connected(g):
    return graphs._csr_connected(g.n, g._indptr, g.edge_array[:, 1])


def full_key(g):
    return g.n, g.edge_array[:, 0].tobytes(), g.edge_array[:, 1].tobytes()


def test_is_connected_both_sides_of_walk_density(block_bytes, labellings):
    rng = np.random.default_rng(1024)
    proofs = 0
    for n in (40, 150, 301):
        # the fewest edges the walk takes, and one fewer
        least = -(-n * n // graphs._WALK_DENSITY)
        cases = (
            ([list(range(n))], True),
            ([list(range(n - 1))], False),
            ([list(range(n // 2)), list(range(n // 2, n))], False),
        )
        for m in (least, least - 1):
            walks = n * n <= min(graphs._BLOCK_BYTES, graphs._WALK_DENSITY * m)
            assert walks == (m == least and graphs._BLOCK_BYTES >= n * n)
            for blocks, connected in cases:
                g = joined_blocks(rng, n, blocks, m)
                labellings.clear()
                assert is_connected(g) is connected == oracles.brute_connected(n, g.edges)
                # past the walk a dense graph may first label a sample of its
                # edges, which settles it only when connected; else all of
                # its edges are labelled, once
                full = labellings.pop(full_key(g), 0)
                samples = [labelled_edges(key) for key in labellings]
                assert len(samples) == sum(labellings.values()) <= (0 if walks else 1), (n, m)
                assert all(set(edges) < g.edge_set for edges in samples)
                proved = any(oracles.brute_connected(n, edges) for edges in samples)
                assert full == (0 if walks or proved else 1), (n, m)
                proofs += proved
                assert ("_masks" in g.__dict__) == walks
    assert proofs


def test_csr_connected_matches_brute_force_on_both_sides_of_the_gate(labellings):
    seen = set()
    for n in (30, 75, 160, 300):
        wide = math.ceil(math.log(n)) + 4  # j is the mean degree over this, rounded down
        # near the connectivity threshold, below the gate, just past it, far past it
        for degree in (math.log(n), wide, 2.2 * wide, 5 * wide):
            p = min(0.95, degree / (n - 1))
            for seed in range(3):
                g = sample_gnp(n, p, RngSeed(n, seed))
                kept = (g.edge_array != seed).all(axis=1)
                for h in (g, Graph(n, g.edge_array[kept])):  # and with vertex seed isolated
                    labellings.clear()
                    connected = csr_connected(h)
                    assert connected == oracles.brute_connected(n, h.edges), (n, p, seed)
                    j = stride(n, h.m)
                    proved = j >= 2 and oracles.brute_connected(n, h.edge_array[::j].tolist())
                    assert sum(labellings.values()) == (1 if j < 2 or proved else 2)
                    assert labellings[full_key(h)] == (0 if proved else 1)
                    seen.add((j >= 2, proved, connected))
    # both answers below the gate; past it, proofs and fallbacks to False
    assert {(False, False, True), (False, False, False), (True, True, True),
            (True, False, False)} <= seen


def two_blocks(rng, n):
    """Two G(n/2, 1/2) blocks with no edge between them, their vertices
    shuffled together so that every row of the edge array meets both; and the
    two blocks' vertex lists."""
    label = rng.permutation(n).tolist()
    blocks = (label[: n // 2], label[n // 2 :])
    pairs = [p for block in blocks for p in itertools.combinations(block, 2) if rng.random() < 0.5]
    return Graph.from_pairs(n, pairs), blocks


def test_csr_connected_falls_back_when_its_sample_is_split(labellings):
    rng = np.random.default_rng(2031)
    n = 200
    g, (left, right) = two_blocks(rng, n)
    assert stride(n, g.m) >= 2
    assert not csr_connected(g) and not oracles.brute_connected(n, g.edges)
    assert sum(labellings.values()) == 2 and labellings[full_key(g)] == 1  # sample, then all
    # one edge across, at an index of the edge array that the sample skips:
    # only the full labelling sees it
    j, keys = stride(n, g.m + 1), g.edge_array[:, 0] * n + g.edge_array[:, 1]
    for a, b in zip(left, right):
        u, v = min(a, b), max(a, b)
        at = int(keys.searchsorted(u * n + v))
        if at % j:
            break
    joined = g.with_edge(u, v)
    assert joined.edge_array[at].tolist() == [u, v] and at % stride(n, joined.m)
    labellings.clear()
    assert csr_connected(joined) and oracles.brute_connected(n, joined.edges)
    assert sum(labellings.values()) == 2 and labellings[full_key(joined)] == 1


def test_csr_connected_samples_every_jth_edge_in_row_order(labellings):
    for n, p, seed in ((60, 0.9, 1), (150, 0.4, 2), (300, 0.3, 3)):
        g = sample_gnp(n, p, RngSeed(seed))
        arr, indptr, j = g.edge_array, g._indptr, stride(n, g.m)
        assert j >= 2
        labellings.clear()
        assert csr_connected(g)
        ((size, heads, tails), count), = labellings.items()  # the sample proved it
        heads, tails = np.frombuffer(heads, np.int64), np.frombuffer(tails, np.int64)
        assert (size, count) == (n, 1)
        assert np.array_equal(heads, arr[::j, 0]) and np.array_equal(tails, arr[::j, 1])
        for u in range(n):
            row = iter(arr[indptr[u] : indptr[u + 1], 1].tolist())
            assert all(v in row for v in tails[heads == u].tolist()), u  # a sub-list


def test_is_connected_on_a_long_path_builds_no_masks(monkeypatch):
    def refuse(*args):
        raise AssertionError("the masks of a 2^16-vertex path take 512 MB")

    monkeypatch.setattr(graphs, "_neighbour_masks", refuse)
    g = path_graph(1 << 16)
    assert is_connected(g)
    # vertex 0 cut off, and a chord to keep m = n - 1
    assert not is_connected(Graph.from_pairs(1 << 16, [(1, 3), *g.edge_array[1:].tolist()]))


def test_queries_match_brute_force_sampled_n6():
    rng = np.random.default_rng(940221)
    pairs = oracles.all_pairs(6)
    for _ in range(400):
        density = rng.uniform(0.1, 0.9)
        edges = [p for p in pairs if rng.random() < density]
        g = Graph(6, edges)
        assert partition(g) == oracles.brute_components(6, edges)
        assert diameter(g) == oracles.brute_diameter(6, edges)
        assert has_cut_vertex(g) == bool(oracles.brute_cut_vertices(6, edges))
        assert is_triangle_free(g) == oracles.brute_triangle_free(6, edges)
        assert vertex_connectivity(g) == oracles.brute_vertex_connectivity(6, edges)


def test_adjacency_rows_are_sorted_neighbour_lists_up_to_n5():
    for n in range(1, 6):
        for edges in oracles.all_edge_subsets(n):
            g = Graph(n, edges)
            adj = g._adjacency
            assert adj is g._adjacency  # built once per graph
            assert adj.shape == (n, n) and (adj.data == 1).all()
            rows = np.split(adj.indices, adj.indptr[1:-1])
            assert [r.tolist() for r in rows] == [sorted(a) for a in oracles.adjacency(n, edges)]


def separating_pairs(g):
    """The pair generator of g's vertex-connectivity search, from v of minimum degree."""
    return graphs._separating_pairs(graphs._neighbour_masks(g), int(np.argmin(g.degrees)))


# ------------------------------------------------ memo and row pointer

MEMOISED = ("edges", "edge_set", "_indptr", "degrees", "_connected", "_masks", "_adjacency")


def test_memoised_fields_are_built_once_under_their_own_names(monkeypatch):
    built = []
    for name in MEMOISED:
        memo = Graph.__dict__[name]
        assert isinstance(memo, graphs._memo) and memo.name == name

        def counted(g, name=name, build=memo.build):
            built.append(name)
            return build(g)

        monkeypatch.setattr(memo, "build", counted)
    # a small graph, a dense one past _SMALL_EDGES and a sparse one whose
    # connectivity runs through scipy's labelling
    for g in (petersen_graph(), sample_gnp(40, 0.6, RngSeed(40)), cycle_graph(200)):
        built.clear()
        for _ in range(3):
            values = [getattr(g, name) for name in MEMOISED]
        assert sorted(built) == sorted(MEMOISED), g
        for name, value in zip(MEMOISED, values):
            assert g.__dict__[name] is value


def test_memoised_fields_agree_across_threads_on_a_fresh_graph():
    # the memo takes no lock: threads racing on a first read may each build a
    # field, and every reader must still get the one value
    names = ("degrees", "_masks", "_connected", "edges")
    base = sample_gnp(300, 0.4, RngSeed(300))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = Graph(base.n, base.edge_array)
            gate, seen = threading.Barrier(8), []

            def read():
                gate.wait(timeout=30)
                seen.append([getattr(g, name) for name in names])

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(seen) == 8
            for degrees, masks, connected, edges in seen:
                assert np.array_equal(degrees, base.degrees) and not degrees.flags.writeable
                assert masks == graphs._neighbour_masks(base)
                assert connected is True and edges == base.edges
    finally:
        sys.setswitchinterval(interval)


def test_mask_store_agrees_across_threads_on_a_fresh_graph(monkeypatch):
    # threads racing on a block's first read may each cut it; every reader
    # must still get the right masks, and the store must end up whole
    monkeypatch.setattr(graphs, "_BLOCK_BYTES", 64)
    base = sample_gnp(300, 0.1, RngSeed(301))
    expected = [0] * base.n
    for u, v in base.edge_set:
        expected[u] |= 1 << v
        expected[v] |= 1 << u
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            g = Graph(base.n, base.edge_array)
            gate, seen = threading.Barrier(8), []

            def read(order):
                gate.wait(timeout=30)
                masks = g._masks
                seen.append((order, [masks[v] for v in order], list(masks)))

            orders = [np.random.default_rng([trial, i]).permutation(g.n).tolist() for i in range(8)]
            threads = [threading.Thread(target=read, args=(order,)) for order in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(seen) == 8
            for order, shuffled, listed in seen:
                assert shuffled == [expected[v] for v in order] and listed == expected
            assert dict(g._masks.items()) == dict(enumerate(expected))
    finally:
        sys.setswitchinterval(interval)


def row_pointer_cases():
    yield Graph(1)
    yield Graph(5)
    yield Graph(5, [(1, 2), (1, 4), (2, 3)])  # vertex 0 isolated
    yield Graph(5, [(0, 1), (0, 3), (1, 2)])  # vertex 4 isolated
    yield complete_graph(12)
    for n, p, seed in ((2, 1.0, 1), (30, 0.1, 2), (64, 0.3, 6), (500, 0.02, 3)):
        yield sample_gnp(n, p, RngSeed(seed))


def test_degrees_from_the_row_pointer():
    for g in row_pointer_cases():
        heads = g.edge_array[:, 0]
        assert g._indptr.tolist() == [int((heads < u).sum()) for u in range(g.n + 1)]
        assert np.array_equal(g.degrees, np.bincount(g.edge_array.ravel(), minlength=g.n)), g
        assert g.degrees.dtype == np.int64 and g.degrees.shape == (g.n,)
        for array in (g._indptr, g.degrees):
            with pytest.raises(ValueError):
                array[0] = 1


def test_row_pointer_readers_on_every_connected_graph_up_to_n6():
    checked = 0
    for n in range(1, 7):
        for edges in oracles.all_edge_subsets(n):
            if not oracles.brute_connected(n, edges):
                continue
            g = Graph(n, edges)
            degs = np.bincount(np.array(edges, dtype=np.int64).ravel(), minlength=n)
            assert g.degrees.tolist() == degs.tolist()
            adj = g._adjacency
            rows = np.split(adj.indices, adj.indptr[1:-1])
            assert [r.tolist() for r in rows] == [sorted(a) for a in oracles.adjacency(n, edges)]
            assert is_triangle_free(g) == oracles.brute_triangle_free(n, edges)
            checked += 1
    assert checked == 27476


def test_row_pointer_readers_on_the_benchmark_corpus():
    # Petersen and the G(n,p) graphs of the single-graph benchmark
    corpus = [petersen_graph()] + [sample_gnp(n, p, RngSeed(seed))
                                   for n, p, seed in ((64, 0.3, 6), (600, 0.5, 11), (2000, 0.05, 5))]
    for g in corpus:
        heads, tails = g.edge_array.T
        ones = np.ones(g.m)
        ref = csr_matrix((np.concatenate((ones, ones)),
                          (np.concatenate((heads, tails)), np.concatenate((tails, heads)))),
                         shape=(g.n, g.n))
        ref.sort_indices()
        adj = g._adjacency
        assert np.array_equal(adj.indptr, ref.indptr) and np.array_equal(adj.indices, ref.indices)
        # a triangle is an edge whose ends share a neighbour
        assert is_triangle_free(g) == (not (ref @ ref).multiply(ref).count_nonzero()), g


def test_separating_pairs_match_brute_force_order():
    cases = connected_non_complete(range(3, 7))
    gnp64 = sample_gnp(64, 0.3, RngSeed(6))
    cases += [gnp64, complement(gnp64)]
    for g in cases:
        assert list(separating_pairs(g)) == oracles.brute_separating_pairs(g.n, list(g.edges)), g


def test_complement_matches_brute_force_up_to_n5():
    for n in range(1, 6):
        for edges in oracles.all_edge_subsets(n):
            assert complement(Graph(n, edges)).edges == tuple(oracles.brute_complement(n, edges))


def test_far_pair_matches_brute_diameter_all_connected_up_to_n6():
    for n in range(1, 7):
        for edges in oracles.all_edge_subsets(n):
            if oracles.brute_connected(n, edges):
                assert _has_far_pair(Graph(n, edges)) == (oracles.brute_diameter(n, edges) >= 3)


def test_far_pair_matches_brute_diameter_sampled(block_bytes):
    rng = np.random.default_rng(30303)
    for _ in range(60):
        n = int(rng.integers(2, 31))
        g = sample_gnp(n, rng.uniform(0.05, 0.8), RngSeed(30303, int(rng.integers(1 << 30))))
        brute = oracles.brute_diameter(n, list(g.edges))
        assert diameter(g) == brute  # tiny blocks run one source per block
        if is_connected(g):
            assert _has_far_pair(g) == (brute >= 3)


def test_neighbour_masks_are_the_edge_set_bits(block_bytes):
    rng = np.random.default_rng(8128)
    cases = [Graph(1), Graph(9, [(0, 8)]), petersen_graph(), star_graph(17)]
    cases += [sample_gnp(n, p, RngSeed(8128, n)) for n, p in ((13, 0.4), (70, 0.1), (130, 0.6))]
    cases += [complete_graph(12)] + [sample_gnp(n, 0.6, RngSeed(300, n)) for n in (20, 57, 300)]
    # isolated vertices, n not a multiple of 8: the padding bits stay clear
    for n in (23, 101, 299):
        inside = sorted(rng.choice(n, n - 5, replace=False).tolist())
        pairs = [p for p in itertools.combinations(inside, 2) if rng.random() < 0.6]
        cases.append(Graph.from_pairs(n, pairs))
    # both sides of the bound between the edge loop and the block builds
    cases += [joined_blocks(rng, 20, [list(range(20))], m) for m in (64, 65)]
    assert [g.m for g in cases[-2:]] == [graphs._SMALL_EDGES, graphs._SMALL_EDGES + 1]
    for g in cases:
        expected = [0] * g.n
        for u, v in g.edge_set:
            expected[u] |= 1 << v
            expected[v] |= 1 << u
        # past the bound, one block scattered from the edge array when n x n
        # bools fit one, otherwise a store that cuts the CSR's row blocks as
        # they are read; cached on the graph
        one_block = g.n * g.n <= graphs._BLOCK_BYTES
        masks = g._masks
        assert len(masks) == g.n and list(masks) == expected and g._masks is masks, g
        assert ("_adjacency" in g.__dict__) == (g.m > graphs._SMALL_EDGES and not one_block)
        assert list(graphs._neighbour_masks(g)) == expected, g


def test_far_pair_matches_diameter_on_graphs_up_to_n400(block_bytes):
    rng = np.random.default_rng(2003)
    outcomes = set()
    for i in range(20):
        n = int(rng.integers(100, 401))
        # sparse samples have far pairs; from p = 0.4 on they have diameter 2,
        # so every row block gets built; the path keeps each sample connected
        p = rng.uniform(0.03, 0.2) if i % 2 else rng.uniform(0.4, 0.7)
        g = sample_gnp(n, p, RngSeed(2003, i))
        g = Graph.from_pairs(n, g.edge_set | {(v, v + 1) for v in range(n - 1)})
        far = _has_far_pair(g)
        assert far == (diameter(g) >= 3), (g, p)
        outcomes.add(far)
    assert outcomes == {True, False}


def test_far_pair_degree_bound_needs_no_masks(monkeypatch):
    def refuse(*args):
        raise AssertionError("1 + delta * Delta < n needs no masks")

    monkeypatch.setattr(graphs, "_neighbour_masks", refuse)
    # C_6: 1 + delta * Delta = 5 < 6, so a vertex has one beyond distance 2
    assert _has_far_pair(cycle_graph(6))
    sparse = sample_gnp(20_000, 0.001, RngSeed(20_000))
    assert 1 + min_degree(sparse) * max_degree(sparse) < sparse.n
    assert _has_far_pair(sparse)
    assert "_masks" not in sparse.__dict__ and "_adjacency" not in sparse.__dict__


def test_far_pair_reads_the_masks_where_the_degree_bound_is_silent():
    # C_5: 1 + delta * Delta = 5 = n, and every pair lies within distance 2
    c5 = cycle_graph(5)
    assert not _has_far_pair(c5) and "_masks" in c5.__dict__
    # two K_5 joined by one edge: 1 + 4 * 5 >= 10, yet their far ends lie 3 apart
    k5 = complete_graph(5).edges
    g = Graph.from_pairs(10, [*k5, *((u + 5, v + 5) for u, v in k5), (0, 5)])
    assert 1 + min_degree(g) * max_degree(g) >= g.n
    assert _has_far_pair(g) is (oracles.brute_diameter(10, list(g.edges)) >= 3) is True
    assert "_masks" in g.__dict__


def test_far_pair_scans_the_rows_outside_the_closed_neighbourhood_of_a_top_vertex():
    # two K_5 joined by the edge 4-5: vertices 4 and 5 tie at degree 5, so h = 4;
    # the far pair 0, 6 has 0 in N(h) and 6 outside N[h]: the row of 6 reaches
    # every row outside N[h], and misses only vertices inside it
    k5 = complete_graph(5).edges
    bridged = Graph.from_pairs(10, [*k5, *((u + 5, v + 5) for u, v in k5), (4, 5)])
    # hub 1 misses only 2 and 5, which lie 3 apart with both ends outside
    # N[1]; vertex 4 ties with it at degree 5, and every row inside N[1] has
    # both 2 and 5 within distance 2
    around = Graph.from_pairs(8, [(0, 1), (1, 3), (1, 4), (1, 6), (1, 7), (0, 2), (2, 4),
                                  (3, 5), (5, 6), (0, 3), (4, 6), (4, 7), (3, 4), (6, 7)])
    for g, h, far in ((bridged, 4, (0, 6)), (around, 1, (2, 5))):
        top = np.flatnonzero(g.degrees == max_degree(g))
        assert len(top) == 2 and top[0] == h != 0
        assert far[1] not in oracles.adjacency(g.n, g.edges)[h] | {h}
        assert 1 + min_degree(g) * max_degree(g) >= g.n  # the degree bound is silent
        assert _has_far_pair(g) is (oracles.brute_diameter(g.n, list(g.edges)) >= 3) is True
    # 2 and 5 were the only far pair
    closed = around.with_edge(2, 5)
    assert oracles.brute_diameter(8, list(closed.edges)) == 2 and not _has_far_pair(closed)


def ladder_graph(n):
    """Hub 0 joined to 2..n-1, vertex 1 to 2 and 3, and the square of the path
    on 2..n-1: delta = 2 leaves the far-pair degree bound silent, and rows
    0-3 of the masks find 1 and 6 apart."""
    return Graph.from_pairs(n, [(0, v) for v in range(2, n)] + [(1, 2), (1, 3)]
                            + [(v, v + d) for d in (1, 2) for v in range(2, n - d)])


def test_far_pair_hub_shortcut(block_bytes, monkeypatch):
    n = 300
    leaves = [(0, v) for v in range(1, n)]
    missed = Graph(n, leaves[:-1] + [(1, n - 1)])  # hub 0 misses n-1, which is 3 from 2
    assert _has_far_pair(missed)
    assert diameter(missed) == 3
    # past one block the ladder's store holds only the blocks its rows 0-3 cut
    ladder = ladder_graph(n)
    assert 1 + min_degree(ladder) * max_degree(ladder) >= n
    assert _has_far_pair(ladder)
    assert diameter(ladder) == 3
    masks = ladder.__dict__["_masks"]
    if n * n > graphs._BLOCK_BYTES:
        starts = sorted({v - v % masks.rows for v in range(4)})
        assert sorted(masks.keys()) == [
            v for lo in starts for v in range(lo, min(lo + masks.rows, n))]
    else:
        assert len(masks) == n and type(masks) is list

    def refuse(*args):
        raise AssertionError("a vertex of degree n - 1 needs no masks")

    monkeypatch.setattr(graphs, "_neighbour_masks", refuse)
    assert not _has_far_pair(star_graph(n))
    assert not _has_far_pair(missed.with_edge(0, n - 1))


def hub_triangle(rng, k, closed):
    """Hubs 0, 1, 2 on the path 0-1-2, each joined to its own k leaves, with
    random edges between the leaves of hubs 0 and 1, labels shuffled. With
    ``closed`` the edge 0-2 makes the hubs the one triangle, and the three
    hubs tie for the highest degree, k + 2 against at most k + 1."""
    n = 3 + 3 * k
    groups = [range(3 + i * k, 3 + (i + 1) * k) for i in range(3)]
    edges = [(0, 1), (1, 2)] + ([(0, 2)] if closed else [])
    edges += [(hub, leaf) for hub, group in enumerate(groups) for leaf in group]
    edges += [(a, b) for a in groups[0] for b in groups[1] if rng.random() < 0.5]
    label = rng.permutation(n).tolist()
    return Graph.from_pairs(n, [(label[u], label[v]) for u, v in edges])


def test_triangle_free_matches_brute_force_up_to_n40(block_bytes):
    rng = np.random.default_rng(404)
    cases = []
    for _ in range(80):
        n = int(rng.integers(1, 41))
        seed = RngSeed(404, int(rng.integers(1 << 30)))
        cases.append(sample_gnp(n, rng.uniform(0.0, 0.25), seed))
    # dense but triangle-free: complete bipartite graphs, even cycles, and the
    # edges of dense samples that join an even vertex to an odd one
    cases += [Graph.from_pairs(a + b, [(u, a + v) for u in range(a) for v in range(b)])
              for a in range(1, 9) for b in range(a, 9)]
    cases += [cycle_graph(n) for n in range(4, 41, 2)]
    for _ in range(30):
        n = int(rng.integers(2, 41))
        g = sample_gnp(n, rng.uniform(0.2, 0.9), RngSeed(405, int(rng.integers(1 << 30))))
        cases.append(Graph(n, [(u, v) for u, v in g.edges if (u + v) % 2]))
    # the one triangle, if any, on the vertices that rank highest
    cases += [hub_triangle(rng, k, closed) for k in range(1, 13) for closed in (True, False)]
    outcomes = set()
    for g in cases:
        free = is_triangle_free(g)
        assert free == oracles.brute_triangle_free(g.n, list(g.edges)), g
        outcomes.add(free)
    assert outcomes == {True, False}


def relabelled_with_vertex(g, v, rng):
    """g under a random relabelling that sends vertex v to 0."""
    others = [u for u in range(g.n) if u != v]
    label = dict(zip([v] + others, [0] + (1 + rng.permutation(g.n - 1)).tolist()))
    return Graph.from_pairs(g.n, [(label[a], label[b]) for a, b in g.edges])


def on_triangle(g, v):
    nbrs = {b if a == v else a for a, b in g.edges if v in (a, b)}
    return any(a in nbrs and b in nbrs for a, b in g.edges)


def test_triangle_through_vertex_zero_builds_no_csr(monkeypatch):
    rng = np.random.default_rng(4711)
    cases = [complete_graph(3), hub_triangle(rng, 6, True)]
    for _ in range(40):
        n = int(rng.integers(3, 31))
        cases.append(sample_gnp(n, rng.uniform(0.1, 0.6), RngSeed(4711, int(rng.integers(1 << 30)))))
    # send some vertex on a triangle to 0
    cases = [relabelled_with_vertex(g, next(v for v in range(g.n) if on_triangle(g, v)), rng)
             for g in cases if not oracles.brute_triangle_free(g.n, list(g.edges))]
    assert len(cases) > 20

    def refuse(*args, **kwargs):
        raise AssertionError("a triangle through vertex 0 needs no CSR")

    monkeypatch.setattr(graphs, "csr_matrix", refuse)
    for g in cases:
        assert on_triangle(g, 0)
        assert not is_triangle_free(g)
        assert not oracles.brute_triangle_free(g.n, list(g.edges))


def test_triangle_away_from_vertex_zero_is_found_by_the_scan(monkeypatch):
    rng = np.random.default_rng(4712)
    # vertex 0 joined to an independent set: the square 0-1-3-2 with a
    # triangle 1-3-4, or 0 between the two triangles of a bowtie
    cases = [Graph(5, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 4)]),
             Graph(7, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])]
    for _ in range(60):
        n = int(rng.integers(4, 31))
        g = sample_gnp(n, rng.uniform(0.1, 0.5), RngSeed(4712, int(rng.integers(1 << 30))))
        free = [v for v in range(n) if not on_triangle(g, v)]
        if free and not oracles.brute_triangle_free(n, list(g.edges)):
            cases.append(relabelled_with_vertex(g, free[0], rng))
    assert len(cases) > 20
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return csr_matrix(*args, **kwargs)

    monkeypatch.setattr(graphs, "csr_matrix", counted)
    for g in cases:
        assert not on_triangle(g, 0)
        built.clear()
        assert not is_triangle_free(g)
        assert not oracles.brute_triangle_free(g.n, list(g.edges))
        assert built, g


def test_triangle_test_with_vertex_zero_of_degree_zero_or_one():
    rng = np.random.default_rng(4713)
    cases = [Graph(1), Graph(2), Graph(2, [(0, 1)]), Graph(4, [(1, 2), (1, 3), (2, 3)]),
             Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)]), Graph(4, [(0, 3), (1, 2), (1, 3), (2, 3)])]
    for _ in range(60):
        n = int(rng.integers(3, 31))
        g = sample_gnp(n, rng.uniform(0.05, 0.5), RngSeed(4713, int(rng.integers(1 << 30))))
        edges = [(u, v) for u, v in g.edges if u != 0]
        keep = [(0, int(rng.integers(1, n)))] if rng.random() < 0.5 else []
        cases.append(Graph.from_pairs(n, keep + edges))
    outcomes = set()
    for g in cases:
        assert g.degrees[0] <= 1
        free = is_triangle_free(g)
        assert free == oracles.brute_triangle_free(g.n, list(g.edges)), g
        outcomes.add((int(g.degrees[0]), free))
    assert outcomes == {(0, True), (0, False), (1, True), (1, False)}


def test_vertex_connectivity_matches_brute_force_n7_n8():
    rng = np.random.default_rng(571112)
    for n in (7, 8):
        pairs = oracles.all_pairs(n)
        for _ in range(60):
            density = rng.uniform(0.2, 0.95)
            edges = [p for p in pairs if rng.random() < density]
            g = Graph(n, edges)
            kappa = oracles.brute_vertex_connectivity(n, edges)
            assert vertex_connectivity(g) == kappa
            for k in range(n + 2):
                assert is_k_connected(g, k) == (kappa >= k)


def test_connectivity_needs_the_neighbour_pairs():
    # two K6 on 1..6 and 7..12 joined by the edge (6, 12), and vertex 0 of
    # minimum degree 4 joined to 1, 2, 7, 8: every 2-vertex cut holds 0, so
    # 0 has local connectivity 3 to each non-neighbour, and only a pair of
    # its neighbours, such as (1, 7), reaches kappa = 2
    cliques = [(u, v) for lo in (1, 7) for u in range(lo, lo + 6) for v in range(u + 1, lo + 6)]
    edges = sorted(cliques + [(6, 12), (0, 1), (0, 2), (0, 7), (0, 8)])
    g = Graph(13, edges)
    assert min_degree(g) == 4 and g.degrees[0] == 4
    assert vertex_connectivity(g) == 2 == oracles.brute_vertex_connectivity(13, edges)
    assert is_k_connected(g, 2)
    assert not is_k_connected(g, 3)


def counting_searches(monkeypatch):
    """Record each augmenting search of the connectivity pairs as ((s, t), found)."""
    searches = []
    real = graphs._augment

    def counted(masks, s, t, pred):
        found = real(masks, s, t, pred)
        searches.append(((s, t), found))
        return found

    monkeypatch.setattr(graphs, "_augment", counted)
    return searches


def test_connectivity_runs_esfahanian_hakimi_searches(monkeypatch):
    searches = counting_searches(monkeypatch)
    g = sample_gnp(64, 0.3, RngSeed(6))
    comp = complement(g)
    for h, query in ((g, vertex_connectivity), (comp, lambda h: is_k_connected(h, 4))):
        searches.clear()
        query(h)
        n, delta = h.n, min_degree(h)
        assert len({pair for pair, _ in searches}) <= (n - 1 - delta) + delta * (delta - 1) // 2
    searches.clear()
    assert vertex_connectivity(g) == 12
    assert 0 < len(searches) < 100  # a search per non-adjacent pair would be 1,423
    # in Esfahanian-Hakimi order, until the running minimum (delta at first)
    # reaches 1: a pair whose common neighbours plus a maximum matching between
    # the neighbours of one end alone and those of the other fall short of the
    # minimum takes searches, and a pair that takes them has fewer common
    # neighbours than the minimum. Each search but the last finds a path; the
    # last fails iff the pair's local connectivity is below the minimum, and
    # the paths found lift the short paths' count to the lower of the two
    for h in connected_non_complete(range(3, 6)) + [g, two_cliques_sharing(6, 2)]:
        searches.clear()
        vertex_connectivity(h)
        edges = list(h.edges)
        adj = oracles.adjacency(h.n, edges)
        least, taken = min_degree(h), []
        for s, t in oracles.brute_separating_pairs(h.n, edges):
            if least <= 1:
                break
            shared = len(adj[s] & adj[t])
            found = [hit for pair, hit in searches if pair == (s, t)]
            if not found and shared >= least:
                continue
            matched = oracles.brute_bipartite_matching(
                h.n, edges, adj[s] - adj[t], adj[t] - adj[s])
            if not found:
                assert shared + matched >= least, (h, s, t)
                continue
            assert shared < least, (h, s, t)
            taken.append((s, t))
            # kappa(G(64, 0.3)) = 12 is its minimum degree: no pair falls below it
            local = least if h is g else oracles.brute_local_connectivity(h.n, edges, s, t)
            assert found[:-1] == [True] * (len(found) - 1) and found[-1] == (local >= least)
            reached = min(least, local)
            assert reached - shared - matched <= found.count(True) <= reached - shared, (h, s, t)
            least = reached
        assert [pair for i, (pair, _) in enumerate(searches)
                if i == 0 or searches[i - 1][0] != pair] == taken, h


def test_short_paths_never_exceed_local_connectivity():
    rng = np.random.default_rng(8128)
    cases = connected_non_complete(range(3, 6))
    for n in (6, 7, 8):
        pairs = oracles.all_pairs(n)
        for _ in range(100):
            density = rng.uniform(0.3, 0.9)
            edges = [p for p in pairs if rng.random() < density]
            if len(edges) < len(pairs) and oracles.brute_connected(n, edges):
                cases.append(Graph(n, edges))
    beyond_shared = 0
    for h in cases:
        edges = list(h.edges)
        adj = oracles.adjacency(h.n, edges)
        masks = [sum(1 << u for u in nbrs) for nbrs in adj]
        for s, t in oracles.all_pairs(h.n):
            if t in adj[s]:
                continue
            paths = graphs._short_paths(masks, s, t, h.n)
            shared = len(adj[s] & adj[t])
            assert shared <= paths <= oracles.brute_local_connectivity(h.n, edges, s, t), (h, s, t)
            beyond_shared += paths > shared
            # recorded, the same count is that many paths from s to t: each inner
            # vertex follows an adjacent one or s, no two follow the same one,
            # and the last of each is adjacent to t
            pred = {}
            assert graphs._short_paths(masks, s, t, h.n, pred) == paths
            inner = [v for v, u in pred.items() if u != s]
            assert all(u in adj[v] for v, u in pred.items())
            assert len(set(pred[v] for v in inner)) == len(inner)
            assert sum(u == s for u in pred.values()) == paths
            ends = set(pred) - set(pred.values())
            assert len(ends) == paths and all(t in adj[v] for v in ends), (h, s, t)
    assert beyond_shared > 100


def test_local_connectivity_matches_brute_force_every_need():
    # every connected graph with n <= 6, and a seeded sample with n = 7 to 10
    cases = [(n, edges) for n in range(3, 7) for edges in oracles.all_edge_subsets(n)
             if oracles.brute_connected(n, edges)]
    for i in range(40):
        g = sample_gnp(7 + i % 4, 0.2 + 0.6 * (i % 5) / 4, RngSeed(4040, i))
        cases.append((g.n, list(g.edges)))
    searched = 0
    for n, edges in cases:
        adj = oracles.adjacency(n, edges)
        masks = [sum(1 << u for u in nbrs) for nbrs in adj]
        for s, t in oracles.all_pairs(n):
            if t in adj[s]:
                continue
            local = oracles.brute_local_connectivity(n, edges, s, t)
            got = [graphs._local_connectivity(masks, s, t, need) for need in range(1, n)]
            assert got == [min(need, local) for need in range(1, n)], (n, edges, s, t)
            searched += local > graphs._short_paths(masks, s, t, n)
    assert searched > 1000  # pairs whose short paths stop below their local connectivity


def test_augmenting_searches_undo_recorded_paths(monkeypatch):
    log = []
    real = graphs._augment

    def counted(masks, s, t, pred):
        before = dict(pred)
        found = real(masks, s, t, pred)
        log.append((found, before, dict(pred)))
        return found

    monkeypatch.setattr(graphs, "_augment", counted)
    # s = 0 and t = 1 share no neighbour, and the matching's only edge is
    # 2-3, so the short path is 0-2-3-1. The second path reaches 3 along
    # 0-4-5-3 and undoes the recorded edge 2-3, and 2 goes on by 6-7
    edges = [(0, 2), (0, 4), (1, 3), (1, 7), (2, 3), (2, 6), (3, 5), (4, 5), (6, 7)]
    masks = [sum(1 << u for u in nbrs) for nbrs in oracles.adjacency(8, edges)]
    assert graphs._short_paths(masks, 0, 1, 2) == 1
    assert graphs._local_connectivity(masks, 0, 1, 2) == 2
    assert log == [(True, {2: 0, 3: 2}, {4: 0, 5: 4, 3: 5, 2: 0, 6: 2, 7: 6})]
    log.clear()
    assert graphs._local_connectivity(masks, 0, 1, 3) == 2 == oracles.brute_local_connectivity(
        8, edges, 0, 1)
    assert [found for found, _, _ in log] == [True, False]
    # s = 3 and t = 10: the short path 3-0-10, then 3-6-2-1-10 by a search.
    # The next search enters 1 along 9-1, goes back to 2's out-state and from
    # there to its in-state, so 2 leaves its path: the two become 3-5-9-1-10
    # and 3-6-7-8-10
    edges = [(0, 1), (0, 3), (0, 5), (0, 9), (0, 10), (1, 2), (1, 9), (1, 10), (2, 6),
             (3, 4), (3, 5), (3, 6), (4, 6), (5, 9), (6, 7), (7, 8), (8, 10)]
    masks = [sum(1 << u for u in nbrs) for nbrs in oracles.adjacency(12, edges)]
    log.clear()
    assert graphs._local_connectivity(masks, 3, 10, 11) == 3
    assert oracles.brute_local_connectivity(12, edges, 3, 10) == 3
    assert [found for found, _, _ in log] == [True, True, False]
    assert log[1][1] == {0: 3, 1: 2, 2: 6, 6: 3}
    assert log[1][2] == {0: 3, 1: 9, 6: 3, 7: 6, 8: 7, 9: 5, 5: 3}


def test_matching_spares_the_searches_of_large_graphs(monkeypatch):
    searches = counting_searches(monkeypatch)
    # every pair of both queries has fewer common neighbours than the minimum,
    # so each would take augmenting searches without the matching; under 1% do
    sparse, dense = sample_gnp(2000, 0.05, RngSeed(5)), sample_gnp(600, 0.5, RngSeed(11))
    assert [sum(1 for _ in separating_pairs(h)) for h in (sparse, dense)] == [4224, 17662]
    assert is_k_connected(sparse, 25)
    assert len(searches) < 4224 // 100
    searches.clear()
    assert vertex_connectivity(dense) == 264  # its minimum degree
    assert len(searches) < 17662 // 100


def test_connectivity_draws_pairs_lazily(monkeypatch):
    drawn = []
    real = graphs._separating_pairs

    def counted(masks, v):
        for pair in real(masks, v):
            drawn.append(pair)
            yield pair

    monkeypatch.setattr(graphs, "_separating_pairs", counted)
    # the first pair, vertex 0 and vertex 6 of the other clique, has the two
    # shared vertices as its only paths, so its failed search ends it at 2 < 3
    assert not is_k_connected(two_cliques_sharing(6, 2), 3)
    assert drawn == [(0, 6)]


def test_mask_readers_skip_the_csr_up_to_the_small_edge_bound(monkeypatch):
    # 64-byte blocks hold the masks of no graph here in one block, so past
    # _SMALL_EDGES only the CSR gives them
    monkeypatch.setattr(graphs, "_BLOCK_BYTES", 64)
    g = joined_blocks(np.random.default_rng(64), 20, [list(range(20))], graphs._SMALL_EDGES)
    queries = [chromatic_number, vertex_connectivity, lambda h: is_k_connected(h, 3), _has_far_pair]
    for h, query in [(petersen_graph(), q) for q in queries] + [(g, q) for q in queries[1:]]:
        query(h)
        assert "_adjacency" not in h.__dict__, (h, query)
    pet = petersen_graph()
    assert analyze(pet).exact == 7
    assert "_adjacency" not in pet.__dict__
    # one edge more and kappa cuts its masks from the CSR
    g = joined_blocks(np.random.default_rng(65), 20, [list(range(20))], 65)
    assert g.m == graphs._SMALL_EDGES + 1 and min_degree(g) >= 2
    vertex_connectivity(g)
    assert "_adjacency" in g.__dict__


def test_mask_readers_share_one_cached_list_while_masks_fit_one_block(monkeypatch):
    builds = []
    real = graphs._neighbour_masks

    def counted(g):
        builds.append(g.n)
        return real(g)

    monkeypatch.setattr(graphs, "_neighbour_masks", counted)
    dense = sample_gnp(16, 0.7, RngSeed(16))
    assert dense.m > graphs._SMALL_EDGES
    for g in (petersen_graph(), dense):
        builds.clear()
        for query in (is_connected, chromatic_number, vertex_connectivity, _has_far_pair):
            query(g)
        assert builds == [g.n]
        assert "_adjacency" not in g.__dict__


def test_masks_past_one_block_are_built_once(monkeypatch):
    builds = []
    real = graphs._neighbour_masks

    def counted(g, *args):
        builds.append(g.n)
        return real(g, *args)

    monkeypatch.setattr(graphs, "_neighbour_masks", counted)
    # 64-byte blocks: the edge loop builds Petersen's masks, the CSR's row
    # blocks those of the dense graph
    monkeypatch.setattr(graphs, "_BLOCK_BYTES", 64)
    dense = sample_gnp(16, 0.7, RngSeed(16))
    for g in (petersen_graph(), dense):
        assert g.n * g.n > graphs._BLOCK_BYTES
        kappa = oracles.brute_vertex_connectivity(g.n, list(g.edges))
        builds.clear()
        assert vertex_connectivity(g) == vertex_connectivity(g) == kappa
        assert builds == [g.n]


def test_mask_readers_agree_past_one_block(monkeypatch):
    # K_12 - e: m = 65, one edge past _SMALL_EDGES
    cases = [(12, complete_graph(12).edge_array[1:]), (30, ladder_graph(30).edge_array)]
    cases += [(n, sample_gnp(n, p, RngSeed(n)).edge_array) for n, p in ((16, 0.7), (18, 0.75))]
    readers = [
        lambda g: chromatic_number(g, cap=g.n),
        lambda g: _component_cover_cost(g._masks),
        lambda g: exactness_certificate(g, kappa_cap=g.n),
        vertex_connectivity,
    ]
    one_block = [[read(Graph(n, arr)) for read in readers] for n, arr in cases]
    assert exact_mc_small(Graph(*cases[0]), cap=66) == 64
    monkeypatch.setattr(graphs, "_BLOCK_BYTES", 64)
    k12_e = Graph(*cases[0])  # the exact search lists its degrees by iterating the masks
    assert exact_mc_small(k12_e, cap=66) == 64 and isinstance(k12_e._masks, graphs._MaskBlocks)
    for (n, arr), values in zip(cases, one_block):
        stored = []
        for read in readers:
            g = Graph(n, arr)
            stored.append(read(g))
            masks = g.__dict__.get("_masks")
            assert masks is None or isinstance(masks, graphs._MaskBlocks), n
        assert stored == values, n


def test_mask_store_cuts_each_block_once(monkeypatch):
    monkeypatch.setattr(graphs, "_BLOCK_BYTES", 64)
    cuts = []
    real = graphs._MaskBlocks.__missing__

    def counted(self, v):
        cuts.append(v - v % self.rows)
        return real(self, v)

    monkeypatch.setattr(graphs._MaskBlocks, "__missing__", counted)
    ladder = ladder_graph(300)
    assert _has_far_pair(ladder)
    masks = ladder._masks
    assert 0 < dict.__len__(masks) < ladder.n and sorted(cuts) == [0, 1, 2, 3]
    assert _has_far_pair(ladder) and len(cuts) == 4  # a second scan cuts no block
    g = sample_gnp(40, 0.4, RngSeed(41))
    cuts.clear()
    kappa = vertex_connectivity(g)
    assert cuts and len(cuts) == len(set(cuts)), cuts
    first = list(cuts)
    assert vertex_connectivity(g) == kappa and cuts == first
    assert kappa == vertex_connectivity(Graph(g.n, g.edge_array))


def connected_non_complete(sizes):
    """Every connected, non-complete graph on n labelled vertices, n in ``sizes``."""
    return [
        Graph(n, edges) for n in sizes for edges in oracles.all_edge_subsets(n)
        if len(edges) < n * (n - 1) // 2 and oracles.brute_connected(n, edges)]


def two_cliques_sharing(size, shared):
    """K_size on 0..size-1 and on size-shared..2*size-shared-1, sharing ``shared`` vertices."""
    lo = size - shared
    return Graph(2 * size - shared, sorted({
        (u + base, v + base) for base in (0, lo) for u in range(size) for v in range(u + 1, size)
    }))


def test_chromatic_number_matches_brute_force():
    for n in range(1, 5):
        for edges in oracles.all_edge_subsets(n):
            assert chromatic_number(Graph(n, edges)) == oracles.brute_chromatic(n, edges)
    rng = np.random.default_rng(361415)
    pairs = oracles.all_pairs(5)
    for _ in range(150):
        density = rng.uniform(0, 1)
        edges = [p for p in pairs if rng.random() < density]
        assert chromatic_number(Graph(5, edges)) == oracles.brute_chromatic(5, edges)


def _first_fit_colors(g):
    """Colors first-fit uses in the (-degree, vertex) order of the chi search."""
    color = {}
    for v in sorted(range(g.n), key=lambda v: (-int(g.degrees[v]), v)):
        taken = {color.get(u) for u in range(g.n) if g.has_edge(u, v)}
        color[v] = min(c for c in range(g.n) if c not in taken)
    return max(color.values()) + 1


def test_chromatic_number_below_first_fit_on_crown_graphs(block_bytes):
    # crown graph: u_i = 2i and v_i = 2i + 1, with u_i ~ v_j iff i != j
    for k in range(3, 9):
        pairs = [(2 * i, 2 * j + 1) for i in range(k) for j in range(k) if i != j]
        g = Graph.from_pairs(2 * k, pairs)
        assert _first_fit_colors(g) == k
        assert chromatic_number(g) == 2


def test_chromatic_number_of_groetzsch_graph(block_bytes):
    # Mycielskian of C5: cycle 0..4, shadow 5 + i of each i, hub 10
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    shadows = [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    g = Graph.from_pairs(11, cycle + shadows + [(10, 5 + i) for i in range(5)])
    assert g.m == 20 and is_triangle_free(g)  # largest clique: one edge
    assert chromatic_number(g) == 4


def test_chromatic_number_matches_brute_force_n6_to_n8(block_bytes):
    rng = np.random.default_rng(5_772)
    for _ in range(60):
        n = int(rng.integers(6, 9))
        density = rng.uniform(0, 0.5)
        edges = [p for p in oracles.all_pairs(n) if rng.random() < density]
        assert chromatic_number(Graph(n, edges)) == oracles.brute_chromatic(n, edges), (n, edges)


def test_chromatic_number_above_small_edge_bound(block_bytes):
    k16 = complete_graph(16)
    # K16 minus a perfect matching: the 8 pairs (2i, 2i + 1) share a class
    cocktail = Graph(16, [e for e in k16.edges if e[1] != e[0] + 1 or e[0] % 2])
    assert (k16.m, cocktail.m) == (120, 112) and cocktail.m > graphs._SMALL_EDGES
    assert chromatic_number(k16) == 16
    assert chromatic_number(cocktail) == 8


def test_chromatic_number_named_and_cap():
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(petersen_graph()) == 3
    assert chromatic_number(Graph(5)) == 1
    assert chromatic_number(complete_graph(16)) == 16
    with pytest.raises(CapExceededError):
        chromatic_number(complete_graph(17))
    assert chromatic_number(complete_graph(17), cap=17) == 17


# ------------------------------------------------------------ spanning tree


def test_spanning_tree_golden_cases():
    assert spanning_tree(cycle_graph(4)) == ((0, 1), (0, 3), (1, 2))
    assert spanning_tree(complete_graph(3)) == ((0, 1), (0, 2))
    assert spanning_tree(path_graph(4)) == path_graph(4).edges
    assert spanning_tree(Graph(1)) == ()
    assert spanning_tree(petersen_graph()) == (
        (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (3, 4), (4, 9), (5, 7), (5, 8),
    )


def test_spanning_tree_properties_all_connected_n5():
    for n in range(2, 6):
        for edges in oracles.all_edge_subsets(n):
            if not oracles.brute_connected(n, edges):
                continue
            g = Graph(n, edges)
            tree = spanning_tree(g)
            assert len(tree) == n - 1
            assert set(tree) <= set(g.edges)
            uf = UnionFind(n)
            for u, v in tree:
                assert uf.union(u, v)  # acyclic: every tree edge merges
            assert uf.count == 1  # spans all vertices


def test_spanning_tree_matches_python_bfs():
    graphs = [
        Graph(n, edges)
        for n in range(1, 6)
        for edges in oracles.all_edge_subsets(n)
        if oracles.brute_connected(n, edges)
    ]
    for n, p, seed in ((2000, 0.05, 5), (600, 0.5, 11), (64, 0.3, 6), (10_000, 1e-3, 1)):
        graphs.append(sample_gnp(n, p, RngSeed(seed)))
    for g in graphs:
        assert spanning_tree(g) == oracles.bfs_spanning_tree(g.n, g.edges), g


def test_spanning_tree_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        spanning_tree(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(NotConnectedError):  # the search from 0 reaches nothing
        spanning_tree(Graph(4, [(1, 2), (1, 3), (2, 3)]))
    with pytest.raises(NotConnectedError):  # only the last vertex is missed
        spanning_tree(Graph(4, [(0, 1), (0, 2), (1, 2)]))


# ------------------------------------------------------------ other queries


def test_diameter_named_cases():
    assert diameter(complete_graph(4)) == 1
    assert diameter(path_graph(4)) == 3
    assert diameter(Graph(4, [(0, 1), (2, 3)])) == math.inf
    assert diameter(Graph(1)) == 0
    assert diameter(petersen_graph()) == 2


def test_cut_vertex_named_cases():
    assert has_cut_vertex(path_graph(3))
    assert not has_cut_vertex(cycle_graph(4))
    assert not has_cut_vertex(complete_graph(4))
    assert has_cut_vertex(star_graph(5))


def test_cut_vertex_matches_brute_force_sampled_n7_to_n30():
    rng = np.random.default_rng(7030)
    outcomes = set()
    for i in range(120):
        n = int(rng.integers(7, 31))
        # sparse samples are often disconnected, with cut vertices in their
        # trees; dense ones are 2-connected, or lose it to one pendant vertex
        p = rng.uniform(0.02, 0.3) if i % 2 else rng.uniform(0.3, 0.9)
        g = sample_gnp(n, p, RngSeed(7030, i))
        if i % 4 == 2:
            g = Graph.from_pairs(n + 1, [*g.edges, (int(rng.integers(n)), n)])
        expected = bool(oracles.brute_cut_vertices(g.n, list(g.edges)))
        assert has_cut_vertex(g) == expected, g
        outcomes.add((is_connected(g), expected))
    assert outcomes == {(c, e) for c in (True, False) for e in (True, False)}


def test_vertex_connectivity_named_cases():
    assert vertex_connectivity(complete_graph(4)) == 3
    assert vertex_connectivity(path_graph(3)) == 1
    assert vertex_connectivity(cycle_graph(4)) == 2
    assert vertex_connectivity(petersen_graph()) == 3
    assert vertex_connectivity(Graph(1)) == 0
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0
    # two K6 sharing two vertices: kappa = 2 below delta = 5
    two_k6 = two_cliques_sharing(6, 2)
    assert min_degree(two_k6) == 5
    assert vertex_connectivity(two_k6) == 2 == oracles.brute_vertex_connectivity(
        two_k6.n, list(two_k6.edges))


def test_complement_cases():
    assert complement(complete_graph(4)).m == 0
    assert complement(Graph(3)).edges == complete_graph(3).edges
    c5c = complement(cycle_graph(5))
    assert c5c.m == 5 and min_degree(c5c) == max_degree(c5c) == 2
    assert is_connected(c5c) and is_triangle_free(c5c)


def test_complement_past_the_edge_limit_raises(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_EDGES", 6)
    assert complement(path_graph(5)).m == 6
    with pytest.raises(ValueError, match="complement edge count exceeds limit 6"):
        complement(Graph(5, [(0, 1), (1, 2), (2, 3)]))  # 7 non-edges


def test_union_find():
    uf = UnionFind(5)
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.union(2, 3)
    assert uf.count == 3
    assert uf.find(1) == uf.find(0)
    assert uf.find(4) == 4


# ---------------------------------------------------------------- fuzz laws


@given(random_graphs(min_n=2, max_n=12))
@settings(max_examples=150, deadline=None)
def test_kappa_at_most_min_degree(g):
    assert vertex_connectivity(g) <= min_degree(g)


@given(random_graphs())
@settings(max_examples=150, deadline=None)
def test_components_partition_vertices(g):
    assert partition(g) == oracles.brute_components(g.n, g.edges)


@given(random_graphs(max_n=10))
@settings(max_examples=100, deadline=None)
def test_complement_involution(g):
    cc = complement(complement(g))
    assert cc == g
    assert complement(g).m == g.n * (g.n - 1) // 2 - g.m
