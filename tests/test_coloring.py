"""Coloring construction/verification, the bound ladder, certificates, exact search."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mclab.coloring
import mclab.graphs
import oracles
from mclab.coloring import (
    CHROMATIC_UPPER,
    COMPLETE_GRAPH,
    CONNECTIVITY_UPPER,
    DEFAULT_KAPPA_CAP,
    DISCONNECTED,
    EXACT_A,
    EXACT_B,
    EXACT_C,
    EXACT_D,
    EXACT_E,
    EXACT_ORACLE,
    MIN_DEGREE_UPPER,
    TREE_LOWER,
    EdgeColoring,
    McBounds,
    analyze,
    exact_mc_small,
    exactness_certificate,
    first_uncovered_pair,
    mc_lower_bound,
    mc_upper_bound,
    spanning_tree_coloring,
    verify_mc_coloring,
)
from mclab.errors import CapExceededError, NotConnectedError
from mclab.graphs import (
    _SMALL_EDGES,
    _WALK_DENSITY,
    Graph,
    _has_far_pair,
    complete_graph,
    cycle_graph,
    diameter,
    has_cut_vertex,
    is_triangle_free,
    max_degree,
    min_degree,
    path_graph,
    petersen_graph,
    spanning_tree,
    star_graph,
)
from mclab.sampling import RngSeed, sample_gnp


def connected_edge_subsets(n):
    for edges in oracles.all_edge_subsets(n):
        if oracles.brute_connected(n, edges):
            yield edges


def sample_connected(n, p, stream, master=424242):
    """First connected draw at or after the given stream index."""
    while True:
        g = sample_gnp(n, p, RngSeed(master, stream))
        stream += 1
        if len(oracles.brute_components(n, g.edges)) == 1:
            return g, stream


# ------------------------------------------------------------- EdgeColoring


def test_edge_coloring_validation():
    c4 = cycle_graph(4)
    c = EdgeColoring(c4, [0, 1, 0, 2])
    assert c.num_colors == 3
    assert c.labels == (0, 1, 0, 2)
    with pytest.raises(ValueError):
        EdgeColoring(c4, [0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        EdgeColoring(c4, [1, 0, 0, 0])  # first label must be 0
    with pytest.raises(ValueError):
        EdgeColoring(c4, [0, 2, 1, 0])  # label 2 appears before 1
    with pytest.raises(ValueError):
        EdgeColoring(c4, [0, -1, 0, 0])
    with pytest.raises(ValueError):
        EdgeColoring(path_graph(3), [0, 0.9])  # not truncated to (0, 0)


def test_edge_coloring_labels_share_the_graph_memo(monkeypatch):
    memo = EdgeColoring.__dict__["labels"]
    assert isinstance(memo, mclab.graphs._memo) and memo.name == "labels"
    built = []

    def counted(c, build=memo.build):
        built.append(c)
        return build(c)

    monkeypatch.setattr(memo, "build", counted)
    c = EdgeColoring(cycle_graph(4), [0, 1, 0, 2])
    assert c.labels == (0, 1, 0, 2) and c.labels is c.__dict__["labels"]
    assert built == [c]


CONTIGUOUS = "contiguous from 0 in first-occurrence order"


def _unsigned_unless_negative(labels):
    return np.array(labels, dtype=np.uint64 if min(labels) >= 0 else np.int64)


@pytest.mark.parametrize("as_input", [list, tuple, np.array, _unsigned_unless_negative],
                         ids=["list", "tuple", "int64", "uint64"])
def test_edge_coloring_rejection_cases(as_input):
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="coloring has 3 labels but the graph has 4 edges"):
        EdgeColoring(c4, as_input([0, 1, 2]))
    with pytest.raises(ValueError, match=CONTIGUOUS):
        EdgeColoring(c4, as_input([1, 0, 0, 0]))  # first label not 0
    with pytest.raises(ValueError, match=CONTIGUOUS):
        EdgeColoring(c4, as_input([0, 1, 3, 2]))  # 3 is two above the running maximum 1
    with pytest.raises(ValueError, match=CONTIGUOUS):
        EdgeColoring(c4, as_input([0, -1, 0, 0]))  # negative
    c = EdgeColoring(c4, as_input([0, 1, 1, 0]))
    assert c.labels == (0, 1, 1, 0) and c.num_colors == 2
    assert all(type(lab) is int for lab in c.labels)


def test_edge_coloring_converts_labels_like_index():
    c4 = cycle_graph(4)
    labels = EdgeColoring(c4, [0, np.int64(1), np.uint8(2), True]).labels
    assert labels == (0, 1, 2, 1) and all(type(lab) is int for lab in labels)
    for raw in ([0.0, 1, 2, 1], [0, 1.9, 2, 1], [0, 1, "2", 1], [0, 1, np.float64(2), 1]):
        with pytest.raises(ValueError, match="must be integers"):
            EdgeColoring(c4, raw)  # int() would truncate or parse these
    with pytest.raises(ValueError, match=CONTIGUOUS):
        EdgeColoring(c4, [0, 1, 2**70, 2])  # beyond int64, still just out of order
    with pytest.raises(ValueError, match=CONTIGUOUS):
        EdgeColoring(c4, [0, 1, -(2**70), 2])
    with pytest.raises(ValueError):
        EdgeColoring(c4, [0, 1, "x", 2])


def test_edge_coloring_check_matches_first_occurrence_loop():
    def accepted(labels):
        distinct = 0
        for lab in labels:
            if lab > distinct or lab < 0:
                return False
            distinct += lab == distinct
        return True

    rng = np.random.default_rng(17)
    g = complete_graph(6)
    for _ in range(500):
        labels = rng.integers(-1, 5, size=g.m).tolist()
        if rng.random() < 0.5:  # walk most draws towards canonical order
            labels = EdgeColoring.from_labels(g, labels).labels
            labels = [lab + int(rng.random() < 0.05) for lab in labels]
        if accepted(labels):
            assert EdgeColoring(g, labels).num_colors == len(set(labels))
        else:
            with pytest.raises(ValueError, match=CONTIGUOUS):
                EdgeColoring(g, labels)


def test_from_labels_canonicalizes():
    c4 = cycle_graph(4)
    c = EdgeColoring.from_labels(c4, ["red", "blue", "red", "green"])
    assert c.labels == (0, 1, 0, 2)
    c2 = EdgeColoring.from_labels(c4, [7, 7, 3, 7])
    assert c2.labels == (0, 0, 1, 0) and c2.num_colors == 2
    mixed = ["b", (1, 2), -5, "b", -5, (1, 2), "a", (2, 1), -5, "a"]
    c3 = EdgeColoring.from_labels(cycle_graph(10), mixed)
    assert c3.labels == (0, 1, 2, 0, 2, 1, 3, 4, 2, 3) and c3.num_colors == 5


def test_edge_coloring_empty_graph():
    g = Graph(1)
    c = EdgeColoring(g, [])
    assert c.num_colors == 0
    assert verify_mc_coloring(g, c)


# ----------------------------------------------------------------- verifier


def test_verifier_spec_cases():
    c4 = cycle_graph(4)
    assert verify_mc_coloring(c4, EdgeColoring(c4, [0, 0, 0, 0]))
    distinct = EdgeColoring(c4, [0, 1, 2, 3])
    assert not verify_mc_coloring(c4, distinct)
    assert first_uncovered_pair(c4, distinct) == (0, 2)
    k3 = complete_graph(3)
    assert verify_mc_coloring(k3, EdgeColoring(k3, [0, 1, 2]))
    # an isolated vertex lies in no class component, not even with itself
    isolated = Graph(4, [(1, 2), (2, 3)])
    assert first_uncovered_pair(isolated, EdgeColoring(isolated, [0, 0])) == (0, 1)
    assert first_uncovered_pair(Graph(3), EdgeColoring(Graph(3), [])) == (0, 1)


def test_verifier_rejects_foreign_coloring():
    c = EdgeColoring(cycle_graph(4), [0, 0, 0, 0])
    with pytest.raises(ValueError):
        verify_mc_coloring(cycle_graph(5), c)


def test_verifier_matches_brute_force():
    rng = np.random.default_rng(130705)
    cases = [(4, edges) for edges in connected_edge_subsets(4)]
    pairs5 = oracles.all_pairs(5)
    while len(cases) < 90:
        density = rng.uniform(0.4, 1.0)
        edges = [p for p in pairs5 if rng.random() < density]
        if oracles.brute_connected(5, edges):
            cases.append((5, edges))
    for n, edges in cases:
        g = Graph(n, edges)
        for _ in range(4):
            k = int(rng.integers(1, len(edges) + 1))
            c = EdgeColoring.from_labels(g, rng.integers(0, k, size=len(edges)))
            classes = oracles.edge_classes(g.edges, c.labels)
            expected = oracles._pair_covered_everywhere(n, classes)
            assert verify_mc_coloring(g, c) == expected


def verifier_cases(seed, count):
    """Seeded (graph, coloring) pairs on 6..40 vertices, cycling through three
    families: a spanning-tree class plus random other classes (valid); K_n
    with every label distinct or with classes of n - 2 edges, so no class
    can span (valid); and random labels on a random graph (almost always
    invalid).
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(6, 41))
        if i % 3 == 0:
            g, _ = sample_connected(n, rng.uniform(0.15, 0.6), 100 * i, master=seed)
            tree = set(spanning_tree(g))
            others = int(rng.integers(1, 6))
            raw = [-1 if e in tree else int(rng.integers(others)) for e in g.edges]
        elif i % 3 == 1:
            g = complete_graph(n)
            if i % 2:
                raw = list(range(g.m))
            else:
                raw = (rng.permutation(g.m) // (n - 2)).tolist()
        else:
            g = sample_gnp(n, rng.uniform(0.05, 0.9), RngSeed(seed, i))
            raw = rng.integers(0, int(rng.integers(1, g.m + 2)), size=g.m).tolist()
        yield g, EdgeColoring.from_labels(g, raw)


def test_first_uncovered_pair_matches_brute_oracle(block_bytes):
    valid = 0
    for g, c in verifier_cases(61_803, 36):
        classes = oracles.edge_classes(g.edges, c.labels)
        expected = oracles.brute_first_uncovered_pair(g.n, classes)
        assert first_uncovered_pair(g, c) == expected
        valid += expected is None
    assert 12 <= valid < 36  # families (i) and (ii) are valid, (iii) mostly not


def test_first_uncovered_pair_reads_labels_given_in_any_integer_form():
    for g, c in verifier_cases(27_182, 12):
        expected = oracles.brute_first_uncovered_pair(g.n, oracles.edge_classes(g.edges, c.labels))
        for as_input in (list, tuple, np.array, _unsigned_unless_negative):
            rebuilt = EdgeColoring(g, as_input(c.labels))
            assert rebuilt == c and hash(rebuilt) == hash(c)
            assert first_uncovered_pair(g, rebuilt) == expected


def test_edge_coloring_stores_one_read_only_label_array():
    c4 = cycle_graph(4)
    c = EdgeColoring(c4, np.array([0, 1, 1, 2], dtype=np.uint64))
    assert c._array.dtype == np.int64 and not c._array.flags.writeable
    with pytest.raises(ValueError):
        c._array[0] = 1
    assert c.labels == (0, 1, 1, 2) and all(type(lab) is int for lab in c.labels)
    assert EdgeColoring(c4, [0, 1, 1, 0]) != c
    empty = EdgeColoring(Graph(1), [])
    assert empty._array.dtype == np.int64 and empty.labels == ()


# ------------------------------------------------------------- construction


def test_spanning_tree_coloring_examples():
    assert spanning_tree_coloring(path_graph(3)).num_colors == 1
    c4 = cycle_graph(4)
    c = spanning_tree_coloring(c4)
    assert c.num_colors == 2
    assert c.labels == (0, 0, 0, 1)  # tree {01, 03, 12}; chord (2,3) fresh
    assert verify_mc_coloring(c4, c)
    k4 = complete_graph(4)
    ck4 = spanning_tree_coloring(k4)
    assert ck4.num_colors == 4 and verify_mc_coloring(k4, ck4)


def test_spanning_tree_coloring_rejects_disconnected():
    with pytest.raises(NotConnectedError):
        spanning_tree_coloring(Graph(4, [(0, 1), (2, 3)]))


def test_spanning_tree_coloring_seeded_samples():
    # shrunk copy of the acceptance sweep so the module test stays quick
    rng = np.random.default_rng(51)
    stream = 0
    for _ in range(100):
        n = int(rng.integers(4, 51))
        p = float(rng.uniform(0.3, 0.9))
        g, stream = sample_connected(n, p, stream)
        c = spanning_tree_coloring(g)
        assert c.num_colors == g.m - g.n + 2
        assert verify_mc_coloring(g, c)


def test_spanning_tree_coloring_matches_edge_loop():
    def loop_labels(g):
        """The labelling as first written: a loop over the canonical edges."""
        tree = set(spanning_tree(g))
        labels = []
        fresh = 1
        for e in g.edges:
            if e in tree:
                labels.append(0)
            else:
                labels.append(fresh)
                fresh += 1
        return tuple(labels)

    graphs = [Graph(1), path_graph(5), cycle_graph(4), petersen_graph(), complete_graph(7)]
    graphs.append(sample_gnp(2000, 0.05, RngSeed(5)))
    rng = np.random.default_rng(2000)
    stream = 0
    for _ in range(20):
        n = int(rng.integers(2, 80))
        g, stream = sample_connected(n, float(rng.uniform(0.15, 0.9)), stream, master=2000)
        graphs.append(g)
    for g in graphs:
        assert spanning_tree_coloring(g).labels == loop_labels(g)


# ------------------------------------------------------------------- bounds


def test_mc_lower_bound_examples():
    assert mc_lower_bound(path_graph(3)) == 1
    assert mc_lower_bound(complete_graph(4)) == 4
    assert mc_lower_bound(Graph(4, [(0, 1), (2, 3)])) == 0
    assert mc_lower_bound(Graph(1)) == 0  # no edges to color


def test_mc_upper_bound_examples():
    value, tags = mc_upper_bound(complete_graph(4))
    assert value == 6 and CHROMATIC_UPPER in tags
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    value, tags = mc_upper_bound(k4e)
    assert value == 4
    assert set(tags) == {MIN_DEGREE_UPPER, CHROMATIC_UPPER, CONNECTIVITY_UPPER}
    value, tags = mc_upper_bound(path_graph(4))
    assert value == 1 and MIN_DEGREE_UPPER in tags


def test_mc_upper_bound_errors_and_caps():
    with pytest.raises(NotConnectedError):
        mc_upper_bound(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        mc_upper_bound(Graph(1))
    # with both expensive terms capped out, only the degree bound remains
    value, tags = mc_upper_bound(cycle_graph(5), chi_cap=3, kappa_cap=3)
    assert value == 5 - 5 + 2 + 1 and tags == (MIN_DEGREE_UPPER,)


def test_upper_bound_never_exceeds_pair_count():
    for n in range(2, 6):
        for edges in connected_edge_subsets(n):
            value, _ = mc_upper_bound(Graph(n, edges))
            assert value <= n * (n - 1) // 2


# ------------------------------------------------------------- certificates


def test_certificate_examples():
    assert exactness_certificate(cycle_graph(5)) == EXACT_B
    # the star is triangle-free, so the first-match rule reports (b) even
    # though it also has a cut vertex
    assert exactness_certificate(star_graph(4)) == EXACT_B
    assert exactness_certificate(complete_graph(4)) is None
    assert exactness_certificate(petersen_graph()) == EXACT_A


def test_certificate_each_condition_reachable():
    # (c): graphs with triangles but low enough max degree for the inequality
    wheelless = Graph(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert exactness_certificate(wheelless) == EXACT_C
    bowtie = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    assert exactness_certificate(bowtie) == EXACT_C
    # (d): clique with a long tail; (a)-(c) all fail
    k6_tail = Graph(
        8,
        sorted([(u, v) for u in range(6) for v in range(u + 1, 6)] + [(5, 6), (6, 7)]),
    )
    assert exactness_certificate(k6_tail) == EXACT_D
    # (e): two cliques sharing a hub; diameter 2, so only the cut vertex fires
    two_k4 = Graph(
        7,
        sorted(
            [(u, v) for u in range(4) for v in range(u + 1, 4)]
            + [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
        ),
    )
    assert exactness_certificate(two_k4) == EXACT_E


def test_certificate_requires_hypotheses():
    with pytest.raises(ValueError, match="hypothesis violated"):
        exactness_certificate(complete_graph(3))
    with pytest.raises(NotConnectedError):
        exactness_certificate(Graph(5, [(0, 1), (2, 3)]))


def test_certificate_soundness_exhaustive():
    # against the partition oracle: exact_mc_small reads certificate (c) itself
    checked = 0
    for n in (4, 5):
        for edges in connected_edge_subsets(n):
            g = Graph(n, edges)
            if exactness_certificate(g) is not None:
                assert oracles.oracle_mc(n, edges) == g.m - g.n + 2
                checked += 1
    assert checked == 633


def reference_certificate(g):
    """Conditions (a)-(e) in order, from the brute oracles and the public
    diameter and cut-vertex checks."""
    n, m, edges = g.n, g.m, list(g.edges)
    es = set(edges)
    co_edges = [p for p in oracles.all_pairs(n) if p not in es]
    if n <= DEFAULT_KAPPA_CAP and oracles.brute_is_k_connected(n, co_edges, 4):
        return EXACT_A
    if oracles.brute_triangle_free(n, edges):
        return EXACT_B
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    if max(degs) * (n - 3) < n * (n - 3) - (2 * m - 3 * (n - 1)):
        return EXACT_C
    if diameter(g) >= 3:
        return EXACT_D
    if has_cut_vertex(g):
        return EXACT_E
    return None


def test_certificate_matches_reference_exhaustive_and_sampled():
    seen = set()
    for n in (4, 5):
        for edges in connected_edge_subsets(n):
            g = Graph(n, edges)
            cert = exactness_certificate(g)
            assert cert == reference_certificate(g)
            seen.add(cert)
    rng = np.random.default_rng(271828)
    for i in range(50):
        n = int(rng.integers(6, 31))
        # every other graph gets a two-edge tail, so (d) and (e) get reached
        core = n - 2 if i % 2 else n
        g, _ = sample_connected(core, rng.uniform(0.3, 0.95), 100 * i, master=271828)
        if core < n:
            g = Graph(n, sorted(g.edges + ((core - 1, core), (core, core + 1))))
        cert = exactness_certificate(g)
        assert cert == reference_certificate(g)
        seen.add(cert)
    assert seen == {EXACT_A, EXACT_B, EXACT_C, EXACT_D, EXACT_E, None}


def test_certificate_a_reaches_four_by_augmenting_searches(monkeypatch):
    # (a) runs vertex connectivity's pair search on the complemented masks; on
    # these graphs some pair of the complement has fewer than 4 short paths
    searches = []
    real = mclab.graphs._augment

    def counted(masks, s, t, pred):
        found = real(masks, s, t, pred)
        searches.append(found)
        return found

    monkeypatch.setattr(mclab.graphs, "_augment", counted)
    # n = 9, p = 0.25: the one search of the pair that falls short fails, so
    # (a) fails, and (b), triangle-free, holds
    graphs = [sample_gnp(9, 0.25, RngSeed(77, 162))]
    graphs += [sample_gnp(8 + i % 5, 0.2 + 0.05 * (i % 5), RngSeed(2024, i)) for i in range(600)]
    reached = []
    for g in graphs:
        if not mclab.graphs.is_connected(g):
            continue
        searches.clear()
        cert = exactness_certificate(g)
        if searches:
            co_edges = oracles.brute_complement(g.n, list(g.edges))
            assert (cert == EXACT_A) == oracles.brute_is_k_connected(g.n, co_edges, 4), g
            reached.append((cert, any(searches)))
    assert reached[0] == (EXACT_B, False)
    assert reached.count((EXACT_A, True)) >= 10


def bounded_degree_graph(rng, n, top):
    """A connected graph on n vertices with largest degree ``top`` >= 3: a
    Hamiltonian path, vertex 0 joined to ``top - 1`` more vertices, and random
    chords between vertices below degree ``top``, labels shuffled."""
    degree = [1] + [2] * (n - 2) + [1]
    pairs = {(i, i + 1) for i in range(n - 1)}
    for v in rng.choice(np.arange(2, n), top - 1, replace=False).tolist():
        pairs.add((0, v))
        degree[0] += 1
        degree[v] += 1
    for _ in range(n):
        u, v = sorted(rng.choice(np.arange(1, n), 2, replace=False).tolist())
        if (u, v) not in pairs and max(degree[u], degree[v]) < top:
            pairs.add((u, v))
            degree[u] += 1
            degree[v] += 1
    label = rng.permutation(n).tolist()
    return Graph.from_pairs(n, [(label[u], label[v]) for u, v in pairs])


def test_certificate_a_degree_rung_matches_brute_complement(monkeypatch):
    # 2 Delta <= n - 4 leaves the complement least degree >= (n + 2)/2, so it is
    # 4-connected (Chartrand & Harary 1968) and (a) holds with no pair search
    searches = []
    real = mclab.coloring._least_pair_connectivity

    def counted(*args):
        searches.append(args[1:])
        return real(*args)

    monkeypatch.setattr(mclab.coloring, "_least_pair_connectivity", counted)
    rng = np.random.default_rng(1968)
    cases = [cycle_graph(n) for n in range(8, 31, 2)]
    for n in range(8, 31, 3):
        rung = (n - 4) // 2
        cases += [bounded_degree_graph(rng, n, top) for top in (rung, rung + 1) if top >= 3]
    fired = searched = 0
    for g in cases:
        n, top = g.n, int(g.degrees.max())
        assert mclab.graphs.is_connected(g)
        co_edges = oracles.brute_complement(n, list(g.edges))
        searches.clear()
        cert = exactness_certificate(g)
        assert (cert == EXACT_A) == oracles.brute_is_k_connected(n, co_edges, 4), g
        assert (not searches) == (2 * top <= n - 4), g
        fired += not searches
        searched += bool(searches)
    assert fired >= 15 and searched >= 5


def test_certificate_a_on_the_corpus_needs_no_pair_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the complement's pair search ran")

    monkeypatch.setattr(mclab.coloring, "_least_pair_connectivity", refuse)
    gnp64 = sample_gnp(64, 0.3, RngSeed(6))
    assert (int(gnp64.degrees.max()), int(petersen_graph().degrees.max())) == (28, 3)
    assert exactness_certificate(petersen_graph()) == EXACT_A
    assert exactness_certificate(gnp64) == EXACT_A
    assert analyze(gnp64).certificates[-1] == EXACT_A


def two_cliques_sharing_a_vertex(a):
    """Copies of K_a on 0..a-1 and on 0, a..2a-2: n = 2a - 1, diameter 2, cut vertex 0."""
    second = [0, *range(a, 2 * a - 1)]
    pairs = [*itertools.combinations(range(a), 2), *itertools.combinations(second, 2)]
    return Graph.from_pairs(2 * a - 1, pairs)


@pytest.mark.parametrize("a", [4, 10, 40])
def test_certificate_e_runs_no_cut_vertex_search(a, monkeypatch):
    g = two_cliques_sharing_a_vertex(a)
    n = g.n
    apex = Graph(n + 1, sorted(g.edges + tuple((v, n) for v in range(n))))
    for h, cuts in ((g, (0,)), (apex, ())):
        assert oracles.brute_diameter(h.n, h.edges) == 2
        assert oracles.brute_cut_vertices(h.n, h.edges) == cuts

    def refuse(_):
        raise AssertionError("the depth-first cut-vertex search ran")

    monkeypatch.setattr(mclab.graphs, "has_cut_vertex", refuse)
    monkeypatch.setattr(mclab.coloring, "has_cut_vertex", refuse, raising=False)
    assert exactness_certificate(g) == EXACT_E  # at a = 40, n = 79 is past kappa_cap
    assert exactness_certificate(apex) is None


def test_array_checks_on_large_sparse_graph_stay_within_block_memory():
    # n = 50 000: a dense n x n array would take 2.5 GB, and even packed bits
    # 312 MB, against a traced peak bound of 64 MiB
    n = 50_000
    rng = np.random.default_rng(50_000)
    even = 2 * rng.integers(0, n // 2, size=60_000)
    odd = 2 * rng.integers(0, n // 2, size=60_000) + 1
    chords = set(zip(np.minimum(even, odd).tolist(), np.maximum(even, odd).tolist()))
    cycle = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    bipartite = Graph.from_pairs(n, cycle | chords)  # every edge joins even to odd
    closed = Graph.from_pairs(n, cycle | chords | {(n - 3, n - 1)})  # one triangle, at the end
    assert bipartite.m > 100_000
    tree_coloring = spanning_tree_coloring(bipartite)
    distinct = EdgeColoring(bipartite, range(bipartite.m))
    # with every edge its own class, the covered pairs are exactly the edges
    first_gap = next(v for v in range(1, n) if (0, v) not in bipartite.edge_set)
    # hub 0 joined to 2..n-1, vertex 1 to 2 and 3, the square of the path on
    # 2..n-1: it fails (b) and (c), and delta = 2 leaves the degree bound of
    # (d) silent, so the far-pair test reads masks, block by block, to (1, 6)
    hub = Graph.from_pairs(n, [(0, v) for v in range(2, n)] + [(1, 2), (1, 3)]
                           + [(v, v + d) for d in (1, 2) for v in range(2, n - d)])
    assert 1 + min_degree(hub) * max_degree(hub) >= n
    checks = [
        (is_triangle_free, (bipartite,), True),
        (is_triangle_free, (closed,), False),
        (_has_far_pair, (bipartite,), True),
        (_has_far_pair, (hub,), True),
        (exactness_certificate, (hub,), EXACT_D),
        (first_uncovered_pair, (bipartite, tree_coloring), None),
        (first_uncovered_pair, (bipartite, distinct), (0, first_gap)),
    ]
    for fn, args, expected in checks:
        tracemalloc.start()
        try:
            assert fn(*args) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"{fn.__name__} peaked at {peak / 2**20:.0f} MiB"


# ------------------------------------------------------------- exact oracle


def test_exact_mc_spec_examples():
    assert exact_mc_small(path_graph(3)) == 1
    assert exact_mc_small(complete_graph(4)) == 6
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert exact_mc_small(k4e) == 4
    assert exact_mc_small(cycle_graph(5)) == 2
    assert exact_mc_small(Graph(4, [(0, 1), (2, 3)])) == 0
    assert exact_mc_small(Graph(1)) == 0


def test_exact_mc_cap():
    c5 = cycle_graph(5)
    with pytest.raises(CapExceededError):
        exact_mc_small(c5, cap=4)
    assert exact_mc_small(c5, cap=5) == 2
    with pytest.raises(CapExceededError):
        exact_mc_small(petersen_graph())  # m = 15 over the default cap
    with pytest.raises(CapExceededError):
        exact_mc_small(Graph(1), cap=-1)  # connected, so the cap still applies


def test_exact_mc_matches_independent_oracle():
    for n in (2, 3, 4):
        for edges in connected_edge_subsets(n):
            assert exact_mc_small(Graph(n, edges)) == oracles.oracle_mc(n, edges)
    rng = np.random.default_rng(20250815)
    pairs = oracles.all_pairs(5)
    done = 0
    while done < 25:
        density = rng.uniform(0.4, 0.95)
        edges = [p for p in pairs if rng.random() < density]
        if not oracles.brute_connected(5, edges) or len(edges) > 9:
            continue
        assert exact_mc_small(Graph(5, edges)) == oracles.oracle_mc(5, edges)
        done += 1
    done = 0
    stream = 0
    while done < 10:
        g = sample_gnp(6, 0.45, RngSeed(20251018, stream))
        stream += 1
        if not oracles.brute_connected(6, g.edges) or g.m > 9:
            continue
        assert exact_mc_small(g) == oracles.oracle_mc(6, list(g.edges))
        done += 1
    for edges in connected_edge_subsets(5):
        assert exact_mc_small(Graph(5, edges)) == oracles.oracle_mc(5, edges)


def test_exact_mc_closed_forms():
    # C_n: mc = 2 for every n >= 4; C_12 sits at the default cap
    for n in range(4, 13):
        assert exact_mc_small(cycle_graph(n)) == 2
    # K_n - e: delta = n - 2 caps mc at m - 1, and one 2-edge path through a
    # third vertex, covering the one non-edge, reaches it
    for n in range(4, 8):
        edges = [e for e in complete_graph(n).edges if e != (0, n - 1)]
        expected = n * (n - 1) // 2 - 2
        assert exact_mc_small(Graph(n, edges), cap=len(edges)) == expected
        if n <= 5:
            assert oracles.oracle_mc(n, edges) == expected


def test_exact_mc_within_cap_labels_no_components(labellings):
    assert exact_mc_small(Graph(1)) == 0
    for n in range(2, 5):
        for edges in oracles.all_edge_subsets(n):
            assert exact_mc_small(Graph(n, edges)) == oracles.oracle_mc(n, edges)
    for edges in ([], [(0, 1), (2, 3), (3, 4)], [(0, 1), (0, 2), (1, 2), (3, 4)]):
        assert exact_mc_small(Graph(5, edges)) == 0 == oracles.oracle_mc(5, edges)
    assert not labellings
    # beyond the cap a disconnected graph still returns 0; at m = 10, and on
    # the dense 2 K_12, the bitmask walk decides it; on the sparse 2 C_40,
    # past _SMALL_EDGES and below the walk's density, one labelling does
    c5 = cycle_graph(5).edges
    two_c5 = Graph(10, c5 + tuple((u + 5, v + 5) for u, v in c5))
    assert exact_mc_small(two_c5, cap=9) == 0
    k12 = complete_graph(12).edges
    two_k12 = Graph(24, k12 + tuple((u + 12, v + 12) for u, v in k12))
    assert two_k12.m == 132 > _SMALL_EDGES and 24 * 24 <= _WALK_DENSITY * 132
    assert exact_mc_small(two_k12) == 0
    assert not labellings
    c40 = cycle_graph(40).edges
    two_c40 = Graph(80, c40 + tuple((u + 40, v + 40) for u, v in c40))
    assert two_c40.m == 80 > _SMALL_EDGES and 80 * 80 > _WALK_DENSITY * 80
    assert exact_mc_small(two_c40) == 0
    assert sum(labellings.values()) == 1


def test_exact_mc_runs_no_search_at_min_degree_one(monkeypatch):
    def refuse(*args):
        raise AssertionError("the tree-cover search ran")

    monkeypatch.setattr(mclab.coloring, "_tree_cover_search", refuse)
    checked = 0
    for n in range(2, 6):
        for edges in connected_edge_subsets(n):
            if min(sum(x in e for e in edges) for x in range(n)) == 1:
                assert exact_mc_small(Graph(n, edges)) == oracles.oracle_mc(n, edges)
                checked += 1
    assert checked == 507


def test_exact_mc_runs_no_search_when_certificate_c_holds(monkeypatch):
    def refuse(*args):
        raise AssertionError("the tree-cover search ran")

    monkeypatch.setattr(mclab.coloring, "_tree_cover_search", refuse)
    checked = 0
    for n in (4, 5):
        for edges in connected_edge_subsets(n):
            m, degs = len(edges), [sum(x in e for e in edges) for x in range(n)]
            if min(degs) >= 2 and max(degs) * (n - 3) < n * (n - 3) - (2 * m - 3 * (n - 1)):
                assert exact_mc_small(Graph(n, edges)) == oracles.oracle_mc(n, edges)
                checked += 1
    assert checked == 130


def component_cover_coloring(g):
    """The component cover of exact_mc_small as a coloring, with its cost.

    Each component C of the complement with at least 2 vertices takes one
    tree: a spanning tree of G[C] when G[C] is connected, and otherwise the
    star from the lowest vertex outside C, which is adjacent to all of C. Two
    stars that share an edge take one color, and every other edge takes a
    color of its own."""
    n, adj = g.n, oracles.adjacency(g.n, g.edges)
    owner, trees = {}, 0
    for comp in oracles.brute_components(n, oracles.brute_complement(n, list(g.edges))):
        if len(comp) < 2:
            continue
        inner = [(comp.index(u), comp.index(v)) for u, v in g.edges if u in comp and v in comp]
        spanning = oracles.bfs_spanning_tree(len(comp), inner)
        if spanning is not None:
            tree = [(comp[a], comp[b]) for a, b in spanning]
            assert owner.keys().isdisjoint(tree)  # edges inside C: no other tree's
            owner.update(dict.fromkeys(tree, trees))
        else:
            centre = min(set(range(n)) - set(comp))
            assert adj[centre] >= set(comp)
            star = [(min(centre, v), max(centre, v)) for v in comp]
            shared = {owner[e] for e in star if e in owner}
            assert len(shared) <= 1  # a star shares an edge with at most one other
            owner.update(dict.fromkeys(star, shared.pop() if shared else trees))
        trees += 1
    for label in set(owner.values()):  # each class, merged or not, is a tree
        class_edges = [e for e, owned in owner.items() if owned == label]
        assert len({v for e in class_edges for v in e}) == len(class_edges) + 1
    coloring = EdgeColoring.from_labels(g, [owner.get(e, e) for e in g.edges])
    return coloring, g.m - coloring.num_colors


def test_star_cover_coloring_reaches_mc_on_k_n_minus_a_perfect_matching():
    # K_n minus a perfect matching: its complement is n/2 K_2, so the
    # component cover is n/2 stars, and chi = n/2, so the chromatic upper
    # bound m - n/2 meets the cover's m - n/2 colors
    for n in (4, 6, 8):
        g = Graph(n, [e for e in complete_graph(n).edges if e[0] % 2 or e[1] != e[0] + 1])
        coloring, cost = component_cover_coloring(g)
        assert cost == n // 2 == mclab.coloring._component_cover_cost(g._masks)
        assert verify_mc_coloring(g, coloring)
        assert coloring.num_colors == g.m - n // 2 == mc_upper_bound(g)[0]
        if n < 8:
            assert exact_mc_small(g, cap=g.m) == g.m - n // 2
    # C_4's complement is 2 K_2, and the centre of each star lies in the other's
    # component: the stars 1-0, 1-2 and 0-1, 0-3 share the edge 0-1, and join
    # into the path 3-0-1-2, which leaves the edge 2-3 a color of its own
    c4 = cycle_graph(4)
    coloring, cost = component_cover_coloring(c4)
    assert cost == 2 and coloring.labels == (0, 0, 0, 1) and verify_mc_coloring(c4, coloring)
    assert exact_mc_small(c4) == 2 == oracles.oracle_mc(4, list(c4.edges))


def test_component_cover_cost_matches_its_coloring_up_to_n6():
    kinds = set()
    for n in range(2, 7):
        for edges in connected_edge_subsets(n):
            g = Graph(n, edges)
            cost = mclab.coloring._component_cover_cost(g._masks)
            coloring, witness_cost = component_cover_coloring(g)
            assert witness_cost == cost and coloring.num_colors == g.m - cost, edges
            assert verify_mc_coloring(g, coloring), edges
            # never above the spanning tree's n - 2 nor the star cover's n - k
            parts = len(oracles.brute_components(n, oracles.brute_complement(n, edges)))
            assert cost <= n - max(parts, 2)
            # up to n = 6 the cover is optimal: the 405 searches at n = 6
            # only prove it
            assert exact_mc_small(g, cap=15) == coloring.num_colors
            kinds.add((parts > 1, cost < n - max(parts, 2)))
    # covers with stars only, with spanning trees of some G[C] below n - k,
    # and the spanning tree of G itself when the complement is connected
    assert kinds == {(True, False), (True, True), (False, False)}
    # at n = 7 the cover can miss: here it costs 5, and tau is 4
    g = Graph(7, [(0, 1), (0, 3), (0, 4), (0, 6), (1, 3), (1, 5), (1, 6), (2, 3),
                  (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6)])
    coloring, cost = component_cover_coloring(g)
    assert cost == mclab.coloring._component_cover_cost(g._masks) == 5
    assert verify_mc_coloring(g, coloring)
    assert mclab.coloring._tree_cover_search(g.edges, 7, 5, 0) == 4
    assert exact_mc_small(g, cap=15) == g.m - 4


def test_exact_mc_matches_the_unseeded_search_on_every_connected_graph_up_to_n6():
    checked = 0
    for n in range(1, 7):
        for edges in connected_edge_subsets(n):
            g = Graph(n, edges)
            m, degs = len(edges), [sum(x in e for e in edges) for x in range(n)]
            top = m - n + min(degs) + 1
            # the search from the spanning tree alone, with no certificate first
            expected = top if m - n + 2 >= top else (
                m - mclab.coloring._tree_cover_search(g.edges, n, n - 2, m - top))
            assert exact_mc_small(g, cap=15) == expected, edges
            checked += 1
    assert checked == 27476


def test_exact_mc_runs_no_search_when_the_component_cover_meets_the_floor(monkeypatch):
    searched = []
    search = mclab.coloring._tree_cover_search

    def counted(edges, n, best, floor):
        searched.append((n, best))
        return search(edges, n, best, floor)

    monkeypatch.setattr(mclab.coloring, "_tree_cover_search", counted)
    skipped = by_upper = 0
    for n in range(3, 6):
        for edges in connected_edge_subsets(n):
            m, degs = len(edges), [sum(x in e for e in edges) for x in range(n)]
            certified = n > 3 and max(degs) * (n - 3) < n * (n - 3) - (2 * m - 3 * (n - 1))
            if min(degs) < 2 or certified:
                continue
            g, before = Graph(n, edges), len(searched)
            mc = oracles.oracle_mc(n, edges)
            assert exact_mc_small(g) == mc
            if len(searched) == before:
                top = m - n + min(degs) + 1
                coloring, cost = component_cover_coloring(g)
                assert coloring.num_colors == mc
                by_upper += cost <= m - top
                skipped += 1
    # the cheap exits leave 134 graphs with n <= 5; the component cover meets
    # m - (the upper bound) on 119 (the old star cover did on 59 of them), and
    # the counting floor on the other 15
    assert (skipped, by_upper, len(searched)) == (134, 119, 0)
    # over all 32,768 labelled graphs on 6 vertices, 405 searches run
    for edges in oracles.all_edge_subsets(6):
        exact_mc_small(Graph(6, edges), cap=15)
    assert len(searched) == 405


def test_counting_floor_holds_on_every_connected_graph_up_to_n6():
    # a cover of cost tau holds at most tau(tau + 1)/2 non-edges
    tight = 0
    for n in range(1, 7):
        for edges in connected_edge_subsets(n):
            tau = len(edges) - exact_mc_small(Graph(n, edges), cap=15)
            holes = n * (n - 1) // 2 - len(edges)
            assert holes <= tau * (tau + 1) // 2, edges
            tight += holes > (tau - 1) * tau // 2  # the floor meets tau
    assert tight > 0


def test_counting_floor_alone_settles_k_n_minus_two_disjoint_edges(monkeypatch):
    # delta = n - 2 puts m minus the degree bound at 1, and the cover is two
    # stars of cost 1 each; the two non-edges need tau(tau + 1)/2 >= 2, so tau = 2
    def refuse(*args):
        raise AssertionError("the tree-cover search ran")

    monkeypatch.setattr(mclab.coloring, "_tree_cover_search", refuse)
    for n in range(5, 10):
        g = Graph(n, [e for e in complete_graph(n).edges if e not in ((0, 1), (2, 3))])
        top = g.m - n + min_degree(g) + 1
        assert g.m - top == 1 and mclab.coloring._component_cover_cost(g._masks) == 2
        assert exact_mc_small(g, cap=g.m) == g.m - 2
        if n == 5:
            assert oracles.oracle_mc(n, list(g.edges)) == g.m - 2


def test_sandwich_and_completeness_small():
    for n in (2, 3, 4):
        for edges in connected_edge_subsets(n):
            g = Graph(n, edges)
            exact = exact_mc_small(g)
            assert mc_lower_bound(g) <= exact <= mc_upper_bound(g)[0]
            if g.is_complete():
                assert exact == n * (n - 1) // 2
            else:
                assert exact < n * (n - 1) // 2


def test_monotonicity_small():
    cache = {}

    def mc(g):
        if g not in cache:
            cache[g] = exact_mc_small(g)
        return cache[g]

    for n in (2, 3, 4):
        for edges in connected_edge_subsets(n):
            g = Graph(n, edges)
            base = mc(g)
            for u in range(n):
                for v in range(u + 1, n):
                    if (u, v) not in g.edge_set:
                        assert mc(g.with_edge(u, v)) >= base


# ------------------------------------------------------------------ analyze


def test_analyze_disconnected():
    b = analyze(Graph(4, [(0, 1), (2, 3)]))
    assert (b.lower, b.upper, b.exact) == (0, 0, 0)
    assert b.certificates == (DISCONNECTED,)


def test_analyze_examples():
    b = analyze(petersen_graph())
    assert b.exact == 7 and b.lower == 7 and EXACT_A in b.certificates
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    b = analyze(k4e)
    assert (b.lower, b.upper, b.exact) == (3, 4, 4)
    assert EXACT_ORACLE in b.certificates
    b = analyze(complete_graph(4))
    assert b.exact == 6 and COMPLETE_GRAPH in b.certificates
    b = analyze(path_graph(3))
    assert b.exact == 1 and EXACT_ORACLE not in b.certificates
    b = analyze(Graph(1))
    assert b.exact == 0
    assert TREE_LOWER in b.certificates


K4_MINUS_EDGE = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
BRACKET_TAGS = (TREE_LOWER, MIN_DEGREE_UPPER, CHROMATIC_UPPER, CONNECTIVITY_UPPER)


@pytest.mark.parametrize("g, caps, expected", [
    (Graph(4, [(0, 1), (2, 3)]), {}, McBounds(0, 0, 0, (DISCONNECTED,))),
    (Graph(1), {}, McBounds(0, 0, 0, (TREE_LOWER, COMPLETE_GRAPH))),
    (complete_graph(4), {}, McBounds(4, 6, 6, BRACKET_TAGS + (COMPLETE_GRAPH,))),
    (petersen_graph(), {}, McBounds(7, 8, 7, (TREE_LOWER, CHROMATIC_UPPER, EXACT_A))),
    (path_graph(3), {}, McBounds(1, 1, 1, BRACKET_TAGS)),
    (K4_MINUS_EDGE, {}, McBounds(3, 4, 4, BRACKET_TAGS + (EXACT_ORACLE,))),
    (K4_MINUS_EDGE, {"oracle_cap": 0}, McBounds(3, 4, None, BRACKET_TAGS)),
], ids=["disconnected", "one-vertex", "complete", "certificate", "closed-bracket",
        "oracle", "unknown"])
def test_analyze_pins_every_exit(g, caps, expected):
    assert analyze(g, **caps) == expected


def test_analyze_labels_each_graph_once(labellings):
    graphs = [
        petersen_graph(),
        two_cliques_sharing_a_vertex(4),
        two_cliques_sharing_a_vertex(40),
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        cycle_graph(6),
        cycle_graph(100),
        path_graph(5),
        sample_gnp(64, 0.3, RngSeed(6)),
    ]
    rng = np.random.default_rng(4455)
    stream = 0
    for _ in range(8):
        g, stream = sample_connected(int(rng.integers(4, 9)), 0.6, stream, master=4455)
        graphs.append(g)
    for g in graphs:
        labellings.clear()
        b = analyze(g)
        arr = g.edge_array
        # small and dense graphs walk their masks (see Graph._connected)
        labelled = 1 if g.m > _SMALL_EDGES and g.n * g.n > _WALK_DENSITY * g.m else 0
        assert labellings[g.n, arr[:, 0].tobytes(), arr[:, 1].tobytes()] == labelled
        assert set(labellings.values()) <= {1}  # G - v, for (e), is another graph
        if g.m <= 9:
            assert b.exact == oracles.oracle_mc(g.n, list(g.edges))
    labellings.clear()
    assert analyze(Graph(4, [(0, 1), (2, 3)])).exact == 0 and not labellings


def test_analyze_on_dense_graphs_builds_no_csr_and_labels_nothing(labellings):
    # the benchmark corpus's G(600, 0.5) and G(64, 0.3), with their pinned brackets
    cases = (
        (600, 0.5, 11, McBounds(89213, 89476, None, (TREE_LOWER, MIN_DEGREE_UPPER))),
        (64, 0.3, 6, McBounds(531, 542, 531, (TREE_LOWER, MIN_DEGREE_UPPER, CONNECTIVITY_UPPER,
                                              EXACT_A))),
    )
    for n, p, seed, expected in cases:
        g = sample_gnp(n, p, RngSeed(seed))
        assert analyze(g) == expected
        assert not labellings and "_adjacency" not in g.__dict__, g
        assert "_masks" in g.__dict__


def test_analyze_without_oracle_leaves_gap_open():
    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    b = analyze(k4e, oracle_cap=0)
    assert b.exact is None and (b.lower, b.upper) == (3, 4)


def test_mcbounds_validation():
    with pytest.raises(ValueError):
        McBounds(3, 2, None, ())
    with pytest.raises(ValueError):
        McBounds(1, 4, 5, ())
    with pytest.raises(ValueError):
        McBounds(-1, 2, None, ())


@given(st.integers(min_value=4, max_value=24), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_analyze_invariants_fuzz(n, master):
    g = sample_gnp(n, 0.45, RngSeed(master, 3))
    b = analyze(g)
    assert 0 <= b.lower <= b.upper
    if b.exact is not None:
        assert b.lower <= b.exact <= b.upper
    assert len(b.certificates) >= 1
