"""The single-graph benchmark's pinned outputs, checked in the unit suite.

``perfbench/expected.json`` pins what ``analyze`` returns on the benchmark's
corpus at its default seed, and a digest of the exact values over every
connected graph with n <= 5. The corpus is rebuilt here as the benchmark
builds it, and the file is only read, so a change to vertex connectivity or
to a certificate that moves a pin fails here before a benchmark run.
"""

import hashlib
import json
from pathlib import Path

from mclab.coloring import analyze, exact_mc_small
from mclab.graphs import Graph, is_connected, petersen_graph
from mclab.sampling import RngSeed, sample_gnp

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

# (name, n, p, seed) of the sampled corpus graphs; Petersen is the fourth
GNP_CORPUS = (("gnp64", 64, 0.3, 6), ("gnp600", 600, 0.5, 11), ("gnp2000", 2000, 0.05, 5))


def pins():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))["single_graph"]


def test_analyze_matches_the_benchmark_pins():
    corpus = {"petersen": petersen_graph()}
    corpus.update((name, sample_gnp(n, p, RngSeed(seed))) for name, n, p, seed in GNP_CORPUS)
    pinned = pins()["bounds"]
    assert sorted(pinned) == sorted(corpus)
    for name, g in corpus.items():
        b = analyze(g)
        got = {"lower": b.lower, "upper": b.upper, "exact": b.exact,
               "certificates": list(b.certificates)}
        assert got == pinned[name], name


def test_exact_values_up_to_n5_match_the_benchmark_digest():
    # every connected graph on 1..5 vertices, by n, then by edge-subset mask
    values = []
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
            if is_connected(g):
                values.append(exact_mc_small(g))
    digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()
    assert (len(values), digest) == (pins()["small5_count"], pins()["small5_sha256"])
