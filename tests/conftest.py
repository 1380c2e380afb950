# keeps the tests directory importable so shared oracle helpers resolve

from collections import Counter

import numpy as np
import pytest

import mclab.graphs


@pytest.fixture(params=[None, 64], ids=["default_blocks", "tiny_blocks"])
def block_bytes(request, monkeypatch):
    """Run the test with the library's block size, then with 64-byte blocks.

    Tiny blocks send every block loop of the array checks (the verifier's row
    scan, the diameter test, the triangle test, whose blocks then take about 8
    multiplications each, and the neighbour masks, built a row or a few per
    block) through many short blocks. Past ``graphs._SMALL_EDGES`` edges the
    masks of a graph whose n x n bools fit one block are scattered from its
    edge array; 64-byte blocks hold only n <= 8, at most 28 edges, so with them
    every such graph cuts its masks from the CSR instead, and a test of both
    sources takes both settings. The coloring verifier reads the size from
    ``graphs`` when it is called, so one patch serves both modules.
    """
    if request.param is not None:
        monkeypatch.setattr(mclab.graphs, "_BLOCK_BYTES", request.param)


@pytest.fixture
def labellings(monkeypatch):
    """Count every scipy component labelling the library runs, keyed by the
    labelled graph's vertex count and the int64 bytes of its edges' heads and
    tails, in the order scipy is handed them."""
    calls = Counter()
    real = mclab.graphs._scipy_components

    def counted(mat, **options):
        edges = mat.tocoo()
        heads, tails = edges.row.astype(np.int64), edges.col.astype(np.int64)
        calls[mat.shape[0], heads.tobytes(), tails.tobytes()] += 1
        return real(mat, **options)

    monkeypatch.setattr(mclab.graphs, "_scipy_components", counted)
    return calls
