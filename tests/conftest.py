# keeps the tests directory importable so shared oracle helpers resolve

import pytest

import mclab.coloring
import mclab.graphs


@pytest.fixture(params=[None, 64], ids=["default_blocks", "tiny_blocks"])
def block_bytes(request, monkeypatch):
    """Run the test with the library's block size, then with 64-byte blocks.

    Tiny blocks send every block loop of the array checks (the verifier's row
    scan, the diameter test, the triangle test, whose blocks then take about 8
    multiplications each, and the neighbour masks of kappa, chi and the
    far-pair test, built a row or a few per block) through many short blocks.
    Past ``graphs._SMALL_EDGES`` edges the masks of a graph whose n x n bools
    fit one block are scattered from its edge array; 64-byte blocks hold only
    n <= 8, at most 28 edges, so with them every such graph cuts its masks
    from the CSR instead, and a test of both sources takes both settings.
    """
    if request.param is not None:
        monkeypatch.setattr(mclab.graphs, "_BLOCK_BYTES", request.param)
        monkeypatch.setattr(mclab.coloring, "_BLOCK_BYTES", request.param)
