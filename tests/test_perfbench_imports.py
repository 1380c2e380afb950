"""Every name the benchmark imports from mclab must keep resolving.

The scripts under ``perfbench/`` time the library through its module-level
names. They are read here as source, never run, and each
``from mclab... import name`` they hold is looked up in the library.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_imports_from_mclab_resolve():
    checked = []
    for script in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mclab":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), (script.name, node.module, alias.name)
                    checked.append(f"{node.module}.{alias.name}")
    # workloads.py alone imports over 30 names from sampling, graphs, coloring and threshold
    assert "mclab.graphs.diameter" in checked and len(checked) >= 30
