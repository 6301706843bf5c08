"""The reference kernel must stay independent of the program under test.

Run with ``python3 -m pytest perfbench/test_calibrate.py`` from the
repository root.
"""

import ast
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_calibrate_imports_nothing_from_repro():
    tree = ast.parse((HERE / "calibrate.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "expected the kernel module to import something"
    assert not [
        name for name in imported
        if name == "repro" or name.startswith("repro.")
    ]
    # Nor indirectly: a fresh interpreter that imports the kernel and
    # runs it has not loaded the program.
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import calibrate; "
        "calibrate.kernel_seconds(); "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']"
    )
    subprocess.run([sys.executable, "-c", probe, str(HERE)], check=True)
