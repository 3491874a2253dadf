"""The runtime needs NumPy and the standard library only.

``import repro`` must work in an environment that has nothing else
installed (``requirements-dev.txt`` lists no special-function library,
and the README promises a NumPy-only runtime).
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

# Runs in a fresh interpreter with scipy made unimportable: a scipy import
# anywhere on these paths raises ModuleNotFoundError.
_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.modules["scipy"] = None

    import repro
    import repro.api
    import repro.service.server
    from repro.api import BudgetSpec, InstanceSpec, SessionSpec, run_session

    for workload, params in (("gaussian", {"sigma": 0.07}), ("uniform", {})):
        spec = SessionSpec(
            instance=InstanceSpec(n=6, k=3, workload=workload, seed=1, params=params),
            budget=BudgetSpec(questions=2),
        )
        run_session(spec)

    assert sys.modules["scipy"] is None
    loaded = [name for name in sys.modules if name.startswith("scipy.")]
    assert not loaded, loaded
    print("ok")
    """
)


def test_sessions_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_src_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "repro"}
    foreign = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            foreign.extend(
                f"{path.relative_to(SRC)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            )
    assert foreign == []
