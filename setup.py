"""Build settings ``pyproject.toml`` leaves to setuptools.

The version is ``repro.__version__``, read from the source without
importing the package, and the golden datasets under
``repro/evals/data`` ship with it.  Packages are found under ``src/``.
"""

import ast
from pathlib import Path

from setuptools import setup


def _version() -> str:
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__version__"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"no __version__ in {init}")


setup(version=_version(), package_data={"repro.evals": ["data/*.json"]})
