"""The declared runtime dependencies are installed and satisfy their pins."""

import importlib.metadata
import tomllib
from pathlib import Path

from packaging.requirements import Requirement

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_runtime_dependencies_are_installed():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for spec in project["dependencies"]:
        req = Requirement(spec)
        version = importlib.metadata.version(req.name)
        assert req.specifier.contains(version, prereleases=True), (spec, version)
