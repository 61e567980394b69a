import doctest
from pathlib import Path

import pytest

import gridperms


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "gridperms.__version__"
    }
    assert gridperms.__version__ == "0.1.0"


def test_readme_tour_and_module_doctests():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    results = [
        doctest.testfile(str(readme), module_relative=False),
        doctest.testmod(gridperms.perms),
        doctest.testmod(gridperms.codec),
        doctest.testmod(gridperms.enumeration),
        doctest.testmod(gridperms.graphs),
    ]
    assert [r.failed for r in results] == [0, 0, 0, 0, 0]
    assert all(r.attempted for r in results)
