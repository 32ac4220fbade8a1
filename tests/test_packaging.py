"""The package metadata reads its version from the one place it is written."""

import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import deletion_lab

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_version_is_the_package_version():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # older setuptools calls its [tool.setuptools] table beta
        project = read_configuration(PYPROJECT)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == deletion_lab.__version__
