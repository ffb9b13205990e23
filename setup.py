"""Setup shim.

The install is pure Python (``pip install -e . --no-build-isolation
--no-use-pep517`` works offline — the sandbox this reproduction was
developed in has no ``wheel`` package and no network access).  All real
metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
