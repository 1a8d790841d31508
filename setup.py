"""Setuptools entry point.

Minimal metadata kept here (no ``pyproject.toml`` in this repo) so that
``pip install .`` works in offline environments whose pip/setuptools
combination cannot perform PEP 660 editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="sofya-repro",
    version="0.1.0",
    description="Reproduction of SOFYA-style online relation alignment (EDBT'16)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # No hard runtime dependencies: the ID-triple indexes keep their sorted
    # third level in a built-in bisect-maintained list (faster than chunked
    # sorted containers at this store's run lengths).  numpy is optional:
    # when present it runs the bulk-load column sort, CSR snapshot
    # assembly, scale-world generation and the SPARQL block join kernels;
    # without it (or with REPRO_NO_NUMPY=1) each degrades to a pure-Python
    # path with identical results.
    install_requires=[],
)
