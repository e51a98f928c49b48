"""Setuptools entry point: the project's only packaging metadata.

Installs the ``repro`` package from ``src/`` and the ``repro`` console
script.  On an offline machine whose pip/setuptools combination cannot do a
PEP 660 editable install (no ``wheel`` package available),
``python setup.py develop`` is the fallback.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Defensive Approximation: securing CNNs using approximate computing "
        "(ASPLOS 2021 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
