"""Setup shim for environments without the ``wheel`` package.

Kept deliberately minimal so that ``pip install -e . --no-use-pep517``
(the legacy editable path) works on machines whose setuptools cannot
build PEP 517 wheels offline.

The package is pure Python on the standard library: it has no install
requirements.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
