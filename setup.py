"""Setup shim for environments without the ``wheel`` package.

Kept deliberately minimal so that ``pip install -e . --no-use-pep517``
(the legacy editable path) works on machines whose setuptools cannot
build PEP 517 wheels offline.

numpy is a required dependency: the vectorized evaluation backend
(``--backend vector`` / ``REPRO_BACKEND=vector``) and the clauses'
``*_vector`` methods import it on first use.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
