"""Legacy setup shim.

The offline CI environment lacks the `wheel` package, so PEP 660 editable
installs are unavailable; this file lets `pip install -e .` use the classic
`setup.py develop` path.  All metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
