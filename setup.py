"""Legacy setup shim.

Allows ``pip install -e .`` to use the setuptools develop path in
offline environments where PEP-517 build isolation cannot download
build dependencies (metadata lives in pyproject.toml).
"""

from setuptools import setup

setup()
