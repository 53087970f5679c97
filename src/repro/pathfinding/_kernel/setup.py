"""Setuptools build for the native search kernel (documented route).

    cd src/repro/pathfinding/_kernel && python setup.py build_ext --inplace

The repo's own tooling (tests, benches, CI) uses ``build.py`` instead,
which drives the C compiler directly and needs no build backend; both
produce the same ``_stsearch`` artefact in this directory.
"""

import hashlib

from setuptools import Extension, setup

# The same source stamp build.py compiles in (see build.is_stale()).
with open("_stsearchmodule.c", "rb") as fh:
    _STAMP = hashlib.sha256(fh.read()).hexdigest()

setup(
    name="repro-stsearch-kernel",
    version="1.0",
    ext_modules=[
        Extension(
            "_stsearch",
            sources=["_stsearchmodule.c"],
            extra_compile_args=["-O2", "-ffp-contract=off"],
            define_macros=[("STSEARCH_SOURCE_SHA256", f'"{_STAMP}"')],
        )
    ],
)
