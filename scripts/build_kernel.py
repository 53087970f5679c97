#!/usr/bin/env python
"""Build (or rebuild) the native search kernel extension.

A thin CLI over :mod:`repro.pathfinding._kernel.build` for workflows that
want the extension compiled ahead of time — CI, containers, or a dev
machine after touching ``_stsearchmodule.c``::

    PYTHONPATH=src python scripts/build_kernel.py [--force] [--check]

``--check`` exits non-zero when the built extension cannot be imported
afterwards, or was not compiled from the ``_stsearchmodule.c`` on disk
(the CI build step uses it so a broken compile fails loudly instead of
silently falling back to the python core).  Without the flag
a failed build is reported but exits zero — the library's contract is
that the pure-python core always works.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FsPath

_REPO = FsPath(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.pathfinding._kernel import load_compiled  # noqa: E402
from repro.pathfinding._kernel.build import (build_allowed,  # noqa: E402
                                             build_extension,
                                             extension_path, source_stamp)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--force", action="store_true",
                        help="rebuild even if the extension was compiled "
                             "from the source on disk")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the extension builds, "
                             "imports AND carries the source's stamp")
    args = parser.parse_args(argv)

    if not build_allowed():
        print("builds are disabled (REPRO_KERNEL_BUILD=0)")
        return 1 if args.check else 0

    try:
        built = build_extension(force=args.force, quiet=False)
    except ReproError as error:
        print(error)
        built = None
    if built is None:
        print("native kernel build failed; the pure-python core remains "
              "the fallback")
        return 1 if args.check else 0
    module = load_compiled(refresh=True)
    if module is None:
        print(f"built {built} but the extension does not import")
        return 1 if args.check else 0
    if getattr(module, "SOURCE_SHA256", None) != source_stamp():
        print(f"the loaded extension ({module.__file__}) was not compiled "
              "from the _stsearchmodule.c on disk; rerun in a fresh process")
        return 1 if args.check else 0
    print(f"native kernel ready: {extension_path()} "
          f"(source {module.SOURCE_SHA256[:12]})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
