"""Build helper for the native search kernel.

Compiles ``_stsearchmodule.c`` into ``_stsearch<EXT_SUFFIX>`` next to this
file by invoking the C compiler recorded in ``sysconfig`` directly — no
setuptools invocation, no network, no temp build trees left behind.  The
compiled artefact is written via a temp file + atomic ``os.replace`` so
concurrent builders (a pytest-xdist swarm, parallel bench jobs) can race
harmlessly.

Freshness is decided by content, not mtime: the build compiles the
sha256 of ``_stsearchmodule.c`` into the artefact and :func:`is_stale`
looks for the digest of the source on disk in the binary, so a binary
that travelled with a different source (a copied tree, a tarball, a
reverted edit) is rebuilt — or, where building is not possible, not
loaded (see :func:`repro.pathfinding._kernel.load_compiled`) — instead of
being handed calls its entry points do not take.  A rebuilt extension
cannot be re-imported into a process that already loaded the old one
(CPython never unloads C extensions; run in a fresh process).

``setup.py`` in this directory remains the documented setuptools route
(``python setup.py build_ext --inplace``); this module is what the test
suite, the bench harness and CI actually call because it works on a bare
compiler with no build backend installed.

Set ``REPRO_KERNEL_BUILD=0`` to forbid build attempts entirely (the CI
pure-python job uses this to prove the fallback path never needs a
compiler).
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from typing import List, Optional

from ...errors import ConfigurationError

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_stsearchmodule.c")


def extension_filename() -> str:
    """The platform-tagged filename the import system expects."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return "_stsearch" + suffix


def extension_path() -> str:
    """Absolute path of the (possibly not yet built) extension."""
    return os.path.join(_HERE, extension_filename())


def build_allowed() -> bool:
    """Whether the environment permits invoking a compiler."""
    return os.environ.get("REPRO_KERNEL_BUILD", "1") != "0"


def source_stamp() -> str:
    """sha256 hex digest of the C source on disk."""
    with open(_SOURCE, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def is_stale() -> bool:
    """Whether the built artefact is missing or was compiled from a
    different ``_stsearchmodule.c`` than the one on disk."""
    try:
        with open(extension_path(), "rb") as fh:
            return source_stamp().encode("ascii") not in fh.read()
    except OSError:
        return True


def _compiler_command(output: str) -> Optional[List[str]]:
    cc = sysconfig.get_config_var("CC") or os.environ.get("CC") or "cc"
    include = sysconfig.get_paths().get("include")
    if include is None:
        return None
    cmd = shlex.split(cc)
    # No fused multiply-add: learned_select's floats are python's.
    cmd += ["-O2", "-ffp-contract=off", "-fPIC", "-shared", "-I" + include,
            f'-DSTSEARCH_SOURCE_SHA256="{source_stamp()}"',
            _SOURCE, "-o", output]
    return cmd


def build_extension(force: bool = False, quiet: bool = True) -> Optional[str]:
    """Compile the kernel if needed; return the artefact path or ``None``.

    ``None`` means the kernel is unavailable: builds are forbidden by
    ``REPRO_KERNEL_BUILD=0``, no compiler is present, or compilation
    failed.  Callers treat that as "run pure python" — building is always
    best-effort, never an error.  With ``quiet=False`` a failed compile or
    a missing compiler raises :class:`~repro.errors.ConfigurationError`
    naming the compiler command and what it wrote to stderr.
    """
    target = extension_path()
    stale = is_stale()
    if not stale and not force:
        return target
    if not build_allowed():
        return None if stale else target
    fd, temp_out = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    cmd = None
    try:
        cmd = _compiler_command(temp_out)
        if cmd is None:
            return None
        result = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if result.returncode == 0:
            os.replace(temp_out, target)
            temp_out = None
            return target
        detail = result.stderr.decode("utf-8", "replace")
    except (OSError, subprocess.SubprocessError) as error:
        detail = str(error)
    finally:
        if temp_out is not None and os.path.exists(temp_out):
            os.unlink(temp_out)
    if quiet:
        return None
    raise ConfigurationError(
        f"native kernel build failed: {shlex.join(cmd or [])}\n{detail}")
