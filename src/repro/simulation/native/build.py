"""Lazy, cached build of the native core (cffi API mode).

The extension is compiled on first use into a per-user cache directory
(``$XDG_CACHE_HOME/repro-native``, default ``~/.cache/repro-native``) and
loaded from there afterwards:

* **Keyed.** The module name carries a hash of ``core.h``, ``core.c``, the
  compiler flags and the Python ABI (implementation cache tag and extension
  suffix), so a changed source or another interpreter never loads a stale
  binary; old builds simply stay unused.
* **Built in a child process.** ``cffi``'s builder (and its C parser) is
  imported only by a ``python -c`` child, so the simulator's RSS and import
  set do not grow; the parent only loads the finished extension.
* **Atomic.** The child compiles into a private temporary directory inside
  the cache and moves the finished ``.so`` into place with ``os.replace``, so
  parallel sweep workers that race on a cold cache each build and publish a
  complete file, and a reader never sees a partial one.

A failed build (no compiler, unwritable cache, a compile error) is
remembered for the life of the process and :func:`load_core` returns
``None``: callers fall back to the object engine.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import Optional, Tuple

__all__ = ["cache_root", "load_core", "build_error", "module_name"]

_HERE = Path(__file__).resolve().parent
_HEADER = _HERE / "core.h"
_SOURCE = _HERE / "core.c"
_CFLAGS = ("-O2", "-fno-strict-aliasing")

#: Memo of the load attempt: ``None`` = not tried yet, else ``(ffi, lib)``
#: or the failure message (a ``str``).
_CORE = None

_CHILD = r"""
import os, sys, tempfile
from pathlib import Path
import cffi
name, header, source, root, cflags = sys.argv[1:6]
root = Path(root)
root.mkdir(parents=True, exist_ok=True)
tmp = tempfile.mkdtemp(prefix=name + ".", dir=root)
ffi = cffi.FFI()
ffi.cdef(Path(header).read_text())
ffi.set_source(name, Path(source).read_text(),
               include_dirs=[str(Path(header).parent)],
               extra_compile_args=cflags.split())
built = ffi.compile(tmpdir=tmp, verbose=False)
os.replace(built, root / Path(built).name)
for leftover in Path(tmp).iterdir():
    leftover.unlink()
os.rmdir(tmp)
"""


def cache_root() -> Path:
    """Directory holding the compiled cores of this user."""
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro-native"


def module_name() -> str:
    """Extension module name: source, flags and Python ABI hash."""
    digest = hashlib.sha256()
    digest.update(_HEADER.read_bytes())
    digest.update(_SOURCE.read_bytes())
    digest.update(" ".join(_CFLAGS).encode())
    digest.update(sys.implementation.cache_tag.encode())
    digest.update(str(sysconfig.get_config_var("EXT_SUFFIX")).encode())
    return "_repro_core_" + digest.hexdigest()[:16]


def _load(path: Path, name: str):
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, str(path), loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module.ffi, module.lib


def _build(name: str, root: Path) -> None:
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, name, str(_HEADER), str(_SOURCE), str(root),
         " ".join(_CFLAGS)],
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        tail = (result.stderr or result.stdout).strip().splitlines()[-5:]
        raise RuntimeError("native core build failed: " + " | ".join(tail))


def load_core() -> Optional[Tuple[object, object]]:
    """``(ffi, lib)`` of the compiled core, building it on first use.

    Returns ``None`` when the core cannot be built or loaded; the reason is
    available from :func:`build_error`.
    """
    global _CORE
    if _CORE is None:
        try:
            name = module_name()
            root = cache_root()
            suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
            path = root / (name + suffix)
            if not path.is_file():
                _build(name, root)
            _CORE = _load(path, name)
        except Exception as exc:  # any failure means "fall back"
            _CORE = f"{type(exc).__name__}: {exc}"
    return None if isinstance(_CORE, str) else _CORE


def build_error() -> Optional[str]:
    """Why the core is unavailable (``None`` if loaded or not tried)."""
    return _CORE if isinstance(_CORE, str) else None
