"""Selection between the compiled and the pure-Python search kernels.

The compiled kernel is `_kernels.c`, built as a shared library next to
this package and loaded through ctypes; it works on int64 and is picked
by "auto" when the library is there.  A library that was built from
another `_kernels.c` (its `kernel_version()` is missing or differs from
`_KERNEL_VERSION`) is not loaded, with a warning, so a stale build never
answers for the current source; nor is a file that ctypes cannot load.
Neither case raises at import.  The Python kernel runs when no library
is loaded or the caller asks for backend "python".  The compiled kernel
takes an instance only if every value fits int64 and the costs sum below
INT64_MAX; its wrapper checks both and raises OverflowError otherwise.
Both expose the same `solve_search` and return identical results.  The
brute-force oracle is not a backend: `solver.brute_force` always runs
`_kernels_py.brute_search`.
`_build` compiles `_kernels.c` into a temporary directory and loads it,
for the test suite and the benchmark record, which run from a source tree.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from typing import Callable

from . import _kernels_py

__all__ = ["Backend", "available_backends", "get_backend"]

# the compiled kernel's starting limit, and its deadline when there is none
_INT64_MAX = 2**63 - 1

# what _kernels.c's kernel_version() returns; bump both whenever the
# kernel's arguments or results change
_KERNEL_VERSION = 4

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Backend:
    name: str
    solve_search: Callable


_PYTHON = Backend(name="python", solve_search=_kernels_py.solve_search)
_C: Backend | None = None


def _load(path: str) -> None:
    """Register the kernel of the shared library at `path` as backend "c",
    unless the library cannot be loaded or was built from another
    _kernels.c."""
    global _C
    import ctypes
    from array import array
    from itertools import accumulate, chain

    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        log.warning("not loading %s: %s; until it loads, the Python kernel runs", path, exc)
        return
    version = getattr(lib, "kernel_version", None)
    if version is not None:
        version.argtypes = []
        version.restype = ctypes.c_int64
        version = version()
    if version != _KERNEL_VERSION:
        log.warning(
            "not loading %s: built from another _kernels.c (kernel version %s, not %d);"
            " rebuild it, until then the Python kernel runs",
            path, version, _KERNEL_VERSION,
        )
        return
    i64, address = ctypes.c_int64, ctypes.c_void_p
    lib.solve_search.argtypes = [i64, i64, i64] + [address] * 18
    lib.solve_search.restype = None

    def solve_search(nv, off, vmem, vcpu, vgpu, vcost, cap_mem, cap_cpu, cap_gpu,
                     decl, suffix_min, need_mem, need_cpu, need_gpu, deadline_ns=None):
        columns = (nv, off, vmem, vcpu, vgpu, vcost, cap_mem, cap_cpu, cap_gpu,
                   decl, suffix_min, need_mem, need_cpu, need_gpu)
        # the kernel indexes by these lengths and offsets unchecked
        n, total, k = len(nv), len(vmem), len(cap_mem)
        if (
            len(off) != n
            or any(len(col) != total for col in (vmem, vcpu, vgpu, vcost, decl))
            or any(len(cap) != k for cap in columns[6:9])
            or any(len(bound) != n + 1 for bound in columns[10:])
            or any(a < 0 or count < 0 or a + count > total for a, count in zip(off, nv))
        ):
            raise ValueError("kernel arrays have inconsistent lengths")
        # the sum bounds every cost so far plus `rest` the walk forms;
        # array() refuses any value outside int64
        if sum(vcost) >= _INT64_MAX:
            raise OverflowError("the costs sum past the compiled kernel's int64 limit")
        deadline = _INT64_MAX if deadline_ns is None else min(deadline_ns, _INT64_MAX)
        # one int64 buffer holds the columns and then zeroed scratch: a
        # dominance flag per variant, the current path, the incumbent's
        # (variant, node) pairs and out = {status, cost or -1, visited};
        # the kernel gets an address into it for each
        scratch = [total, 2 * n, 2 * n, 3]
        data = array("q", chain.from_iterable(columns))
        data.frombytes(bytes(8 * sum(scratch)))
        base = data.buffer_info()[0]
        sizes = [len(col) for col in columns] + scratch[:-1]
        addresses = (base + 8 * at for at in accumulate(sizes, initial=0))
        lib.solve_search(n, k, deadline, *addresses)
        status, cost, visited = data[-3:]
        if cost < 0:  # no incumbent
            return status, None, [], visited
        best = data[-3 - 2 * n : -3]
        return status, cost, list(zip(best[0::2], best[1::2])), visited

    _C = Backend(name="c", solve_search=solve_search)


def _build() -> None:
    """Build this package's _kernels.c into a temp dir and register it as
    backend "c", unless a library is already loaded or cc is missing."""
    import shutil
    import subprocess
    import tempfile

    if _C is not None or shutil.which("cc") is None:
        return
    source = os.path.join(os.path.dirname(__file__), "_kernels.c")
    with tempfile.TemporaryDirectory() as build:
        library = os.path.join(build, "_kernels.so")
        cc = ["cc", "-O2", "-std=c99", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC"]
        subprocess.run([*cc, "-o", library, source], check=True)
        _load(library)  # loaded, so the file may go


_LIBRARY = os.path.join(os.path.dirname(__file__), "_kernels" + EXTENSION_SUFFIXES[0])
if os.path.exists(_LIBRARY):
    _load(_LIBRARY)


def available_backends() -> list[str]:
    return ["c", "python"] if _C is not None else ["python"]


def get_backend(name: str = "auto") -> Backend:
    """Resolve a backend name; "auto" prefers the compiled kernel."""
    if name == "auto":
        return _C if _C is not None else _PYTHON
    if name == "python":
        return _PYTHON
    if name == "c":
        if _C is None:
            raise ValueError("compiled kernels are not available in this install")
        return _C
    raise ValueError(f"unknown backend {name!r} (use auto, c or python)")
