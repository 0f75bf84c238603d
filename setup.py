"""Build script for the optional compiled search kernel.

The package is pure Python except for src/mvalloc/_kernels.c, a plain
C99 file with the branch and bound of mvalloc._kernels_py.solve_search
(the brute-force oracle stays Python only).  It is built as a shared
library next to the package, where mvalloc.engine loads it through
ctypes.  The extension is optional: when no C compiler is available the
build warns, skips it, and the package runs on the Python kernels.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("mvalloc._kernels", ["src/mvalloc/_kernels.c"], optional=True)])
