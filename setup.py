"""Build script for the optional compiled search kernel.

The package is pure Python except for src/mvalloc/_kernels.c, a plain
C99 file with the branch and bound of mvalloc._kernels_py.solve_search
(the brute-force oracle stays Python only).  It is built as a shared
library next to the package, where mvalloc.engine loads it through
ctypes.  When no C compiler is available the build skips it and the
package runs on the Python kernels.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Skip the extension instead of failing the whole install."""

    def run(self):
        try:
            build_ext.run(self)
        except Exception as exc:  # compiler missing or broken
            print("skipping compiled kernel: %s" % exc)

    def build_extension(self, ext):
        try:
            build_ext.build_extension(self, ext)
        except Exception as exc:
            print("skipping %s: %s" % (ext.name, exc))


setup(
    ext_modules=[Extension("mvalloc._kernels", ["src/mvalloc/_kernels.c"])],
    cmdclass={"build_ext": optional_build_ext},
)
