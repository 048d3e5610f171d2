"""masseylab: a computational laboratory for mod-p cohomology of finite
groups — Massey products via defining systems, lifting problems into
unitriangular groups, central obstruction theory, and executable
verification suites."""

import os

# numpy's bundled OpenBLAS keeps an idle worker thread busy-waiting for about
# 0.1 s after numpy is imported and after every BLAS call, which on a short
# CLI job is a large share of its CPU time. 4 is OpenBLAS's minimum timeout:
# idle workers sleep at once, and the second thread still shares large block
# products. A value set in the environment wins; other BLAS libraries ignore
# the variable. This runs before any submodule imports numpy.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"
