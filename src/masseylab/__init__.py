"""masseylab: a computational laboratory for mod-p cohomology of finite
groups — Massey products via defining systems, lifting problems into
unitriangular groups, central obstruction theory, and executable
verification suites."""

__version__ = "0.1.0"
