"""Exact-arithmetic supergeometry of complex projective superspaces P^(n|m).

The package re-exports nothing: import each name from its home module
(``superproj.cohomology``, ``superproj.cech``, ...), so that a caller loads
only the modules it uses.
"""

__version__ = "0.1.0"
