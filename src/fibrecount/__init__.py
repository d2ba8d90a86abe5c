"""fibrecount: desk-scale verification of fibre-counting asymptotics for
conic bundles over hypersurfaces.

The library computes, for a pair of even-degree forms (f1, f2), every
ingredient of the leading constant in the count of hypersurface points
whose fibre conic x0^2 + x1^2 = f1(t) x2^2 has a rational point: exact
box/projective counts, the sums-of-two-squares sieve, Birch exponential
sums, the half-dimensional-sieve arc factor, p-adic densities, the real
density, and the assembled constant by two independent routes.
"""

__version__ = "0.1.0"
