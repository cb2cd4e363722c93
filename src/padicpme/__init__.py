"""Exact p-adic calculus, the Vladimirov fractional operator, its heat
semigroup and resolvent, and an implicit solver for the fractional
porous-medium equation, on Q_p and on finite balls.

Each name is imported from its module; the package root holds none:
errors (the exception types), padic (points, balls, grids, Gamma_p),
functions (test functions, radial
profiles, grid CSVs), fractional (D^alpha), heat (its semigroup and
resolvent), pme (the porous-medium solver and the explicit solution),
verification (the named check suites) and cli (the command line)."""
