"""Generator of the fully symmetric triangle rules in ``vvpflow.quadrature``.

A fully symmetric rule is a union of orbits of the six vertex permutations
of the triangle, written in barycentric coordinates: the centroid, S21
orbits (a, a, 1 - 2a) of three points and S111 orbits (a, b, 1 - a - b) of
six.  For a given layout the orbit weights and coordinates are fitted to
the monomial moments of the reference triangle by
``scipy.optimize.least_squares``, from random starts (Witherden & Vincent,
Comput. Math. Appl. 69, 2015).  A start is accepted when every moment up
to the degree is exact to ``TOL``, every weight is positive and every
point lies inside the triangle.

Start ``k`` of seed ``s`` draws from ``numpy.random.default_rng((s, k))``,
so each start can be run on its own.  ``RECORDED`` holds the seed and the
first accepted start of each degree; from them one least-squares run per
degree reproduces the literals of ``vvpflow.quadrature._SYMMETRIC``.

    PYTHONPATH=src python tests/symmetric_rules.py          # print the literals
    PYTHONPATH=src python tests/symmetric_rules.py --search # search from start 0
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares

from vvpflow.quadrature import _orbits

#: degree: (centroid, number of S21 orbits, number of S111 orbits)
LAYOUTS = {6: (False, 2, 1), 8: (True, 3, 1), 9: (True, 4, 1)}
#: degree: (seed, start)
RECORDED = {6: (0, 1), 8: (0, 13), 9: (0, 6)}
TOL = 1e-14
MAX_STARTS = 500


@lru_cache(maxsize=None)
def moments(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents (a, b) with a + b <= degree and the integrals of
    x^a y^b over the reference triangle, a! b! / (a + b + 2)!."""
    ab = np.array([(a, d - a) for d in range(degree + 1) for a in range(d + 1)])
    exact = np.array([math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2) for a, b in ab])
    return ab, exact


def orbits(layout, params: np.ndarray):
    """``(centroid, s21, s111)`` of ``params``, the centroid weight, then
    (w, a) per S21 and (w, a, b) per S111 orbit: the arguments of
    ``vvpflow.quadrature._orbits``."""
    centroid, n21, n111 = layout
    i = int(centroid)
    s21 = [tuple(params[i + 2 * j : i + 2 * j + 2]) for j in range(n21)]
    i += 2 * n21
    s111 = [tuple(params[i + 3 * j : i + 3 * j + 3]) for j in range(n111)]
    return (params[0] if centroid else None), s21, s111


def moment_errors(params: np.ndarray, layout, degree: int) -> np.ndarray:
    ab, exact = moments(degree)
    points, w = _orbits(*orbits(layout, params))
    return (points[:, 0, None] ** ab[:, 0] * points[:, 1, None] ** ab[:, 1]).T @ w - exact


def start(layout, seed: int, k: int) -> np.ndarray:
    """Start ``k`` of ``seed``: weights summing to about 1/2 over the
    points, S21 coordinates in (0, 1/2), S111 points uniform in the triangle."""
    centroid, n21, n111 = layout
    rng = np.random.default_rng((seed, k))
    npts = int(centroid) + 3 * n21 + 6 * n111
    params = [rng.uniform(0.5, 1.5, 1) / (2 * npts)] if centroid else []
    for _ in range(n21):
        params.append([rng.uniform(0.5, 1.5) / (2 * npts), rng.uniform(0.0, 0.5)])
    for _ in range(n111):
        params.append([rng.uniform(0.5, 1.5) / (2 * npts), *rng.dirichlet(np.ones(3))[:2]])
    return np.concatenate([np.ravel(p) for p in params])


def canonical(layout, params: np.ndarray):
    """The orbits of ``params`` with ``(w, a)`` per S21 orbit by increasing
    a and ``(w, a, b)`` per S111 orbit with a < b < 1 - a - b, by
    increasing a."""
    centroid, s21, s111 = orbits(layout, [float(v) for v in params])
    s111 = [(w, *sorted((a, b, 1 - a - b))[:2]) for w, a, b in s111]
    return centroid, tuple(sorted(s21, key=lambda o: o[1])), tuple(sorted(s111, key=lambda o: o[1]))


def fit(degree: int, seed: int, k: int):
    """One least-squares run from start ``k`` of ``seed``; the canonical
    orbits when the fit is accepted, else None."""
    layout = LAYOUTS[degree]
    sol = least_squares(moment_errors, start(layout, seed, k), args=(layout, degree),
                        method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000)
    points, w = _orbits(*orbits(layout, sol.x))
    lam = np.column_stack([1 - points.sum(axis=1), points])
    if np.abs(moment_errors(sol.x, layout, degree)).max() > TOL or w.min() <= 0 or lam.min() <= 0:
        return None
    # distinct orbits: no two points of the rule coincide
    gaps = np.linalg.norm(lam[:, None, :] - lam[None, :, :], axis=-1) + np.eye(len(w))
    if gaps.min() < 1e-6:
        return None
    return canonical(layout, sol.x)


def search(degree: int, seed: int = 0):
    """The first accepted start of ``seed`` and its orbits."""
    for k in range(MAX_STARTS):
        rule = fit(degree, seed, k)
        if rule is not None:
            return k, rule
    raise RuntimeError(f"no degree-{degree} rule in {MAX_STARTS} starts of seed {seed}")


def main(argv: list[str]) -> int:
    for degree, (seed, k) in RECORDED.items():
        if "--search" in argv:
            k, rule = search(degree, seed)
            print(f"# degree {degree}: seed {seed}, start {k}")
        else:
            rule = fit(degree, seed, k)
        print(f"{degree}: {rule!r},")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
