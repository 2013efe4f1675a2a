"""Fit the sandwich constant for the cubic blowup polynomial.

Scans powers of two and reports the smallest C1 >= 1 for which

    6 (xi2 - c*) xi1^2 + xi1^3 / C1  <=  p(xi0, xi1, xi2)
                                     <=  6 xi1^2 xi2 + C1 (1 + xi2 + xi1^3)

holds on a large randomized sweep of the cone {xi1 >= 0, xi2 >= c_star(d)}
for d in {5, 6, 7}, mixing bulk draws with near-edge and far-field points.
The winner is frozen as regions.GROWTH_C1; tests re-validate it.
"""

import math

import numpy as np

from biwind import core, regions


def sweep_points(d, rng, n):
    cs = core.c_star(d)
    xi0 = rng.uniform(-2 * math.pi, 2 * math.pi, size=n)
    # Mix scales: most mass near the cone edge, tails far out.
    xi1 = np.concatenate(
        [
            rng.uniform(0.0, 3.0, size=n // 2),
            rng.uniform(0.0, 50.0, size=n // 4),
            rng.uniform(0.0, 1e3, size=n - n // 2 - n // 4),
        ]
    )
    xi2 = cs + np.concatenate(
        [
            rng.uniform(0.0, 3.0, size=n // 2),
            rng.uniform(0.0, 50.0, size=n // 4),
            rng.uniform(0.0, 1e3, size=n - n // 2 - n // 4),
        ]
    )
    rng.shuffle(xi1)
    rng.shuffle(xi2)
    return xi0, xi1, xi2, cs


def violations(d, c1, xi0, xi1, xi2, cs):
    p = regions.p_value(d, xi0, xi1, xi2)
    lower = 6.0 * (xi2 - cs) * xi1 ** 2 + xi1 ** 3 / c1
    upper = 6.0 * xi1 ** 2 * xi2 + c1 * (1.0 + xi2 + xi1 ** 3)
    return int(np.sum(lower > p)) + int(np.sum(p > upper))


def main():
    rng = np.random.default_rng(2026)
    data = {d: sweep_points(d, rng, 400_000) for d in (5, 6, 7)}
    c1 = 1.0
    while c1 <= 2 ** 20:
        bad = sum(violations(d, c1, *data[d]) for d in (5, 6, 7))
        print(f"C1 = {c1:>8.0f}: {bad} violations")
        if bad == 0:
            print(f"smallest admissible power of two: {c1}")
            return
        c1 *= 2.0
    raise SystemExit("no power of two up to 2^20 worked")


if __name__ == "__main__":
    main()
