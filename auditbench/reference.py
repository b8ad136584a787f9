"""Reference figures for the README: the environment, and single-kernel timings.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 auditbench/reference.py

Prints nproc, the Python, numpy and scipy versions, the median time of one
``convolve`` at (image n, kernel k) = (81, 13), (161, 25), (321, 49) and
(641, 97) with a dense radial kernel, and of one ``resample_affine`` at
n = 321 for a lattice map and an off-lattice one. These are reference
figures, not benchmark metrics.
"""

import os
import platform
import statistics
import time

import numpy as np
import scipy

import equiaudit as ea

H = 0.01


def median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main():
    print(f"nproc {os.cpu_count()}")
    print(f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}")
    rng = np.random.default_rng(0)
    for n, k, repeats in ((81, 13, 9), (161, 25, 7), (321, 49, 5), (641, 97, 3)):
        geom = ea.GridGeometry((n - 1) / 2 * H, H)
        f = ea.Grid(geom, rng.standard_normal((n, n)))
        radius = (k - 1) / 2 * H
        lam = ea.random_radial_filter(ea.GridGeometry(radius, H), radius, rng)
        taps = int(np.count_nonzero(lam.grid.values))
        s = median_s(lambda: ea.convolve(f, lam), repeats)
        print(f"convolve n={n} k={k} taps={taps}: {1e3 * s:.1f} ms/call")
    geom = ea.GridGeometry(1.6, H)
    f = ea.Grid(geom, rng.standard_normal((geom.size, geom.size)))
    for spec in ("shear:1", "rot:45"):
        T = ea.parse_transform(spec)
        s = median_s(lambda: ea.resample_affine(f, T), 9)
        print(f"resample_affine n={geom.size} {spec}: {1e3 * s:.1f} ms/call")


if __name__ == "__main__":
    main()
