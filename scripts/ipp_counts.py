#!/usr/bin/env python3
"""Replication study of sampled tree counts under several intensity masses.

For each mass, draws N independent patterns and reports the empirical mean,
variance, and index of dispersion (Poisson counts should sit near 1).

Usage: python scripts/ipp_counts.py [--reps N] [--seed S]
"""

import argparse

import numpy as np

from forestgen import ipp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=99)
    args = parser.parse_args()

    region = ipp.Region(0.0, 100.0, 0.0, 100.0)
    print(f"region 100x100, {args.reps} replications per mass")
    print(f"{'mass':>8} {'mean':>10} {'variance':>10} {'dispersion':>10}")
    for mass in (5.0, 20.0, 100.0, 400.0):
        field = ipp.ConstantIntensity(mass / region.area)
        ipp.check_replication_budget(field, region, args.reps)
        seeds = ipp.replication_seeds(args.seed, args.reps)
        counts = np.array([len(p) for p in ipp.sample_replications(field, region, seeds)])
        mean = counts.mean()
        var = counts.var(ddof=1)
        print(f"{mass:8.1f} {mean:10.3f} {var:10.3f} {var / mean:10.4f}")


if __name__ == "__main__":
    main()
