#!/usr/bin/env python3
"""Run every randomized property suite and print one summary line each."""
import argparse
import time

from funlog.cli import count
from funlog.gen import SUITES


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=count, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    bad = 0
    for name, suite in sorted(SUITES.items()):
        n = max(20, args.n // 10) if name == "closure" else args.n
        t0 = time.time()
        res = suite(n, args.seed)
        status = "ok" if res.failures == 0 else f"FAIL ({res.first_detail})"
        print(f"{name:16s} cases={res.cases:<6d} failures={res.failures:<3d} "
              f"{time.time() - t0:6.2f}s  {status}")
        bad += res.failures
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
