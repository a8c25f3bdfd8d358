#!/usr/bin/env python3
"""Find the smallest bound at which the accepted set stabilizes.

A bound B is stable when the accepted set at B equals the accepted set at
2B.  The script scans upward from --start and reports the first stable
bound together with the accepted count there.

Example:
    python scripts/find_stable_bound.py --dim 4 --start 8 --limit 128
"""

from __future__ import annotations

import argparse

from wblinks.classify import check_jobs, classify, default_jobs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4, choices=(3, 4))
    parser.add_argument("--start", type=int, default=2)
    parser.add_argument("--limit", type=int, default=128)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker count (default: WBLINKS_JOBS, else 1)")
    args = parser.parse_args()
    try:
        args.jobs = default_jobs() if args.jobs is None else check_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))

    for bound in range(args.start, args.limit + 1):
        accepted = classify(args.dim, bound, jobs=args.jobs).accepted
        doubled = classify(args.dim, 2 * bound, jobs=args.jobs).accepted
        print(f"bound={bound}: {len(accepted)} accepted "
              f"({len(doubled)} at bound {2 * bound})")
        if accepted == doubled:
            print(f"stable bound: {bound} (count {len(accepted)})")
            return
    print(f"no stable bound found up to {args.limit}")


if __name__ == "__main__":
    main()
