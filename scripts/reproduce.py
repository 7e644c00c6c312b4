#!/usr/bin/env python3
"""Run every recorded verification case and print the full reports.

Equivalent to `sullivan paper-verify` but kept as a script so the whole
evidence trail can be regenerated with one command and eyeballed.  Exits
nonzero if any check fails.
"""

import sys
import time

from sullivan.verify import render_reports, run_all


def main() -> int:
    start = time.perf_counter()
    reports = run_all()
    elapsed = time.perf_counter() - start
    print(render_reports(reports, f" in {elapsed:.2f}s"))
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
