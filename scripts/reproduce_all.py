#!/usr/bin/env python3
"""Run every built-in benchmark end to end and collect the artifacts.

Each case is tuned over the default seeds 1..5 (override with --seeds), its
artifact set lands under --out-dir/<case>/, and the two controller
families on the shared oscillatory plant are ranked in comparison.json.
"""

import argparse
import sys

from pathlib import Path

from fritpid.benchlab import CASE_NAMES
from fritpid.cli import main as cli_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", help='seed list or range (default: the tuner\'s 1..5)')
    parser.add_argument("--out-dir", default="runs", help="artifact root (default: runs)")
    args = parser.parse_args(argv)

    seeds = [] if args.seeds is None else ["--seeds", args.seeds]
    for name in CASE_NAMES:
        code = cli_main(["reproduce", name, *seeds, "--out-dir", args.out_dir])
        if code != 0:
            return code
        print()
    comparison = Path(args.out_dir) / "comparison.json"
    if comparison.exists():
        print(f"controller-family comparison written to {comparison}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
