#!/usr/bin/env python3
"""End-to-end verification for the translation map: build the three-member
scrambled family, replay the block proof bounds for r = 2..8, chart the
agreement densities, and write stats.csv + verify.json into --out."""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from gshift.cli import main as cli_main

CONFIG = {
    "map": {"rule": "successor"},
    "family_size": 3,
    "lengths": {"variant": "plain", "count": 8},
    "windows": [[1], [1, 2]],
    "schedule": {"kind": "block_boundaries", "r_max": 8},
    "eps_low": "1/4",
    "eps_high": "1/4",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="gshift-out")
    args = parser.parse_args()
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(CONFIG, fh)
        config_path = fh.name
    try:
        code = cli_main(["--config", config_path, "--out", args.out, "verify"])
    finally:
        os.unlink(config_path)
    print(f"artifacts in {Path(args.out).resolve()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
