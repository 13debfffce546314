#!/usr/bin/env python3
"""Bump-family critical-plane scaling scan (exponent 1 - 1/alpha) on the
default grid of `fracshape counterexample-scan`, with artifacts under
`artifacts/`.

Extra flags are passed through to the subcommand and win over its
defaults.
"""

import sys

from fracshape.cli import main

if __name__ == "__main__":
    sys.exit(main(["counterexample-scan", "--out", "artifacts"] + sys.argv[1:]))
