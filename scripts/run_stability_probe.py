#!/usr/bin/env python3
"""Stretched-ball stability probe on the default grid of
`fracshape stability-probe`, with artifacts under `artifacts/`.

Extra flags are passed through to the subcommand and win over its
defaults.
"""

import sys

from fracshape.cli import main

if __name__ == "__main__":
    sys.exit(main(["stability-probe", "--out", "artifacts"] + sys.argv[1:]))
