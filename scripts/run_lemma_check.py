#!/usr/bin/env python3
"""Slab-measure sharpness table: sublinear bound stays banded, linear
bound blows up as the bump flattens.

Runs `fracshape lemma-check` on its default grid with a tight plane
tolerance and a large slab sample, which keep the ratio columns accurate
to ~1e-3 relative.  Extra flags are passed through to the subcommand and
win over these.
"""

import sys

from fracshape.cli import main

OVERRIDES = ["lemma-check", "--tol", "1e-9", "--n", "400000", "--out", "artifacts"]

if __name__ == "__main__":
    sys.exit(main(OVERRIDES + sys.argv[1:]))
