#!/usr/bin/env python3
"""The whole experiment: forwards its arguments to ``gbsgraphs pipeline``."""

import sys

from gbsgraphs.cli import cli

if __name__ == "__main__":
    cli(["pipeline", *sys.argv[1:]], prog_name="gbsgraphs")
