#!/usr/bin/env python3
"""Class overlap in orbit space: forwards its arguments to ``gbsgraphs overlap``."""

import sys

from gbsgraphs.cli import cli

if __name__ == "__main__":
    cli(["overlap", *sys.argv[1:]], prog_name="gbsgraphs")
