"""`python -m coverforge`: the command line through `cli.entry`, the
process entry that the installed `coverforge` script runs too."""

from .cli import entry

raise SystemExit(entry())
