"""``python -m spincat``: the command-line interface of spincat.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
