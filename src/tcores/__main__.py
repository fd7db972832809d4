"""`python -m tcores`: the same command line as the `tcores` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
