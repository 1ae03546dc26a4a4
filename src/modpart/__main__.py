"""`python -m modpart`: the same command line as the `modpart` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
