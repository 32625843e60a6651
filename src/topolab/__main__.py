"""`python -m topolab ...` runs the command line interface."""

import sys

from .cli_io import main

if __name__ == "__main__":
    sys.exit(main())
