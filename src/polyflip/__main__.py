"""`python -m polyflip ARGS` runs the command line front end, as the
`polyflip` console script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
