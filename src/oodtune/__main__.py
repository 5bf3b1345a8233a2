"""`python -m oodtune`: the command line of `evalcli.main`."""

import sys

from .evalcli import main

if __name__ == "__main__":
    sys.exit(main())
