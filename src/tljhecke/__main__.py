"""`python -m tljhecke ...`: the command-line front end, as the `tljhecke` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
