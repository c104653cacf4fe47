"""``python -m wittmod``: the command line without an installed script."""
import sys

from wittmod.cli import main

if __name__ == "__main__":
    sys.exit(main())
