"""``python -m putget``: the command-line law runner of :mod:`putget.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
