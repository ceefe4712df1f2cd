"""``python -m unipdec``: the command-line front end of `unipdec.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
