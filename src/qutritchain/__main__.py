"""``python -m qutritchain``: the experiment CLI, as the ``qutritchain`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
