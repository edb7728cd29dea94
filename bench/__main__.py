"""``python3 -m bench`` — see ``bench/README.md``."""

import sys

from bench.cli import main

if __name__ == "__main__":
    sys.exit(main())
