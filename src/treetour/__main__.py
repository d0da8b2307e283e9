"""``python -m treetour``: the same command line as the ``treetour`` script."""

import sys

from .cli import main

sys.exit(main())
