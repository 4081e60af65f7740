"""`python -m varbesov`: the command-line interface of `varbesov.cli`."""

import sys

from .cli import main

sys.exit(main())
