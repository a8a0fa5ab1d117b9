"""`python -m thetasep ...`: the `thetasep` command from a checkout, with `src` on the path."""

import sys

from .cli import main

sys.exit(main())
