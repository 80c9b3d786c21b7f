"""``python -m lgb``: the command-line interface of ``lgb.cli``."""

import sys

from lgb.cli import main

sys.exit(main())
