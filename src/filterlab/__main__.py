"""``python -m filterlab``: the ``filterlab`` command."""

import sys

from .cli import main

sys.exit(main())
