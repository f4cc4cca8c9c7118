"""``python -m poiskit``: the ``poiskit`` command line."""

import sys

from . import cli

sys.exit(cli.main())
