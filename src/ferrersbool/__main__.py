"""Entry point for ``python -m ferrersbool``; the same CLI as ``ferrersbool``."""

import sys

from .cli import main

sys.exit(main())
