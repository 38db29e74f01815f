"""Entry point for ``python -m flowmap``: the same CLI as the ``flowmap`` script."""

import sys

from .cli import main

sys.exit(main())
