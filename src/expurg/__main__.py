"""``python -m expurg ...`` runs the ``expurg`` command-line front end."""

import sys

from .cli import main

sys.exit(main())
