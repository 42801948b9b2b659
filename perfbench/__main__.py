"""``python -m perfbench``: the same command as ``python3 perfbench/run.py``."""

import sys

from perfbench.run import main

sys.exit(main())
