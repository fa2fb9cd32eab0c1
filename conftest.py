"""Keep test runs from writing bytecode into the source tree.

Loaded before any test module imports ``mfsar``.  The environment variable
reaches the subprocesses that the benchmark tests start, so no run leaves a
``__pycache__`` under ``src/`` that a later timing would read.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
