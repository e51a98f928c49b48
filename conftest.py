"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(useful on offline machines where ``pip install -e .`` cannot fetch build
dependencies; ``python setup.py develop`` is the offline fallback).

Tests never touch the user's zoo cache: ``REPRO_DA_CACHE`` points at a
temporary directory for the session (trained models, dataset splits, the
native kernels and cell stores all live under it) before anything imports
``repro``, which reads it at import time.
"""

import atexit
import os
import shutil
import sys
import tempfile

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_CACHE = tempfile.mkdtemp(prefix="repro-da-tests-")
os.environ["REPRO_DA_CACHE"] = _CACHE
atexit.register(shutil.rmtree, _CACHE, ignore_errors=True)
