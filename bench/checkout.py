"""Point imports at the dshp sources of the checkout this benchmark sits in.

The benchmark measures the code beside it, never an installed copy, so a
directory without `src/dshp` is an error rather than a fallback.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def use_checkout_dshp() -> None:
    """Put the checkout's `src` first on sys.path, or exit if it is missing."""
    package = SRC / "dshp" / "__init__.py"
    if not package.is_file():
        sys.exit(f"bench: {package} not found; run from the root of a dshp checkout")
    sys.path.insert(0, str(SRC))
