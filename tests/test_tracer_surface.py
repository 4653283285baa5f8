"""The benchmark's span tracer still covers the package's public functions.

``perfbench.tracer`` refuses to install when its TRACED and UNTRACED lists
no longer name exactly the public functions, so a public rename or removal
that forgets those lists would stop every traced benchmark pass.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import patch_list_problems  # noqa: E402


def test_tracer_patch_list_matches_the_public_functions():
    assert patch_list_problems() == []
