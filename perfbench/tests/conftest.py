import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# the benchmark's modules are top-level modules of its own directory, and
# the program is imported from the source tree, as the harness does
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
