import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the benchmark's modules and the program's source tree
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
