import sys
from pathlib import Path

# The benchmark measures the quadtune in this checkout's src/.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
