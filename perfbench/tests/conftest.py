import sys
from pathlib import Path

# the benchmark's modules import one another by plain name
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
