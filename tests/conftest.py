import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# pyproject's pythonpath reaches this process only; the CLI and demo tests
# start child interpreters that import prefrobust from src as well
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
