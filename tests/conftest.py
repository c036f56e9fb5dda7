"""Put perfbench/ on the path, so that tests can check midylab against
the textbook routines of perfbench/numtheory.py, a reference that shares
no code with the package."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "perfbench"))
