"""Let subprocess tests (`python -m angk0`) import the package from this
checkout's src/, as pytest's `pythonpath` setting does for the test process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
