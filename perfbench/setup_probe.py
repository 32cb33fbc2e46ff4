"""Set-up probe: build one study's problem in a fresh interpreter.

Run as ``python3 perfbench/setup_probe.py '<spec json>'``.  It imports the
program, validates the spec and builds the problem, then prints ``ready``;
the parent times the span from process start to that line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.study import StudySpec  # noqa: E402

spec = StudySpec.from_dict(json.loads(sys.argv[1])).validate()
problem = spec.build_problem()
print("ready", flush=True)
problem.engine.close()
problem.close()
