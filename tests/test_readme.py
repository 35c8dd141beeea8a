"""The README's code blocks run as written."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading: str) -> str:
    """The first ```python block after the README heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index(f"\n{heading}\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_quick_start_runs_as_written():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", readme_block("## Library quick start")],
                          env=os.environ | {"PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0.5357142857")
