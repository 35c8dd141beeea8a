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


def test_command_line_table_lists_what_each_subparser_accepts():
    from qstrength import cli

    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Command line\n"):text.index("\n## Tests\n")]
    rows = [line.replace("`", "").split("|")[1:-1]
            for line in section.splitlines() if line.startswith("| `")]
    listed = {name.strip(): (options.split(), keys.split()) for name, options, keys in rows}
    accepted = {}
    for name, parser in cli._parser()[1].items():
        actions = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        # a --config file sets every option but --config and --check
        keys = [a.dest for a in actions if a.dest not in ("config", "check")]
        accepted[name] = ([a.option_strings[0] for a in actions],
                          keys if any(a.dest == "config" for a in actions) else [])
    assert listed == accepted
