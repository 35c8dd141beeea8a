"""Run one fixed set of qstrength commands on two source trees and compare every output.

    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each command runs in a new directory that holds only RUN_CFG's run.cfg, with
PYTHONPATH=<root>/src and OPENBLAS_NUM_THREADS=1.  The files it leaves there,
its stdout, its stderr and its exit code must be identical between the two
roots; only `wrote <path>` lines are ignored.  Prints one line per command
and exits 1 on any difference.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path


# every simulate setting but workers, as the --config file the *-config commands read
RUN_CFG = """\
N = 9
m = 4
t = 1
k = 2
xi_sq = 0.5
windows = -1,0,1
grid = -3:3:24
members = 8
seed = 11
window_width = 0.3
moments = yes
"""


def _system(N: int, m: int, t: int, k: int) -> list[str]:
    return ["--N", str(N), "--m", str(m), "--t", str(t), "--k", str(k)]


def commands() -> dict[str, list[str]]:
    """{label: qstrength arguments}, the command set in run order."""
    cmds = {"tables": ["tables"]}
    for system in ((12, 6, 1, 2), (12, 6, 1, 4), (24, 8, 2, 3)):
        for cmd in ("params", "npc"):
            cmds[f"{cmd}-{'-'.join(map(str, system))}"] = [cmd, *_system(*system), "--xi-sq", "0.5"]
    # params reads --windows and npc --grid, each only its own
    for cmd, flag in (("params", "--windows=-1.5,0,1.5"), ("npc", "--grid=-2.5:2.5:21")):
        cmds[f"{cmd}-12-6-1-2-windows-grid"] = [cmd, *_system(12, 6, 1, 2), "--xi-sq", "0.5", flag]
    for cmd in ("params", "npc"):
        cmds[f"{cmd}-config"] = [cmd, "--config", "run.cfg"]
    cmds["qnormal"] = ["qnormal", "--q", "0.5"]
    cmds["qnormal-conditional"] = ["qnormal", "--q", "0.5", "--y", "0.9", "--xi", "0.7"]
    cmds["qnormal-grid"] = ["qnormal", "--q", "0.3", "--grid=-2:2:17"]
    simulate = {}
    for system, extra in (((12, 6, 1, 2), ["--xi-sq", "0.5", "--members", "8"]),
                          ((12, 6, 1, 4), ["--xi-sq", "0.5", "--members", "12", "--moments"]),
                          ((10, 5, 2, 3), ["--xi-sq", "0.5", "--members", "8", "--moments"]),
                          ((8, 4, 1, 2), ["--lambda", "0"]),
                          ((10, 5, 1, 3), ["--xi-sq", "0.5", "--members", "8", "--windows=-1,0,1",
                                           "--window-width", "0.3", "--grid=-3:3:24"]),
                          # enough members that the window gates print PASS lines too
                          ((10, 5, 1, 2), ["--xi-sq", "0.5", "--members", "200"])):
        simulate["-".join(map(str, system))] = [*_system(*system), *extra]
    # the centre window alone: no off-center window to fit a slope to, no |e0| band filled
    simulate["10-5-1-2-centre-window"] = [*_system(10, 5, 1, 2), "--xi-sq", "0.5",
                                          "--members", "8", "--windows=0"]
    simulate["config"] = ["--config", "run.cfg"]
    for name, args in simulate.items():
        for workers in (1, 2, 3):
            cmds[f"simulate-{name}-w{workers}"] = [
                "simulate", *args, "--check", "--workers", str(workers)]
    return cmds


def _without_wrote(text: bytes) -> bytes:
    return b"".join(line for line in text.splitlines(keepends=True)
                    if not line.startswith(b"wrote "))


def run(root: Path, args: list[str], cwd: Path) -> dict[str, bytes]:
    """{output name: bytes} of one command run on root's source in the empty cwd, given run.cfg."""
    (cwd / "run.cfg").write_text(RUN_CFG)
    env = os.environ | {"PYTHONPATH": str(root.resolve() / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "qstrength.cli", *args], cwd=cwd, env=env,
                          capture_output=True)
    outputs = {str(path.relative_to(cwd)): path.read_bytes()
               for path in sorted(cwd.rglob("*")) if path.is_file()}
    return outputs | {"<stdout>": _without_wrote(proc.stdout),
                      "<stderr>": _without_wrote(proc.stderr),
                      "<exit code>": str(proc.returncode).encode()}


def differences(parent: dict[str, bytes], change: dict[str, bytes]) -> list[str]:
    """Names of the outputs that differ or that only one side has."""
    return [name for name in sorted(parent.keys() | change.keys())
            if parent.get(name) != change.get(name)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    roots, cmds = [Path(root) for root in argv], commands()
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for label, args in cmds.items():
            outputs = []
            for side, root in zip(("parent", "change"), roots):
                cwd = Path(tmp) / side / label
                cwd.mkdir(parents=True)
                outputs.append(run(root, args, cwd))
            diff = differences(*outputs)
            differing += bool(diff)
            print(f"{'DIFFERENT' if diff else 'identical'}  {label}"
                  + (f": {', '.join(diff)}" if diff else ""), flush=True)
    print(f"{len(cmds) - differing} of {len(cmds)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
