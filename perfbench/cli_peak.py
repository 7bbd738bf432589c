"""Run ``opttree`` as its command line does and record the process's
peak resident memory.

    python3 perfbench/cli_peak.py <peak-file> fit --data ... --out ...

Writes VmHWM (peak resident set, in kB) from /proc/self/status to
<peak-file> and exits with the command's exit code.  VmHWM belongs to
this process's own address space.  ``ru_maxrss`` would not do: exec folds
the parent's peak into it, so a child of a large benchmark process would
report the parent's memory.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opttree.cli import main  # noqa: E402


def peak_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    code = main(sys.argv[2:])
    Path(sys.argv[1]).write_text(f"{peak_kb()}\n", encoding="ascii")
    sys.exit(code)
