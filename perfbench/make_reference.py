"""Write the reference outputs that perfbench/run.py compares against.

Run from the root of a source tree whose output is the accepted reference:

    python3 perfbench/make_reference.py

Each fixed request of run.REFERENCES is run once through unclosed.cli.main and
its stdout is stored under perfbench/reference/.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from run import REFERENCE_DIR, REFERENCES


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import unclosed.cli as cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    for argv, name in REFERENCES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        if rc != 0:
            sys.stderr.write(f"{' '.join(argv)} exited with {rc}\n")
            return 1
        (REFERENCE_DIR / name).write_text(out.getvalue(), encoding="utf-8", newline="")
        print(f"{name}: {len(out.getvalue())} characters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
