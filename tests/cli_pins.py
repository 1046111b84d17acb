"""Every pinned command of the cwlattice CLI: its exit code and its stdout.

An entry of PINS is a command line, its exit code and its expected standard
output.  A command line of several commands joined by "; " runs them in
turn, each must exit with the code, and their outputs are joined.  The
expected output is the sha256 of the output, or else literal text followed
by a golden file under tests/data less its '#' comment lines.  A command
that exits 0 writes nothing to standard error.  Paths are relative to the
repository root.

tests/test_cli.py runs every entry in process through cwlattice.cli.main.
Run as a script, this file runs every entry through the command named on its
command line, one subprocess per command from the repository root, names
each entry that fails and exits 1 if any did:

    python tests/cli_pins.py cwlattice
    PYTHONPATH=src python3 tests/cli_pins.py python3 -m cwlattice

Standard library only; it does not import cwlattice.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Pin(NamedTuple):
    command: str
    code: int = 0
    text: str = ""
    golden: str | None = None
    sha256: str | None = None

    @property
    def argvs(self) -> list[list[str]]:
        return [command.split() for command in self.command.split("; ")]

    def expected(self) -> tuple:
        """The exit codes, the stderr of zero exits and the stdout (or its
        sha256) that observed(runs) must equal."""
        out = self.sha256 or self.text.encode("utf-8")
        if self.golden:
            lines = (ROOT / "tests" / "data" / self.golden).read_bytes().splitlines(True)
            out += b"".join(line for line in lines if not line.startswith(b"#"))
        return (self.code,) * len(self.argvs), b"", out

    def observed(self, runs) -> tuple:
        """The same of runs, one (code, stdout, stderr) in bytes per command."""
        out = b"".join(stdout for _, stdout, _ in runs)
        return (tuple(code for code, _, _ in runs),
                b"".join(stderr for code, _, stderr in runs if code == 0),
                hashlib.sha256(out).hexdigest() if self.sha256 else out)


PINS = [
    Pin("verify --n 3", golden="verify-3.txt"),
    Pin("verify --n 12", golden="verify-12.txt"),
    Pin("verify --n 300",
        sha256="b1dc61d113e97ddf5027a4660ebf2e96578e652115923fed9850527f99b58e60"),
    Pin("bounds --n 12", golden="bounds-12.txt"),
    Pin("bounds --n 1000000007 --format json", golden="bounds-1000000007.json"),
    Pin("census --from 3 --to 40 --family all", golden="census-all-3-40.csv"),
    Pin("census --from 3 --to 8 --family all --format json", golden="census-all-3-8.json"),
    Pin("census --from 5 --to 300 --family all",
        sha256="706055bd5b3b6430972e7a6835c1c2a47096a4d4abdc1b3bba3203de61144002"),
    Pin("census --from 5 --to 300 --family all --format json",
        sha256="27040441086f70ffae07cbdde9a5bc77623b834129fcf51b0d84c3aa2f68aa99"),
    Pin("census --from 5 --to 300 --family ra",
        sha256="930c596c9addef0404329bfd6714a1c51fcdf6c2bd2769cf43822a2dc73b2fb0"),
    Pin("census --from 5 --to 300 --family cwdd",
        sha256="b95732e7af156185922fb2addfa211bf309c6b4dc4802e1df47d53c4b4d0281a"),
    Pin("census --from 5 --to 300 --family bounds",
        sha256="5abbc6f76bd6bbd74dc88e39c850ea8964ec594d7cd517da59bc9fc710c74aab"),
    Pin("enumerate --n 300 --set ra",
        sha256="080847948e7e998f7aea2dd6d9ab0b27269d5297f2d968f1a4a06255280cbf05"),
    Pin("enumerate --n 299 --set ra",
        sha256="ca843d8cd7bddee7ec864a577b20628c2bc254c7ff0dd0a0d8ac4318ce245d1e"),
    Pin("; ".join(f"enumerate --n {n} --set {name}"
                  for name in ("c-plus", "c-minus", "beta", "cwdd-c") for n in (299, 300)),
        sha256="e4b8fc1742b99037f13562dd0ffcae43cc65851c608386b2d099b2249893a21e"),
    Pin("enumerate --n 300 --set cwdd --format json",
        sha256="38592dc2dff0078bf4d1f8276b38f969e972c96cf7606826f3f6efc2093a885b"),
    Pin("enumerate --n 300 --set ra --format json",
        sha256="5a48dd88eda389d63dd703f14e68229dd416a62a09e02b173be2d549793aa883"),
    Pin("recognize --input tests/data/chorded-hexagon.edges", text="not CW: m=3 im=2 (m≠im)\n"),
    *(Pin(f"recognize --input tests/data/{name}.edges --format json", golden=f"{name}.json")
      for name in ("chorded-hexagon", "cycle-31", "cw-skeleton", "triangles-22", "triangles-23")),
    Pin("ideal --input tests/data/chorded-hexagon.edges --format json",
        golden="chorded-hexagon-ideal.json"),
    Pin("ideal --input tests/data/chorded-hexagon.edges", golden="chorded-hexagon-ideal.txt"),
    Pin("realize --n 22 --depth 8 --dim 8 --emit-graph", text="m=2 p=6 s=1,1 t=1,1,1,1,1,1\n",
        golden="triangles-22.edges"),
    Pin("realize --n 23 --depth 8 --dim 8 --emit-graph", text="m=1 p=7 s=1 t=1,1,1,1,1,1,1\n",
        golden="triangles-23.edges"),
    Pin("realize --n 23 --depth 8 --dim 8 --emit-graph --format json",
        sha256="1ab706670e97a26d19d84da9b71af5ddca02d21f836ab00efc0be8f6e0fd99d7"),
    Pin("realize --n 40 --depth 2 --dim 38 --emit-graph", text="m=2 p=1 s=19,18 t=0\n",
        golden="leaves-40.edges"),
    Pin("--version", text="cwlattice 0.1.0\n"),
    Pin("", code=2),
    Pin("bogus", code=2),
    Pin("recognize --input /dev/zero", code=2),
    Pin("census --from 5 --to 301", code=2),
    Pin("census --from 5 --to 301 --force", code=2),
    Pin("realize --n 12 --depth 3 --dim 5", code=3),
    Pin("recognize --input tests/data/leaves-40.edges", code=4),
]


def main(command: list[str], pins: list[Pin] = PINS) -> int:
    """Run pins through command; print each failing entry and a tally."""
    if not command:
        print("usage: python tests/cli_pins.py COMMAND [ARG ...]", file=sys.stderr)
        return 2
    failed = 0
    for pin in pins:
        runs = [subprocess.run(command + argv, cwd=ROOT, capture_output=True) for argv in pin.argvs]
        if pin.observed([(r.returncode, r.stdout, r.stderr) for r in runs]) != pin.expected():
            failed += 1
            print(f"FAIL: {pin.command!r}")
    print(f"{len(pins) - failed} of {len(pins)} pinned commands pass")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
