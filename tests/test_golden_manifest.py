"""Byte-for-byte replay of the committed golden manifest,
`tests/golden_manifest.json`: each entry is one literal command line, how
`cli.main` ended on it (a return or a SystemExit), its code and the
SHA-256 of its stdout, its stderr and every file it wrote.

A line runs in process with the working directory in a fresh temporary
directory and COLUMNS fixed, so help and usage texts wrap alike
everywhere. "{tmp}" in an argv stands for that directory and "{config}"
for the shipped calibration; both are put back in the bytes before they
are hashed. Entries marked `repr` print floats with more than six
decimals, which hold only where trig is the libm the manifest was
written with (`conftest.trig_is_math`), as in `TestGoldenBytes`. Entries
that end in SystemExit print argparse's help and usage texts, whose
wording belongs to the Python version; they replay on the version the
manifest names.

`tests/make_golden_manifest.py` writes the manifest. A change that moves
output bytes on purpose regenerates it and names the entries it changed.
"""

import hashlib
import io
import json
import os
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tendonfinger import cli
from tendonfinger.config import default_config_path

from conftest import trig_is_math

MANIFEST = Path(__file__).with_name("golden_manifest.json")
COLUMNS = "80"
# More than six decimals: a repr float, not a %.6f table cell.
REPR_FLOAT = re.compile(rb"[0-9]\.[0-9]{7,}")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv, tmp: Path) -> dict:
    """The manifest entry of `argv` ("{tmp}" and "{config}" placeholders
    included), run by `cli.main` in the empty directory `tmp`, which it
    leaves empty."""
    names = {"{tmp}": str(tmp), "{config}": str(default_config_path())}

    def fill(text):
        for name, value in names.items():
            text = text.replace(name, value)
        return text

    def mask(data: bytes) -> bytes:
        for name, value in names.items():
            data = data.replace(value.encode("utf-8"), name.encode("utf-8"))
        return data

    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(tmp)
    os.environ["COLUMNS"] = COLUMNS
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                ended, code = "return", cli.main([fill(a) for a in argv])
            except SystemExit as exc:
                ended, code = "exit", exc.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    stdout = mask(out.getvalue().encode("utf-8"))
    stderr = mask(err.getvalue().encode("utf-8"))
    files = {}
    for path in sorted(tmp.iterdir()):
        if path.is_dir():
            shutil.rmtree(path)
            continue
        files[path.name] = mask(path.read_bytes())
        path.unlink()
    return {
        "argv": list(argv), "ended": ended, "code": code,
        "stdout": _digest(stdout), "stderr": _digest(stderr),
        "files": {name: _digest(data) for name, data in files.items()},
        "repr": any(REPR_FLOAT.search(data)
                    for data in (stdout, stderr, *files.values())),
    }


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_replays(tmp_path):
    manifest = load_manifest()
    exact = trig_is_math(np.random.default_rng(0).uniform(-2.5, 2.5, 20000))
    same_python = manifest["python"] == python_version()
    replayed = [entry for entry in manifest["entries"]
                if (exact or not entry["repr"])
                and (same_python or entry["ended"] != "exit")]
    changed = [entry["argv"] for entry in replayed
               if record(entry["argv"], tmp_path) != entry]
    assert not changed, f"{len(changed)} of {len(replayed)} lines changed, first {changed[:5]}"


def test_manifest_covers_the_outcomes():
    entries = load_manifest()["entries"]
    assert len(entries) > 1200
    endings = {(entry["ended"], entry["code"]) for entry in entries}
    # Help, usage errors, successes, refusals and a failed solve all occur.
    assert {("exit", 0), ("exit", 1), ("return", 0), ("return", 1),
            ("return", 2), ("return", 3)} <= endings
    # Solves at the fingertip and at a point, with signed zero q.
    solves = [entry["argv"] for entry in entries if entry["argv"][:1] == ["solve"]]
    assert any(not any(a.startswith("--at") for a in argv) for argv in solves)
    assert any(any(a.startswith("--at=") for a in argv) for argv in solves)
    assert {"0", "-0", "mm:-0.0"} <= {argv[1] for argv in solves if len(argv) > 1}
