"""The command lines of ``cli_manifest.json`` and how each one runs.

Every line runs through ``cli.main`` in a directory of its own that holds
only ``series.csv``, the table of ``reproduce fig1``, for ``barometer``
to read.  The manifest maps each line to its exit code and to the sha256
of its stdout, its stderr and each file it writes, by name.  It also
records the numpy major.minor it was made with, since SIMD ``np.log``
and the normal streams may differ between numpy releases.  Usage errors
are left out: argparse's usage block depends on the terminal width and
the Python version.

Regenerate the manifest with ``PYTHONPATH=src python tests/cli_manifest.py``; it
prints each command line added, removed or changed against the file it replaces.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np

from blowuplab import cli

MANIFEST = Path(__file__).with_suffix(".json")
SERIES = "series.csv"

# the flags of one run per model row: solve's, then simulate's
_SOLVE = {
    "exponential": "--k 0.05 --I 2 --t-max 10",
    "hyperbolic": "--k 0.01 --I 1 --t-max 50",
    "powerlaw": "--k 0.01 --I 1 --n 3 --t-max 20",
    "loglaw": "--k 0.5 --c 0.1 --t-max 5",
    "coupled-gdp": "--k1 0.05 --t-max 10",
}
_SIMULATE = {
    "exponential": "--k 0.05 --t-max 10",
    "hyperbolic": "--k 0.01 --t-max 150",
    "powerlaw": "--k 0.01 --n 3 --t-max 100",
    "loglaw": "--k 0.5 --A0 2 --t-max 5",
    "coupled-gdp": "--k1 0.05 --k2 0.1 --A0 1 --Y0 0.5 --t-max 30",
}
_ENSEMBLE = {
    "hyperbolic-sde": "--k 0.05 --sigma 0.05",
    "gbm": "--k 0.05 --I 1 --sigma 0.1",
}
# exponential rows without --I, which they read as 1
UNSET_I = [
    "solve --model exponential --k 0.05 --t-max 10",
    "solve --model exponential --R 1.5 --t-max 10",
    "simulate --model exponential --R 1.5 --t-max 1",
]
# one domain error (exit 3) per command, a solve level past double range and
# a growth coefficient ln(R)/I that underflows to 0
_ERRORS = [
    "solve --model hyperbolic --k 0.01 --I 1 --t-max 150",
    "solve --model powerlaw --k 1 --I 1 --n 1.01 --t-max 99.99",
    "solve --model exponential --R 1.0000000000000002 --I 1e308 --t-max 1",
    "simulate --dsl 'dA = A' --A0 -1 --t-max 1",
    "ensemble --model gbm --k 0.05 --I 1 --sigma -0.1 --paths 50 --periods 20",
    "classify --dsl A^2 --A0 -1",
    "compose --R 0.5 --I 100 --dsl k*A^2 --param k=0.01",
    f"barometer --csv {SERIES} --window 2",
    "reproduce fig3 --seed -1",
]


def numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def corpus() -> list[str]:
    """The command lines, without the leading ``blowuplab``."""
    lines = [f"reproduce {target} --seed 42 --format {fmt}"
             for target in ("headline", "fig1", "fig2", "fig3") for fmt in ("csv", "json")]
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["blowuplab"]:
            lines.append(shlex.join(argv[1:]))
    lines += [f"solve --model {model} {_SOLVE[model]}" for model in cli._MODELS]
    lines += [f"simulate --model {model} {_SIMULATE[model]} --points 9" for model in cli._MODELS]
    lines += [f"ensemble --model {model} {_ENSEMBLE[model]} --paths 50 --periods 20"
              for model in cli._SDE_MODELS]
    return lines + UNSET_I + _ERRORS


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(argv: list[str], directory: Path) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_line(line: str, directory: Path) -> dict:
    """The record of ``line`` run in ``directory``: its exit code and digests."""
    code, out, err = _call(shlex.split(line), directory)
    return {
        "exit": code, "stdout": _sha(out), "stderr": _sha(err),
        "files": {path.name: _sha(path.read_bytes()) for path in sorted(directory.iterdir())
                  if path.name != SERIES},
    }


def run_corpus(workdir: Path) -> dict[str, dict]:
    """Run every line in a fresh directory under ``workdir``; its record by line."""
    source = workdir / "series"
    source.mkdir()
    _call(["reproduce", "fig1"], source)
    series = (source / "fig1_exponential_phase.csv").read_bytes()
    records = {}
    for index, line in enumerate(corpus()):
        directory = workdir / f"line{index}"
        directory.mkdir()
        (directory / SERIES).write_bytes(series)
        records[line] = run_line(line, directory)
    return records


if __name__ == "__main__":
    # the warnings the test suite turns into errors are errors here too
    warnings.simplefilter("error", DeprecationWarning)
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as tmp:
        lines = run_corpus(Path(tmp))
    before = json.loads(MANIFEST.read_text())["lines"] if MANIFEST.exists() else {}
    # what a change to the manifest has to name
    for line in dict.fromkeys([*before, *lines]):
        if line not in before:
            print(f"added: {line}")
        elif line not in lines:
            print(f"removed: {line}")
        elif before[line] != lines[line]:
            print(f"changed: {line}")
    MANIFEST.write_text(json.dumps({"numpy": numpy_version(), "lines": lines}, indent=2) + "\n")
