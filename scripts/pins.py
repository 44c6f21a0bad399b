"""Print the behaviour pins of this checkout, one line each.

The first line names the BLAS thread count the runs use and the numpy
and OpenBLAS versions: the bytes a training run writes depend on all
three, so only outputs under the same first line compare.  Every run
sets OPENBLAS_NUM_THREADS=1, whatever the calling environment holds.

Then it trains one model per pin config on the bundled toy corpus
(`attnseg train --epochs 4 --batch-size 4 --seed 3`) and prints a sha256
line per file of each model directory, one for each run's epoch lines, one for
what `attnseg segment` prints with that model on the toy corpus's text
(its lines with their spaces taken out) and the line `attnseg eval`
prints for that output against the toy corpus, then the line `attnseg
gradcheck --seed 1` prints.  Two checkouts that behave the same print
the same lines, so a refactor is checked with

    python3 scripts/pins.py > before.txt     # in the parent checkout
    python3 scripts/pins.py > after.txt      # in the changed checkout
    diff before.txt after.txt

tests/pins.txt holds this output, and
tests/test_tooling.py::test_pins_match_the_committed_pins requires the
script to print it exactly (it skips when the first line differs).  A
planned pin change regenerates that file with

    python3 scripts/pins.py > tests/pins.txt

and CHANGES.md says which lines changed and why.

The runs take a few seconds.  Each runs the CLI of the checkout that
holds this script, in a subprocess, with its model directory in a
temporary directory.
"""

import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
TOY = os.path.join(SRC, "attnseg", "data", "toy.txt")
COMMON = ["--epochs", "4", "--batch-size", "4", "--seed", "3"]
CONFIGS = {
    "default": [],
    "bigrams": ["--bigrams"],
    "span2-layers1-clip": ["--memory-span", "2", "--extra-layers", "1",
                           "--clip-norm", "0.5"],
    "dropout-window5": ["--dropout", "0.3", "--window", "5"],
}
THREADS = "1"


def attnseg(*argv):
    """Stdout of the checkout's CLI run with `argv`; a failed run stops
    the script with its stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC),
               OPENBLAS_NUM_THREADS=THREADS)
    done = subprocess.run([sys.executable, "-m", "attnseg.cli", *argv],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"attnseg {' '.join(argv)} exited {done.returncode}:\n"
                 f"{done.stderr}")
    return done.stdout


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def main():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"OPENBLAS_NUM_THREADS={THREADS}  numpy {np.__version__}  "
          f"OpenBLAS {blas['version']}")
    with tempfile.TemporaryDirectory() as tmp:
        text = os.path.join(tmp, "toy-text.txt")
        with open(TOY, encoding="utf-8") as src, \
                open(text, "w", encoding="utf-8") as dst:
            dst.writelines("".join(line.split()) + "\n" for line in src)
        for name, flags in CONFIGS.items():
            out = os.path.join(tmp, name)
            epochs = attnseg("train", "--train", TOY, "--out", out,
                             *COMMON, *flags)
            for filename in sorted(os.listdir(out)):
                with open(os.path.join(out, filename), "rb") as fh:
                    print(f"{sha256(fh.read())}  {name}/{filename}")
            print(f"{sha256(epochs.encode('utf-8'))}  {name} epoch lines")
            pred = os.path.join(tmp, f"{name}-segmented.txt")
            attnseg("segment", "--model", out, "--input", text, "--output", pred)
            with open(pred, "rb") as fh:
                print(f"{sha256(fh.read())}  {name} segment output")
            scores = attnseg("eval", "--gold", TOY, "--pred", pred)
            print(f"{scores.strip()}  {name} eval")
    print(attnseg("gradcheck", "--seed", "1"), end="")


if __name__ == "__main__":
    main()
