"""sha256 of every reproducible output of the documented byte checks, as JSON.

In a temporary directory, with one BLAS thread, run the CLI of the checkout
this script sits in:

    risalloc generate --profile desk --n-train 200 --n-val 50 --seed 0 --out desk/ds
    risalloc train    --data desk/ds --max-epochs 20 --out desk/model.ckpt
    risalloc compare  --data desk/ds --scheme uniform --scheme bcd --scheme nn+pca \\
                      --model desk/model.ckpt --out desk/comparison.csv
    risalloc bcd      --data desk/ds --index 3 --out desk/solve
    risalloc generate --profile full --n-train 20 --n-val 5 --seed 0 --out full/ds
    risalloc train    --data full/ds --max-epochs 2 --out full/model.ckpt

then print one JSON object mapping each output file, by its path in that
directory, to its sha256. The wall-clock sidecar ``*.timing.csv`` and the
solver's ``trace.csv``, whose ``seconds`` column is wall clock, are left
out, since timings are not reproducible. Two checkouts whose outputs are
byte-identical print the same object:

    python3 tools/output_digests.py

Only the standard library is used; risalloc is imported from ``src/`` of
this checkout.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WALL_CLOCK = ("*.timing.csv", "trace.csv")  # outputs that hold timings
COMMANDS = [
    ["generate", "--profile", "desk", "--n-train", "200", "--n-val", "50", "--seed", "0",
     "--out", "desk/ds"],
    ["train", "--data", "desk/ds", "--max-epochs", "20", "--out", "desk/model.ckpt"],
    ["compare", "--data", "desk/ds", "--scheme", "uniform", "--scheme", "bcd",
     "--scheme", "nn+pca", "--model", "desk/model.ckpt", "--out", "desk/comparison.csv"],
    ["bcd", "--data", "desk/ds", "--index", "3", "--out", "desk/solve"],
    ["generate", "--profile", "full", "--n-train", "20", "--n-val", "5", "--seed", "0",
     "--out", "full/ds"],
    ["train", "--data", "full/ds", "--max-epochs", "2", "--out", "full/model.ckpt"],
]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def main() -> int:
    env = child_env()
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("desk", "full"):
            os.mkdir(os.path.join(tmp, sub))
        for args in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "risalloc", *args], cwd=tmp, env=env,
                                  capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"output_digests: risalloc {' '.join(args)} exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
        digests = {path.relative_to(tmp).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(Path(tmp).rglob("*"))
                   if path.is_file() and not any(path.match(p) for p in WALL_CLOCK)}
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
