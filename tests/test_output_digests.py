import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


def test_output_digests_prints_every_named_digest():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert set(digests) == {
        "desk/ds/manifest.json", "desk/ds/records.bin", "desk/model.ckpt",
        "desk/model.ckpt.history.csv", "desk/comparison.csv", "desk/solve/result.json",
        "full/ds/manifest.json", "full/ds/records.bin", "full/model.ckpt",
        "full/model.ckpt.history.csv"}
    empty = hashlib.sha256(b"").hexdigest()
    assert all(re.fullmatch("[0-9a-f]{64}", d) and d != empty for d in digests.values())
