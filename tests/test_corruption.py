"""Corruption sweep over a tiny dataset and a tiny checkpoint.

Every truncation must raise the loader's typed error, and every one-byte
flip must end the CLI with exit 2 (config) or 3 (data), never a traceback.
Only the manifest and the checkpoint's metadata JSON lie outside the CRCs,
so a flip there may also leave a valid file behind (exit 0).
"""

import json
import struct

import numpy as np
import pytest

from risalloc import (CheckpointError, DatasetError, ScenarioConfig,
                      generate_dataset, load_checkpoint, load_dataset)
from risalloc.cli import main

FLIPS_PER_FILE = 200


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    scenario = ScenarioConfig(n_bs_antennas=2, ris_side=2, num_ues=2)
    data = root / "ds"
    generate_dataset(scenario, 2, 1, 5, data)
    config = root / "config.json"
    config.write_text(json.dumps({"scenario": scenario.to_dict(), "training": {
        "hidden": [4, 4], "max_epochs": 1, "batch_size": 2}}))
    ckpt = root / "model.ckpt"
    assert main(["train", "--data", str(data), "--config", str(config), "--out", str(ckpt)]) == 0
    # small enough to truncate at every offset in a couple of seconds
    assert (data / "records.bin").stat().st_size == 2315 and ckpt.stat().st_size == 2888
    return root, data, ckpt


def _compare(root, data, ckpt):
    return main(["compare", "--data", str(data), "--scheme", "nn+pca", "--model", str(ckpt),
                 "--out", str(root / "c.csv")])


@pytest.mark.parametrize("target", ["records.bin", "model.ckpt"])
def test_every_truncation_raises_the_typed_error(files, tmp_path, target):
    _, data, ckpt = files
    if target == "records.bin":
        (tmp_path / "manifest.json").write_bytes((data / "manifest.json").read_bytes())
        blob, error, load = (data / target).read_bytes(), DatasetError, lambda: load_dataset(tmp_path)
    else:
        blob, error, load = ckpt.read_bytes(), CheckpointError, lambda: load_checkpoint(tmp_path / target)
    for n in range(len(blob)):
        (tmp_path / target).write_bytes(blob[:n])
        with pytest.raises(error):
            load()


def _framing(target, blob):
    """(offsets of the headers around the CRC'd payloads, offsets where a
    flip may leave a valid file)."""
    if target == "manifest.json":
        return [], range(len(blob))
    if target == "model.ckpt":
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        return [*range(12), *range(12 + meta_len, 24 + meta_len)], range(12, 12 + meta_len)
    headers, pos = list(range(8)), 8
    while pos < len(blob):
        headers += range(pos, pos + 20)
        pos += 20 + struct.unpack_from("<Q", blob, pos)[0]
    return headers, range(0)


@pytest.mark.parametrize("target", ["records.bin", "manifest.json", "model.ckpt"])
def test_one_byte_flips_end_in_config_or_data_errors(files, capsys, target):
    # sampled offsets plus every header byte, since headers sit outside the CRCs
    root, data, ckpt = files
    path = ckpt if target == "model.ckpt" else data / target
    clean = path.read_bytes()
    headers, unchecked = _framing(target, clean)
    rng = np.random.default_rng(20)
    sampled = rng.choice(len(clean), size=min(FLIPS_PER_FILE, len(clean)), replace=False)
    offsets = sorted(set(sampled.tolist()) | set(headers))
    try:
        for offset, mask in zip(offsets, rng.integers(1, 256, size=len(offsets)).tolist()):
            blob = bytearray(clean)
            blob[offset] ^= mask
            path.write_bytes(bytes(blob))
            rc = _compare(root, data, ckpt)
            allowed = (0, 2, 3) if offset in unchecked else (2, 3)
            assert rc in allowed, f"{target} byte {offset} ^ {mask:#04x} gave exit {rc}"
    finally:
        path.write_bytes(clean)
    capsys.readouterr()
    assert _compare(root, data, ckpt) == 0
