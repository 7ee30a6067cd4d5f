"""Dataset assembly and bit-exact binary persistence.

A dataset directory holds manifest.json (config snapshot, split sizes,
master seed) and records.bin. The record file starts with the magic "RISD"
and a version word; each record is u64 payload length, u64 sample seed,
u32 CRC-32 of the payload, then the payload encoded with the shared
named-array codec. Sample i uses seed master_seed + i; loading checks it,
since the seed is outside the CRC.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import mrt_beamformers
from .channel import ChannelSet, synth_channels
from .config import ConfigError, ScenarioConfig, is_int, parse_settings
from .geometry import Deployment, deploy
from .serial import decode_named_arrays, encode_named_arrays, misfits

FORMAT_VERSION = 1
_MAGIC = b"RISD"
_HEADER = struct.Struct("<QQI")


class DatasetError(RuntimeError):
    """Base for unreadable or inconsistent datasets."""


class DatasetVersionError(DatasetError):
    """The file's format version is not the one this library reads."""


class DatasetTruncationError(DatasetError):
    """The record file ends before its declared contents do."""


class DatasetChecksumError(DatasetError):
    """A record's payload does not match its stored CRC."""


@dataclass
class Sample:
    """One drop: its seed, geometry, channels, and fixed matched beams."""

    seed: int
    deployment: Deployment
    channels: ChannelSet
    w: np.ndarray


@dataclass
class DatasetManifest:
    config: ScenarioConfig
    n_train: int
    n_val: int
    master_seed: int
    sample_count: int

    def to_json(self) -> str:
        body = {"config": self.config.to_dict(), "n_train": self.n_train,
                "n_val": self.n_val, "master_seed": self.master_seed,
                "sample_count": self.sample_count,
                "format_version": FORMAT_VERSION}
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "DatasetManifest":
        """Parse a manifest; bytes that are not UTF-8, a count or seed that is
        not an integer, or a version this library does not read are a
        DatasetError."""
        try:
            body = json.loads(text)
            ints = {k: body[k] for k in ("n_train", "n_val", "master_seed", "sample_count")}
            bad = sorted(k for k, v in ints.items() if not is_int(v))
            if bad:
                raise DatasetError(f"manifest fields {', '.join(bad)} must be integers")
            if not (is_int(body["format_version"]) and body["format_version"] == FORMAT_VERSION):
                raise DatasetVersionError(f"manifest is format version {body['format_version']!r}; "
                                          f"this library reads {FORMAT_VERSION}")
            return cls(parse_settings(ScenarioConfig, body["config"], "scenario"), **ints)
        except ConfigError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise DatasetError(f"malformed dataset manifest: {exc}") from exc


def sample_seed(master_seed: int, index: int) -> int:
    """Counter scheme tying every sample to the master seed."""
    return master_seed + index


def make_sample(config: ScenarioConfig, seed: int) -> Sample:
    """Build one drop from one seed.

    The deployment is geometry.deploy(config, seed), which draws users and
    blockages from the first two words of SeedSequence(seed); channel
    shadowing takes the third word, so the sample is a pure function of
    (config, seed).
    """
    dep = deploy(config, seed)
    channel_seed = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)[2]
    ch = synth_channels(config, dep, int(channel_seed))
    w = mrt_beamformers(ch, config.tx_power_watts).w
    return Sample(seed, dep, ch, w)


def _sample_arrays(s: Sample) -> dict:
    return {
        "ue_positions": s.deployment.ue_positions,
        "blockages": s.deployment.blockages,
        "h_direct": s.channels.h_direct,
        "g_ris": s.channels.g_ris,
        "h_rb": s.channels.h_rb,
        "los_flags": s.channels.los_flags.astype(float),
        "clamped": s.channels.clamped.astype(float),
        "bs_ris_clamped": np.array([float(s.channels.bs_ris_clamped)]),
        "w": s.w,
    }


def _record_layout(config: ScenarioConfig) -> dict:
    """(shape, complex) of every array a record of this scenario holds;
    None stands for the blockage count, which varies by drop."""
    K, N, L2 = config.num_ues, config.n_bs_antennas, config.total_elements
    return {"ue_positions": ((K, 3), False), "blockages": ((None, 5), False),
            "h_direct": ((K, N), True), "g_ris": ((K, L2), True), "h_rb": ((L2, N), True),
            "los_flags": ((K, 2), False), "clamped": ((K, 2), False),
            "bs_ris_clamped": ((1,), False), "w": ((K, N), True)}


def _sample_from_arrays(seed: int, arrays: dict) -> Sample:
    dep = Deployment(arrays["ue_positions"], arrays["blockages"])
    ch = ChannelSet(arrays["h_direct"], arrays["g_ris"], arrays["h_rb"],
                    arrays["los_flags"].astype(bool),
                    arrays["clamped"].astype(bool),
                    bool(arrays["bs_ris_clamped"][0]))
    return Sample(seed, dep, ch, arrays["w"])


def generate_dataset(config: ScenarioConfig, n_train: int, n_val: int,
                     master_seed: int, path) -> DatasetManifest:
    """Write manifest.json and records.bin under ``path``; returns the manifest.

    The first n_train records are the training split, the next n_val the
    validation split.
    """
    if n_train < 0 or n_val < 0 or n_train + n_val < 1:
        raise ValueError("need at least one sample")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    total = n_train + n_val
    with open(path / "records.bin", "wb") as f:
        f.write(_MAGIC + struct.pack("<I", FORMAT_VERSION))
        for i in range(total):
            seed = sample_seed(master_seed, i)
            payload = encode_named_arrays(_sample_arrays(make_sample(config, seed)))
            f.write(_HEADER.pack(len(payload), seed, zlib.crc32(payload)))
            f.write(payload)
    manifest = DatasetManifest(config, n_train, n_val, master_seed, total)
    (path / "manifest.json").write_text(manifest.to_json())
    return manifest


def load_dataset(path):
    """Read a dataset directory back; returns (samples, manifest).

    Raises DatasetVersionError / DatasetTruncationError /
    DatasetChecksumError for the three distinct failure modes, and
    DatasetError when a record's seed is not master seed + index, its arrays
    do not fit the manifest's scenario or hold NaN or infinity, or the
    manifest's split sizes do not partition the records.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    records_path = path / "records.bin"
    if not manifest_path.exists() or not records_path.exists():
        raise DatasetError(f"{path} does not contain manifest.json and records.bin")
    manifest = DatasetManifest.from_json(manifest_path.read_bytes())
    layout = _record_layout(manifest.config)

    blob = records_path.read_bytes()
    if blob[:4] != _MAGIC:
        raise DatasetVersionError("records.bin does not start with the dataset magic")
    if len(blob) < 8:
        raise DatasetTruncationError("records.bin ends inside the file header")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise DatasetVersionError(
            f"records.bin is format version {version}; this library reads {FORMAT_VERSION}")

    samples = []
    pos = 8
    while pos < len(blob):
        if pos + _HEADER.size > len(blob):
            raise DatasetTruncationError("record header cut short")
        payload_len, seed, crc = _HEADER.unpack_from(blob, pos)
        pos += _HEADER.size
        payload = blob[pos:pos + payload_len]
        if len(payload) != payload_len:
            raise DatasetTruncationError(
                f"record {len(samples)} declares {payload_len} bytes but the file ends early")
        pos += payload_len
        if zlib.crc32(payload) != crc:
            raise DatasetChecksumError(f"record {len(samples)} failed its CRC check")
        expected = sample_seed(manifest.master_seed, len(samples))
        if seed != expected:
            raise DatasetError(f"record {len(samples)} has seed {seed}, expected {expected}")
        try:
            arrays = decode_named_arrays(payload)
        except ValueError as exc:
            raise DatasetError(f"record {len(samples)}: {exc}") from exc
        bad = misfits(arrays, layout)
        if bad:
            raise DatasetError(f"record {len(samples)}: arrays {bad} are missing, extra, "
                               "misshaped or of the wrong kind for the manifest's scenario")
        samples.append(_sample_from_arrays(int(seed), arrays))

    if len(samples) != manifest.sample_count:
        raise DatasetTruncationError(
            f"manifest promises {manifest.sample_count} records, file holds {len(samples)}")
    n_train, n_val = manifest.n_train, manifest.n_val
    if n_train < 0 or n_val < 0 or n_train + n_val != len(samples):
        raise DatasetError(
            f"manifest split sizes {n_train} + {n_val} do not partition its {len(samples)} records")
    return samples, manifest


def train_val_split(samples, manifest: DatasetManifest):
    """(train, validation) slices per the manifest's split sizes."""
    return samples[:manifest.n_train], samples[manifest.n_train:manifest.n_train + manifest.n_val]
