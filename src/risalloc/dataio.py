"""Dataset assembly and bit-exact binary persistence.

A dataset directory holds manifest.json (config snapshot, split sizes,
master seed) and records.bin. The record file starts with the magic "RISD"
and a version word; each record is u64 payload length, u64 sample seed,
u32 CRC-32 of the payload, then the payload as one block of the shared
named-array codec. Sample i uses seed master_seed + i; loading checks it,
since the seed is outside the CRC.

Records take the codec's one streaming route, as checkpoints do: each block
is written straight into the record file, its header filled in from the CRC
and length the write returns, and read back one record at a time, so its CRC
is computed once on write and once on read, and a load holds one record
beyond the samples it returns. Both files are written beside their names
and renamed into place once the dataset is complete, as checkpoints are.

Generation synthesizes drops in chunks of ``CHUNK_DROPS``: each drop keeps
its own seed and generators, and the chunk's channels and matched beams come
from one stacked pass (``channel._synth_stack``), so the records hold the
same bytes as drops built one at a time, and memory stays flat however many
drops are written. ``make_sample`` is the same core on a chunk of one drop.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import mrt_beamformers
from .channel import ChannelSet, _synth_stack, _unstack
from .config import ConfigError, ScenarioConfig, is_int, parse_settings
from .geometry import Deployment, _deploy
from .serial import misfits, read_named_arrays, replacing, write_named_arrays

FORMAT_VERSION = 1
CHUNK_DROPS = 32  # drops synthesized per stacked pass; bounds generation's memory
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
    return _make_samples(config, [seed])[0]


def _make_samples(config: ScenarioConfig, seeds) -> list:
    """make_sample for each seed, bit for bit, with the channels and beams
    of all the drops from one stacked pass."""
    words = [np.random.SeedSequence(s).generate_state(3, dtype=np.uint64).tolist() for s in seeds]
    deps = [_deploy(config, ue_seed, blk_seed) for ue_seed, blk_seed, _ in words]
    stack = _synth_stack(config, deps, [channel_seed for *_, channel_seed in words])
    ws = mrt_beamformers(stack, config.tx_power_watts).w
    return [Sample(seed, dep, ch, w)
            for seed, dep, ch, w in zip(seeds, deps, _unstack(stack), ws)]


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
    validation split. Record i stores its seed, master_seed + i, in 64
    bits, so master_seed must be an integer in [0, 2^64 - (n_train +
    n_val)]; both checks raise ValueError before anything is created.

    Both files are written whole to new files beside them (serial.replacing)
    and renamed into place only once the dataset is complete, so a run that
    fails leaves no part of a dataset behind, and a dataset already at
    ``path`` as it was.
    """
    if n_train < 0 or n_val < 0 or n_train + n_val < 1:
        raise ValueError("need at least one sample")
    total = n_train + n_val
    top = 2**64 - total
    if not (is_int(master_seed) and 0 <= master_seed <= top):
        raise ValueError(f"master seed {master_seed!r} is not an integer in [0, {top}], "
                         "so a record's seed would not fit in 64 bits")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = DatasetManifest(config, n_train, n_val, master_seed, total)
    # records.bin is renamed into place first, then manifest.json
    with replacing(path / "manifest.json") as m, replacing(path / "records.bin") as f:
        f.write(_MAGIC + struct.pack("<I", FORMAT_VERSION))
        for start in range(0, total, CHUNK_DROPS):
            seeds = [sample_seed(master_seed, i) for i in range(start, min(start + CHUNK_DROPS, total))]
            for sample in _make_samples(config, seeds):
                header = f.tell()
                f.write(bytes(_HEADER.size))
                crc, size = write_named_arrays(f, _sample_arrays(sample))
                f.seek(header)
                f.write(_HEADER.pack(size, sample.seed, crc))
                f.seek(0, os.SEEK_END)
        m.write(manifest.to_json().encode("utf-8"))
    return manifest


def load_dataset(path):
    """Read a dataset directory back; returns (samples, manifest).

    Records are streamed, so the load holds one record beyond its samples;
    each one's length is checked against the file before its arrays are
    read, and its CRC before any verdict on its values.

    Raises DatasetVersionError / DatasetTruncationError /
    DatasetChecksumError for the three distinct failure modes, and
    DatasetError when either file cannot be read, a record's seed is not
    master seed + index, its arrays do not fit the manifest's scenario or
    hold NaN or infinity, or the manifest's split sizes do not partition the
    records.
    """
    path = Path(path)
    try:
        manifest_bytes = (path / "manifest.json").read_bytes()
        f = open(path / "records.bin", "rb")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    with f:
        manifest = DatasetManifest.from_json(manifest_bytes)
        layout = _record_layout(manifest.config)
        file_size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if head[:4] != _MAGIC:
            raise DatasetVersionError("records.bin does not start with the dataset magic")
        if len(head) < 8:
            raise DatasetTruncationError("records.bin ends inside the file header")
        (version,) = struct.unpack("<I", head[4:])
        if version != FORMAT_VERSION:
            raise DatasetVersionError(
                f"records.bin is format version {version}; this library reads {FORMAT_VERSION}")

        samples = []
        while (left := file_size - f.tell()) > 0:
            if left < _HEADER.size:
                raise DatasetTruncationError("record header cut short")
            payload_len, seed, crc = _HEADER.unpack(f.read(_HEADER.size))
            if payload_len > left - _HEADER.size:
                raise DatasetTruncationError(
                    f"record {len(samples)} declares {payload_len} bytes but the file ends early")
            arrays, payload_crc, error = read_named_arrays(f, payload_len)
            if payload_crc != crc:
                raise DatasetChecksumError(f"record {len(samples)} failed its CRC check")
            expected = sample_seed(manifest.master_seed, len(samples))
            if seed != expected:
                raise DatasetError(f"record {len(samples)} has seed {seed}, expected {expected}")
            if error is not None:
                raise DatasetError(f"record {len(samples)}: {error}") from error
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
