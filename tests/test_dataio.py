import dataclasses
import io
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import oracles
from risalloc import dataio
from risalloc import (DatasetChecksumError, DatasetError, DatasetManifest,
                      DatasetTruncationError, DatasetVersionError,
                      ScenarioConfig, deploy, desk_config, full_scale_config, generate_dataset,
                      load_dataset, make_sample, sample_seed, train_val_split)
from risalloc.dataio import CHUNK_DROPS
from risalloc.serial import read_named_arrays, write_named_arrays


def small_config():
    return desk_config()


def test_sample_seed_counter():
    assert sample_seed(1000, 0) == 1000
    assert sample_seed(1000, 7) == 1007


def test_make_sample_deterministic():
    cfg = small_config()
    a = make_sample(cfg, 42)
    b = make_sample(cfg, 42)
    assert np.array_equal(a.deployment.ue_positions, b.deployment.ue_positions)
    assert np.array_equal(a.channels.h_direct, b.channels.h_direct)
    assert np.array_equal(a.channels.g_ris, b.channels.g_ris)
    assert np.array_equal(a.w, b.w)
    c = make_sample(cfg, 43)
    assert not np.array_equal(a.channels.h_direct, c.channels.h_direct)


@pytest.mark.parametrize("seed", [0, 3, 11, 2**40 + 7])
def test_sample_deployment_is_deploy(seed):
    cfg = small_config()
    dep, ref = make_sample(cfg, seed).deployment, deploy(cfg, seed)
    assert np.array_equal(dep.ue_positions, ref.ue_positions)
    assert np.array_equal(dep.blockages, ref.blockages)


def test_round_trip_bit_exact(tmp_path):
    cfg = small_config()
    manifest = generate_dataset(cfg, n_train=3, n_val=2, master_seed=11,
                                path=tmp_path)
    samples, loaded_manifest = load_dataset(tmp_path)
    assert len(samples) == 5
    assert loaded_manifest.n_train == 3 and loaded_manifest.n_val == 2
    assert loaded_manifest.master_seed == 11
    assert loaded_manifest.config == cfg
    assert manifest.to_json() == loaded_manifest.to_json()
    for i, s in enumerate(samples):
        assert s.seed == 11 + i
        ref = make_sample(cfg, 11 + i)
        assert np.array_equal(s.deployment.ue_positions, ref.deployment.ue_positions)
        assert np.array_equal(s.deployment.blockages, ref.deployment.blockages)
        assert np.array_equal(s.channels.h_direct, ref.channels.h_direct)
        assert np.array_equal(s.channels.g_ris, ref.channels.g_ris)
        assert np.array_equal(s.channels.h_rb, ref.channels.h_rb)
        assert np.array_equal(s.channels.los_flags, ref.channels.los_flags)
        assert np.array_equal(s.channels.clamped, ref.channels.clamped)
        assert s.channels.bs_ris_clamped == ref.channels.bs_ris_clamped
        assert np.array_equal(s.w, ref.w)


def test_load_holds_one_record_beyond_its_samples(tmp_path):
    # 40 full-profile drops make a 1.83 MB records.bin; reading it whole, as
    # well as the samples, would double the peak
    generate_dataset(full_scale_config(), 35, 5, 3, tmp_path)
    tracemalloc.start()
    try:
        samples, _ = load_dataset(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for s in samples for a in _drop_fields(s).values())
    assert peak <= held + 256 * 1024, f"load peaked at {peak} bytes for {held} held"


def _drop_fields(s):
    ch = s.channels
    return {"ue_positions": s.deployment.ue_positions, "blockages": s.deployment.blockages,
            "h_direct": ch.h_direct, "g_ris": ch.g_ris, "h_rb": ch.h_rb,
            "los_flags": ch.los_flags, "clamped": ch.clamped,
            "bs_ris_clamped": np.array(ch.bs_ris_clamped), "w": np.asarray(s.w)}


def _assert_same_drop(got, want):
    assert got.seed == want.seed
    for (name, a), b in zip(_drop_fields(got).items(), _drop_fields(want).values(), strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (got.seed, name)


# name: (config, drop count); every count leaves a part-filled last chunk
SYNTHESIS_SCENARIOS = {
    "desk": (desk_config(), 2 * CHUNK_DROPS + 22),
    "full": (full_scale_config(), CHUNK_DROPS + 6),
    "dense-blockage": (dataclasses.replace(desk_config(), blockage_density=2000.0), 150),
    "small-area": (dataclasses.replace(desk_config(), area_side=12.0), 150),
    "one-user": (dataclasses.replace(desk_config(), num_ues=1), CHUNK_DROPS + 1),
}


@pytest.mark.parametrize("name", SYNTHESIS_SCENARIOS)
def test_chunked_synthesis_matches_the_serial_reference(tmp_path, name):
    """Every field of every generated drop, and make_sample for its seed,
    has the bits of the link-by-link reference."""
    cfg, n = SYNTHESIS_SCENARIOS[name]
    assert n % CHUNK_DROPS
    generate_dataset(cfg, n - 10, 10, 17, tmp_path)
    samples, _ = load_dataset(tmp_path)
    assert [s.seed for s in samples] == list(range(17, 17 + n))
    for s in samples:
        want = oracles.make_sample_serial(cfg, s.seed)
        _assert_same_drop(s, want)
        _assert_same_drop(make_sample(cfg, s.seed), want)
    legs = np.concatenate([s.channels.los_flags for s in samples])
    clamped = np.concatenate([s.channels.clamped for s in samples])
    # each scenario exercises what it is named for
    if name == "dense-blockage":
        assert (~legs).mean() > 0.5
    if name == "small-area":
        assert clamped.sum() > 100
    if name == "one-user":
        assert legs.shape == (n, 2)


def test_generate_writes_identical_bytes(tmp_path):
    cfg = small_config()
    generate_dataset(cfg, 2, 1, 5, tmp_path / "a")
    generate_dataset(cfg, 2, 1, 5, tmp_path / "b")
    assert (tmp_path / "a/records.bin").read_bytes() == (tmp_path / "b/records.bin").read_bytes()
    assert (tmp_path / "a/manifest.json").read_text() == (tmp_path / "b/manifest.json").read_text()


def test_generate_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset(small_config(), 0, 0, 0, tmp_path)


@pytest.mark.parametrize("seed", [2**64 - 1, -1, 1.5])
def test_generate_checks_its_seed_before_writing(tmp_path, seed):
    # record i stores master seed + i as a u64; with 1 + 1 records the top is 2^64 - 2
    with pytest.raises(ValueError, match="master seed"):
        generate_dataset(desk_config(), 1, 1, seed, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_generate_takes_the_largest_seed_whose_records_fit(tmp_path):
    generate_dataset(small_config(), 1, 1, 2**64 - 2, tmp_path)
    samples, manifest = load_dataset(tmp_path)
    assert [s.seed for s in samples] == [2**64 - 2, 2**64 - 1]


@pytest.mark.parametrize("earlier", [False, True], ids=["empty-out", "dataset-in-out"])
def test_generate_that_fails_leaves_no_partial_dataset(tmp_path, monkeypatch, earlier):
    out = tmp_path / "ds"
    if earlier:
        generate_dataset(small_config(), 2, 1, 5, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()} if earlier else {}
    make, chunks = dataio._make_samples, []

    def second_chunk_fails(config, seeds):
        chunks.append(seeds)
        if len(chunks) == 2:
            raise MemoryError("synthesis refused")
        return make(config, seeds)

    monkeypatch.setattr(dataio, "_make_samples", second_chunk_fails)
    with pytest.raises(MemoryError):
        generate_dataset(small_config(), CHUNK_DROPS, 1, 0, out)
    assert len(chunks) == 2
    # no records.bin, manifest.json or temporary file, and an earlier dataset byte for byte
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_split(tmp_path):
    generate_dataset(small_config(), 3, 2, 0, tmp_path)
    samples, manifest = load_dataset(tmp_path)
    tr, va = train_val_split(samples, manifest)
    assert [s.seed for s in tr] == [0, 1, 2]
    assert [s.seed for s in va] == [3, 4]


@pytest.fixture
def dataset_dir(tmp_path):
    generate_dataset(small_config(), 2, 1, 9, tmp_path)
    return tmp_path


def test_missing_files(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "nope")
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)   # records.bin absent


def test_bad_magic(dataset_dir):
    rec = dataset_dir / "records.bin"
    blob = bytearray(rec.read_bytes())
    blob[:4] = b"JUNK"
    rec.write_bytes(bytes(blob))
    with pytest.raises(DatasetVersionError):
        load_dataset(dataset_dir)


def test_version_bump(dataset_dir):
    rec = dataset_dir / "records.bin"
    blob = bytearray(rec.read_bytes())
    blob[4:8] = (77).to_bytes(4, "little")
    rec.write_bytes(bytes(blob))
    with pytest.raises(DatasetVersionError, match="77"):
        load_dataset(dataset_dir)


@pytest.mark.parametrize("cut", [3, 40])
def test_truncation(dataset_dir, cut):
    rec = dataset_dir / "records.bin"
    rec.write_bytes(rec.read_bytes()[:-cut])
    with pytest.raises(DatasetTruncationError):
        load_dataset(dataset_dir)


def test_record_count_mismatch(dataset_dir):
    manifest_path = dataset_dir / "manifest.json"
    text = manifest_path.read_text().replace('"sample_count": 3', '"sample_count": 4')
    manifest_path.write_text(text)
    with pytest.raises(DatasetTruncationError, match="promises 4"):
        load_dataset(dataset_dir)


@pytest.mark.parametrize("sizes", [{"n_train": 5000}, {"n_train": 4, "n_val": -1},
                                   {"n_train": -1, "n_val": 4}])
def test_split_sizes_must_partition_records(dataset_dir, sizes):
    manifest_path = dataset_dir / "manifest.json"
    body = json.loads(manifest_path.read_text())
    body.update(sizes)
    manifest_path.write_text(json.dumps(body))
    with pytest.raises(DatasetError, match="split sizes"):
        load_dataset(dataset_dir)


def test_checksum_flip(dataset_dir):
    rec = dataset_dir / "records.bin"
    blob = bytearray(rec.read_bytes())
    blob[-1] ^= 0xFF   # inside the last record's payload
    rec.write_bytes(bytes(blob))
    with pytest.raises(DatasetChecksumError):
        load_dataset(dataset_dir)


@pytest.mark.parametrize("record", [0, 1, 2])
def test_record_seed_must_be_master_seed_plus_index(dataset_dir, record):
    # the seed sits in the record header, outside the payload's CRC
    rec = dataset_dir / "records.bin"
    blob = bytearray(rec.read_bytes())
    pos = 8
    for _ in range(record):
        pos += 20 + struct.unpack_from("<Q", blob, pos)[0]
    blob[pos + 9] ^= 0x01   # second byte of the record's seed
    rec.write_bytes(bytes(blob))
    with pytest.raises(DatasetError, match=f"record {record} has seed"):
        load_dataset(dataset_dir)


def test_manifest_round_trip():
    m = DatasetManifest(small_config(), 4, 2, 123, 6)
    again = DatasetManifest.from_json(m.to_json())
    assert again == m


def test_manifest_malformed():
    with pytest.raises(DatasetError):
        DatasetManifest.from_json('{"n_train": 1}')
    with pytest.raises(DatasetError):
        DatasetManifest.from_json(b'{"n_train": \xff}')   # not UTF-8
    m = DatasetManifest(small_config(), 1, 1, 0, 2)
    broken = m.to_json().replace('"n_val": 1', '"n_val": "many"')
    with pytest.raises(DatasetError):
        DatasetManifest.from_json(broken)
    for field, old, new in [("n_train", 1, '"6"'), ("master_seed", 0, 0.4),
                            ("sample_count", 2, "true")]:
        broken = m.to_json().replace(f'"{field}": {old}', f'"{field}": {new}')
        with pytest.raises(DatasetError, match=field):
            DatasetManifest.from_json(broken)
    with pytest.raises(DatasetVersionError):
        DatasetManifest.from_json(m.to_json().replace('"format_version": 1', '"format_version": 2'))


# u32 count, u16 name length, the name "a", then the kind byte at offset 7
@pytest.mark.parametrize("corrupt,needle", [
    (lambda blob: blob[:-1], "mid-record"),
    (lambda blob: blob[:7] + b"\x02" + blob[8:], "unknown array kind 2"),
    (lambda blob: blob + b"\x00", "trailing bytes"),
], ids=["cut", "kind", "trailing"])
def test_codec_rejects_malformed_blocks(corrupt, needle):
    f = io.BytesIO()
    write_named_arrays(f, {"a": np.arange(3.0)})
    blob = f.getvalue()
    arrays, _, error = read_named_arrays(io.BytesIO(blob), len(blob))
    assert error is None and arrays["a"].tolist() == [0.0, 1.0, 2.0]
    bad = corrupt(blob)
    _, _, error = read_named_arrays(io.BytesIO(bad), len(bad))
    assert isinstance(error, ValueError) and needle in str(error)


def test_codec_streams_into_caller_arrays_with_a_running_crc():
    arrays = {"a": np.arange(6.0).reshape(2, 3), "z": np.array([1 + 2j, -3j]), "s": np.float64(4.0)}
    f = io.BytesIO()
    crc, size = write_named_arrays(f, arrays)
    blob = f.getvalue()
    assert (crc, size) == (zlib.crc32(blob), len(blob))
    assert blob.endswith(struct.pack("<d", 4.0))  # little-endian on any host
    into = np.zeros((2, 3))
    got, got_crc, error = read_named_arrays(io.BytesIO(blob), size,
                                            lambda name, shape, dtype: into if name == "a" else None)
    assert error is None and got_crc == crc and got["a"] is into
    assert all(np.array_equal(got[name], value) for name, value in arrays.items())
    # a malformed block is still read to its end, so its CRC can be checked first
    bad = blob[:7] + b"\x02" + blob[8:]
    _, bad_crc, error = read_named_arrays(io.BytesIO(bad), len(bad))
    assert bad_crc == zlib.crc32(bad) and "unknown array kind 2" in str(error)
