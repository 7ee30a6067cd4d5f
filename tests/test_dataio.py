import json
import struct

import numpy as np
import pytest

from risalloc import (DatasetChecksumError, DatasetError, DatasetManifest,
                      DatasetTruncationError, DatasetVersionError,
                      ScenarioConfig, deploy, desk_config, generate_dataset,
                      load_dataset, make_sample, sample_seed, train_val_split)


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


def test_generate_writes_identical_bytes(tmp_path):
    cfg = small_config()
    generate_dataset(cfg, 2, 1, 5, tmp_path / "a")
    generate_dataset(cfg, 2, 1, 5, tmp_path / "b")
    assert (tmp_path / "a/records.bin").read_bytes() == (tmp_path / "b/records.bin").read_bytes()
    assert (tmp_path / "a/manifest.json").read_text() == (tmp_path / "b/manifest.json").read_text()


def test_generate_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset(small_config(), 0, 0, 0, tmp_path)


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
