import json

import numpy as np
import pytest

from risalloc import ConfigError, ScenarioConfig, dbm_to_watts, desk_config, full_scale_config


def test_default_values():
    c = ScenarioConfig()
    assert c.bs_position == (0.0, 0.0, 10.0)
    assert c.ris_position == (25.0, 25.0, 10.0)
    assert c.area_side == 100.0
    assert c.n_bs_antennas == 4
    assert c.ris_side == 20
    assert c.num_ues == 3
    assert c.ue_density == 150.0
    assert c.blockage_density == 10.0
    assert c.blockage_mean_length == 15.0
    assert c.blockage_mean_width == 15.0
    assert c.carrier_freq == 28.0
    assert c.bandwidth == 50e6
    assert c.tx_power == 35.0
    assert c.noise_power == -84.0
    assert c.shadow_sigma == 4.0
    assert c.ue_height == 1.5
    assert c.bs_height == 10.0


def test_derived_quantities():
    c = ScenarioConfig()
    assert c.total_elements == 400
    assert c.carrier_freq_hz == 28e9
    assert c.area_km2 == pytest.approx(0.01)
    # dBm -> watts happens once, here
    assert c.tx_power_watts == pytest.approx(10 ** ((35 - 30) / 10))
    assert c.noise_watts == pytest.approx(10 ** ((-84 - 30) / 10))


def test_dbm_to_watts():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(-84.0) == pytest.approx(3.9810717055349695e-12)


def test_profiles():
    d = desk_config()
    assert (d.num_ues, d.n_bs_antennas, d.ris_side) == (3, 4, 8)
    p = full_scale_config()
    assert p.ris_side == 20
    assert p == ScenarioConfig()


def test_json_round_trip():
    c = desk_config()
    c2 = ScenarioConfig.from_json(c.to_json())
    assert c2 == c


def test_from_dict_rejects_unknown_field():
    d = ScenarioConfig().to_dict()
    d["wavelength"] = 1.0
    with pytest.raises(ConfigError, match="wavelength"):
        ScenarioConfig.from_dict(d)


def test_from_dict_rejects_missing_field():
    d = ScenarioConfig().to_dict()
    del d["carrier_freq"]
    with pytest.raises(ConfigError, match="carrier_freq"):
        ScenarioConfig.from_dict(d)


@pytest.mark.parametrize("field,value", [
    ("num_ues", 0),
    ("n_bs_antennas", 0),
    ("ris_side", 0),
    ("area_side", -1.0),
    ("carrier_freq", 0.0),
    ("bandwidth", 0.0),
    ("shadow_sigma", -0.1),
    ("ue_density", -5.0),
    ("blockage_density", -1.0),
])
def test_validate_rejects_bad_values(field, value):
    with pytest.raises(ConfigError):
        ScenarioConfig(**{field: value})


def test_bs_height_must_match_position():
    with pytest.raises(ConfigError, match="bs_height"):
        ScenarioConfig(bs_height=12.0)


def test_to_json_is_stable():
    a = ScenarioConfig().to_json()
    b = ScenarioConfig().to_json()
    assert a == b
    assert json.loads(a)["ris_side"] == 20
