import numpy as np
import pytest

from hsseg import tooth_saw_cube

from conftest import flat_zones


def test_default_dimensions():
    cube = tooth_saw_cube()
    assert (cube.width, cube.height, cube.bands) == (21, 21, 4)


def test_profile_steps_are_exact():
    profile = tooth_saw_cube().data[0, :, 0]
    diffs = np.diff(profile)
    assert (np.abs(diffs) == 10.0).all()
    # saw shape: direction flips after every ramp of 7 columns
    assert profile[0] == 0.0 and profile.max() == 70.0 and profile.min() == 0.0


def test_rows_identical_and_extra_bands_constant():
    cube = tooth_saw_cube()
    assert (cube.data[:, :, 0] == cube.data[0, :, 0][None, :]).all()
    assert (cube.data[:, :, 1:] == 100.0).all()


def test_calibration_contract():
    # the two zone counts the default profile is calibrated to produce
    cube = tooth_saw_cube()
    assert flat_zones(cube, 9.9).count == 21
    assert flat_zones(cube, 10.0).count == 1


def test_sub_threshold_lambda_gives_column_stripes():
    cube = tooth_saw_cube()
    fz = flat_zones(cube, 5.0)
    assert fz.count == 21
    # each zone is one full-height column
    assert (fz.labels == np.arange(21)[None, :]).all()


def test_generator_is_deterministic():
    a = tooth_saw_cube()
    b = tooth_saw_cube()
    assert np.array_equal(a.data, b.data)


def test_custom_spec():
    cube = tooth_saw_cube(width=12, height=3, bands=2, step=2.5, teeth=4,
                          constant_value=1.0)
    assert (cube.width, cube.height, cube.bands) == (12, 3, 2)
    assert (np.abs(np.diff(cube.data[0, :, 0])) == 2.5).all()
    assert (cube.data[:, :, 1] == 1.0).all()
    # ramps of 3 columns: up, down, up, down
    assert cube.data[0, :, 0].tolist() == [0.0, 2.5, 5.0, 7.5, 5.0, 2.5,
                                           0.0, 2.5, 5.0, 7.5, 5.0, 2.5]


def test_invalid_specs_rejected():
    for kwargs in ({"width": 21, "teeth": 4},  # 21 not a multiple of 4
                   {"width": 0}, {"bands": 0}, {"height": 0}, {"teeth": 0},
                   {"step": -1.0}, {"step": float("nan")}):
        with pytest.raises(ValueError):
            tooth_saw_cube(**kwargs)
