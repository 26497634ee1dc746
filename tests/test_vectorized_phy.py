"""Element-wise pins of the vectorized kernels to the scalar closed forms.

Every assertion here is exact ``==``, never approx: the vectorized backend's
equivalence contract is *bit*-exactness, and these properties are the
per-kernel decomposition of that promise.  Hypothesis drives the input
spaces, with the contract's named edge cases (zero-length frames, FER
saturating at exactly 1.0, explicit ``fer=0.0`` links that still consume a
uniform) pinned both by strategy bounds and by dedicated examples.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.mac.dcf import dcf_transition_tables
from repro.phy.error import BitErrorModel, frame_error_rate
from repro.phy.params import airtime_formula, dot11a, dot11b
from repro.sim.backend import numpy_available
from repro.sim.rng import NumpyBlockUniform

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

bers = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
)
sizes = st.one_of(st.just(0), st.integers(min_value=0, max_value=4096))


# ------------------------------------------------------------- FER kernel --


@given(ber=bers, size=sizes)
@example(ber=0.0, size=0)
@example(ber=1.0, size=0)
@example(ber=0.5, size=4096)  # saturates to exactly 1.0 in float64
def test_fer_array_matches_scalar_elementwise(ber, size):
    from repro.phy.vectorized import fer_array

    scalar = frame_error_rate(ber, size)
    vector = fer_array([ber], [size])
    assert vector.shape == (1,)
    assert float(vector[0]) == scalar
    if ber == 0.5 and size == 4096:
        assert scalar == 1.0  # the saturation edge really is exact 1.0


@given(
    pairs=st.lists(st.tuples(bers, sizes), min_size=0, max_size=32),
)
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_fer_array_batches_match_scalar(pairs):
    import numpy as np

    from repro.phy.vectorized import fer_array

    ber_values = [b for b, _s in pairs]
    size_values = [s for _b, s in pairs]
    vector = fer_array(ber_values, size_values)
    assert vector.shape == (len(pairs),)
    assert vector.dtype == np.float64
    for i, (ber, size) in enumerate(pairs):
        assert float(vector[i]) == frame_error_rate(ber, size)


def test_fer_array_broadcasts_and_validates():
    import numpy as np

    from repro.phy.vectorized import fer_array

    grid = fer_array(np.array([[1e-4], [2e-4]]), np.array([14, 1500]))
    assert grid.shape == (2, 2)
    for i, ber in enumerate((1e-4, 2e-4)):
        for j, size in enumerate((14, 1500)):
            assert float(grid[i, j]) == frame_error_rate(ber, size)
    with pytest.raises(ValueError, match="BER must be in"):
        fer_array([1.5], [100])
    with pytest.raises(ValueError, match="frame size"):
        fer_array([1e-4], [-1])


# --------------------------------------------------------- airtime kernel --


@given(
    size=sizes,
    rate=st.sampled_from([1.0, 2.0, 5.5, 6.0, 11.0, 24.0, 54.0]),
    phy_kind=st.sampled_from(["dsss", "ofdm"]),
)
@example(size=0, rate=11.0, phy_kind="dsss")
@example(size=0, rate=6.0, phy_kind="ofdm")
def test_airtime_array_matches_formula_elementwise(size, rate, phy_kind):
    from repro.phy.vectorized import airtime_array

    ofdm = phy_kind == "ofdm"
    bits_per_symbol = 24 if ofdm else 0
    preamble = 20.0 if ofdm else 192.0
    scalar = airtime_formula(size, rate, preamble, ofdm, bits_per_symbol)
    vector = airtime_array([size], rate, preamble, ofdm, bits_per_symbol)
    assert float(vector[0]) == scalar


@given(size=sizes, explicit_rate=st.booleans())
def test_phy_airtime_array_matches_phy_airtime(size, explicit_rate):
    from repro.phy.vectorized import phy_airtime_array

    for phy in (dot11b(), dot11a()):
        rate = phy.data_rate if explicit_rate else None
        scalar = phy.airtime(size, rate)
        vector = phy_airtime_array(phy, [size], rate)
        assert float(vector[0]) == scalar


# -------------------------------------------- corruption plan <-> roll -----


link_configs = st.sampled_from(
    [
        ("none", None),
        ("default_ber", 1e-4),
        ("link_ber", 0.0),
        ("link_ber", 2e-4),
        ("link_ber", 1.0),
        ("data_fer", 0.0),  # explicit 0.0 must still consume one uniform
        ("data_fer", 0.5),
        ("rate_profile", {2.0: 1e-5, 11.0: 5e-3}),
    ]
)


@given(
    config=link_configs,
    size=sizes,
    is_data=st.booleans(),
    rate=st.sampled_from([None, 2.0, 11.0]),
    roll_seed=st.integers(min_value=0, max_value=2**16),
)
def test_corruption_plan_is_the_roll_is_corrupted_makes(
    config, size, is_data, rate, roll_seed
):
    """plan + one conditional draw == is_corrupted, including draw *count*.

    The vectorized medium replays the scalar RNG stream, so a plan that
    consumed a uniform where the scalar path did not (or vice versa) would
    desynchronize every subsequent corruption roll in the run.  The final
    assertion — both generators produce the same next value — pins the
    consumed-draw count, not just the verdict.
    """
    kind, value = config
    model = BitErrorModel()
    if kind == "default_ber":
        model = BitErrorModel(default_ber=value)
    elif kind == "link_ber":
        model.set_ber("S", "R", value)
    elif kind == "data_fer":
        model.set_data_fer("S", "R", value)
    elif kind == "rate_profile":
        model.set_rate_profile("S", "R", value)

    scalar_rng = random.Random(roll_seed)
    plan_rng = random.Random(roll_seed)
    scalar_verdict = model.is_corrupted("S", "R", size, is_data, scalar_rng, rate)
    plan = model.corruption_plan("S", "R", size, is_data, rate)
    plan_verdict = False if plan is None else plan_rng.random() < plan
    assert plan_verdict == scalar_verdict
    assert scalar_rng.random() == plan_rng.random(), "draw counts diverged"


def test_corruption_plan_cache_epoch_bumps_on_every_mutation():
    model = BitErrorModel()
    epochs = [model._epoch]
    model.set_ber("S", "R", 1e-4)
    epochs.append(model._epoch)
    model.set_data_fer("S", "R", 0.5)
    epochs.append(model._epoch)
    model.set_rate_profile("S", "R", {11.0: 1e-3})
    epochs.append(model._epoch)
    assert epochs == sorted(set(epochs)), "every mutation must bump the epoch"


# ------------------------------------------------------------- block RNG ----


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    block=st.sampled_from([1, 2, 3, 7, 256, 4096]),
    warmup=st.integers(min_value=0, max_value=20),
    draws=st.integers(min_value=1, max_value=700),
)
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_numpy_block_uniform_replays_mersenne_stream_exactly(
    seed, block, warmup, draws
):
    reference = random.Random(seed)
    source = random.Random(seed)
    for _ in range(warmup):  # transplant mid-stream, not only at pos 0
        reference.random()
        source.random()
    wrapper = NumpyBlockUniform(source, block=block)
    got = [wrapper.random() for _ in range(draws)]
    expected = [reference.random() for _ in range(draws)]
    assert got == expected
    for value in got[:5]:
        assert type(value) is float  # numpy.float64 must not leak


def test_numpy_block_uniform_rejects_bad_block():
    with pytest.raises(ValueError):
        NumpyBlockUniform(random.Random(1), block=0)


# ------------------------------------------------------------- DCF tables ---


@given(
    slot_time=st.sampled_from([9.0, 20.0]),
    difs=st.sampled_from([28.0, 50.0]),
    eifs=st.sampled_from([188.0, 364.0]),
    cw_max=st.sampled_from([15, 31, 1023]),
)
def test_dcf_transition_tables_match_arithmetic(slot_time, difs, eifs, cw_max):
    difs_delay, eifs_delay, cw_next = dcf_transition_tables(
        slot_time, difs, eifs, cw_max
    )
    assert len(difs_delay) == len(eifs_delay) == len(cw_next) == cw_max + 1
    for slots in range(cw_max + 1):
        assert difs_delay[slots] == difs + slots * slot_time
        assert eifs_delay[slots] == eifs + slots * slot_time
    for cw in range(cw_max + 1):
        assert cw_next[cw] == min(2 * (cw + 1) - 1, cw_max)
    assert cw_next[cw_max] == cw_max  # saturation: CW never exceeds cw_max
