"""Unit tests for the broadcast medium: ranges, capture, collisions."""

import pytest

from repro.mac.frames import Frame, FrameKind
from repro.phy.error import BitErrorModel
from repro.phy.medium import Medium, Radio
from repro.phy.params import dot11b
from repro.phy.propagation import SPEED_OF_LIGHT_M_PER_US, distance
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


class RecordingMac:
    """Minimal MAC stub that records PHY callbacks."""

    def __init__(self):
        self.received = []
        self.busy_transitions = []
        self.tx_done = 0

    def phy_busy(self):
        self.busy_transitions.append("busy")

    def phy_idle(self):
        self.busy_transitions.append("idle")

    def phy_tx_done(self):
        self.tx_done += 1

    def phy_receive(self, frame, corrupted, addr_ok, rssi_db):
        self.received.append((frame, corrupted, addr_ok, rssi_db))


def make_medium(positions, **kwargs):
    sim = Simulator()
    medium = Medium(
        sim,
        dot11b(),
        RngStreams(3).stream("m"),
        error_model=BitErrorModel(),
        **kwargs,
    )
    radios = []
    for i, pos in enumerate(positions):
        radio = Radio(medium, f"r{i}", pos)
        radio.mac = RecordingMac()
        radios.append(radio)
    return sim, medium, radios


def data_frame(src="r0", dst="r1", seq=1):
    return Frame(FrameKind.DATA, src, dst, 314.0, 1052, seq=seq)


def test_broadcast_reaches_all_in_range():
    sim, medium, (a, b, c) = make_medium([(0, 0), (10, 0), (20, 0)])
    a.transmit(data_frame(), 957.0)
    sim.run()
    assert len(b.mac.received) == 1
    assert len(c.mac.received) == 1  # overhears too (default: infinite range)
    assert a.mac.tx_done == 1


def test_out_of_range_receives_nothing():
    sim, medium, (a, b) = make_medium([(0, 0), (100, 0)])
    medium.configure_ranges(55.0, 99.0)
    a.transmit(data_frame(), 957.0)
    sim.run()
    assert b.mac.received == []
    assert b.mac.busy_transitions == []  # not even energy


def test_in_interference_range_senses_but_cannot_decode():
    sim, medium, (a, b) = make_medium([(0, 0), (70, 0)])
    medium.configure_ranges(55.0, 99.0)
    a.transmit(data_frame(), 957.0)
    sim.run()
    assert b.mac.received == []
    assert "busy" in b.mac.busy_transitions
    assert b.mac.busy_transitions[-1] == "idle"


def test_equal_power_collision_corrupts_locked_frame():
    sim, medium, (a, b, c) = make_medium([(0, 0), (0, 0), (0, 0)])
    a.transmit(data_frame(src="r0", dst="r2", seq=1), 957.0)
    b.transmit(data_frame(src="r1", dst="r2", seq=2), 957.0)
    sim.run()
    # c locked the first arrival; the overlap garbles it.
    assert len(c.mac.received) == 1
    frame, corrupted, _addr_ok, _rssi = c.mac.received[0]
    assert corrupted


def test_capture_stronger_first_survives():
    # b is 10 m from c, a is 40 m away: power ratio 4^4 = 256 >= 10.
    sim, medium, (a, b, c) = make_medium([(40, 0), (10, 0), (0, 0)])
    b.transmit(data_frame(src="r1", dst="r2", seq=1), 957.0)
    a.transmit(data_frame(src="r0", dst="r2", seq=2), 957.0)
    sim.run()
    frames = [(f.src, corrupted) for (f, corrupted, _a, _r) in c.mac.received]
    assert ("r1", False) in frames  # strong frame captured cleanly


def test_capture_stronger_late_arrival_takes_over():
    sim, medium, (a, b, c) = make_medium([(40, 0), (10, 0), (0, 0)])
    a.transmit(data_frame(src="r0", dst="r2", seq=1), 957.0)  # weak first
    b.transmit(data_frame(src="r1", dst="r2", seq=2), 957.0)  # strong second
    sim.run()
    received_srcs = [f.src for (f, corrupted, _a, _r) in c.mac.received if not corrupted]
    assert received_srcs == ["r1"]


def test_capture_disabled_means_collision():
    sim, medium, (a, b, c) = make_medium(
        [(40, 0), (10, 0), (0, 0)], capture_enabled=False
    )
    b.transmit(data_frame(src="r1", dst="r2", seq=1), 957.0)
    a.transmit(data_frame(src="r0", dst="r2", seq=2), 957.0)
    sim.run()
    assert all(corrupted for (_f, corrupted, _a, _r) in c.mac.received)


def test_half_duplex_cannot_receive_while_transmitting():
    sim, medium, (a, b) = make_medium([(0, 0), (0, 0)])
    a.transmit(data_frame(src="r0", dst="r1", seq=1), 957.0)
    b.transmit(data_frame(src="r1", dst="r0", seq=2), 957.0)
    sim.run()
    assert a.mac.received == []
    assert b.mac.received == []


def test_no_mid_frame_locking():
    """A receiver that was busy transmitting when a frame started cannot
    decode it after its own transmission ends (missed preamble)."""
    sim, medium, (a, b) = make_medium([(0, 0), (0, 0)])
    b.transmit(data_frame(src="r1", dst="r0", seq=1), 100.0)  # short tx
    a.transmit(data_frame(src="r0", dst="r1", seq=2), 957.0)  # long overlap
    sim.run()
    assert b.mac.received == []


def test_corruption_rolls_per_receiver_link():
    sim, medium, (a, b, c) = make_medium([(0, 0), (5, 0), (10, 0)])
    medium.error_model.set_ber("r0", "r1", 1.0)  # only the r0->r1 link is bad
    a.transmit(data_frame(dst="r1"), 957.0)
    sim.run()
    assert b.mac.received[0][1] is True  # corrupted at b
    assert c.mac.received[0][1] is False  # clean overheard copy at c


def test_address_survival_flag():
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    medium.error_model.set_ber("r0", "r1", 1.0)
    medium.addr_dst_survival = 0.0  # force address loss on corruption
    a.transmit(data_frame(), 957.0)
    sim.run()
    _frame, corrupted, addr_ok, _rssi = b.mac.received[0]
    assert corrupted and not addr_ok


def test_rssi_reported_decreases_with_distance():
    sim, medium, (a, b, c) = make_medium([(0, 0), (10, 0), (30, 0)])
    a.transmit(data_frame(dst="r1"), 957.0)
    sim.run()
    rssi_near = b.mac.received[0][3]
    rssi_far = c.mac.received[0][3]
    assert rssi_near > rssi_far


def test_rssi_jitter_applied():
    sim, medium, (a, b) = make_medium([(0, 0), (10, 0)], rssi_jitter=lambda rng: 3.0)
    a.transmit(data_frame(dst="r1"), 957.0)
    sim.run()
    jittered = b.mac.received[0][3]
    sim2, medium2, (a2, b2) = make_medium([(0, 0), (10, 0)])
    a2.transmit(data_frame(dst="r1"), 957.0)
    sim2.run()
    assert jittered == pytest.approx(b2.mac.received[0][3] + 3.0)


def test_duplicate_radio_names_rejected():
    sim, medium, _radios = make_medium([(0, 0)])
    with pytest.raises(ValueError):
        Radio(medium, "r0", (1, 1))


def test_transmit_while_transmitting_rejected():
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    a.transmit(data_frame(), 957.0)
    with pytest.raises(RuntimeError):
        a.transmit(data_frame(seq=2), 957.0)


def test_nonpositive_duration_rejected():
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    with pytest.raises(ValueError):
        a.transmit(data_frame(), 0.0)


def test_invalid_range_config_rejected():
    sim, medium, _ = make_medium([(0, 0)])
    with pytest.raises(ValueError):
        medium.configure_ranges(99.0, 55.0)


def test_carrier_busy_during_own_transmission():
    sim, medium, (a, b) = make_medium([(0, 0), (5, 0)])
    a.transmit(data_frame(), 957.0)
    assert a.carrier_busy
    sim.run()
    assert not a.carrier_busy


# -- hearer tables: built once per sender, invalidated on change -------------


def test_hearer_table_holds_radios_at_or_above_cs_threshold_in_attach_order():
    # Boundary radios sit exactly at 55 m and 99 m: "at or above" includes them.
    positions = [(0, 0), (120, 0), (99, 0), (10, 0), (55, 0), (70, 0), (0, 56)]
    sim, medium, radios = make_medium(positions)
    medium.configure_ranges(55.0, 99.0)
    sender = radios[0]
    expected = []
    for receiver in radios[1:]:
        rss = medium.rss_between(sender, receiver)
        if rss >= medium.cs_threshold:
            delay = distance(sender.position, receiver.position) / SPEED_OF_LIGHT_M_PER_US
            decodable = rss >= medium.rx_threshold
            expected.append((receiver._on_tx_start, receiver._on_tx_end, rss, delay, decodable))
    table = medium._reach_from(sender)
    assert table == expected
    assert [entry[0].__self__.name for entry in table] == ["r2", "r3", "r4", "r5", "r6"]
    assert [entry[4] for entry in table] == [False, True, True, False, False]
    assert all(type(entry[4]) is bool for entry in table)


def test_configure_ranges_after_traffic_changes_hearers():
    sim, medium, (a, b) = make_medium([(0, 0), (70, 0)])
    a.transmit(data_frame(seq=1), 957.0)  # default ranges: b decodes
    sim.run()
    assert len(b.mac.received) == 1
    medium.configure_ranges(55.0, 99.0)  # b now only senses
    a.transmit(data_frame(seq=2), 957.0)
    sim.run()
    assert len(b.mac.received) == 1
    assert b.mac.busy_transitions == ["busy", "idle", "busy", "idle"]
    medium.configure_ranges(55.0, 60.0)  # b is now out of range entirely
    a.transmit(data_frame(seq=3), 957.0)
    sim.run()
    assert len(b.mac.received) == 1
    assert b.mac.busy_transitions == ["busy", "idle", "busy", "idle"]
    assert medium._reach_from(a) == []


def test_radio_attached_after_first_transmit_is_heard():
    sim, medium, (a, b) = make_medium([(0, 0), (10, 0)])
    a.transmit(data_frame(seq=1), 957.0)
    sim.run()
    late = Radio(medium, "late", (20, 0))
    late.mac = RecordingMac()
    a.transmit(data_frame(seq=2), 957.0)
    sim.run()
    assert [frame.seq for frame, *_ in late.mac.received] == [2]
    assert len(b.mac.received) == 2


def test_direct_threshold_assignment_is_honoured():
    sim, medium, (a, b) = make_medium([(0, 0), (10, 0)])
    a.transmit(data_frame(seq=1), 957.0)
    sim.run()
    assert len(b.mac.received) == 1
    link = medium.rss_between(a, b)
    medium.rx_threshold = link * 2  # b still senses the frame but cannot decode
    a.transmit(data_frame(seq=2), 957.0)
    sim.run()
    assert len(b.mac.received) == 1
    assert b.mac.busy_transitions[-2:] == ["busy", "idle"]
    medium.cs_threshold = link * 2  # b no longer even senses it
    a.transmit(data_frame(seq=3), 957.0)
    sim.run()
    assert b.mac.busy_transitions == ["busy", "idle", "busy", "idle"]
    medium.rx_threshold = medium.cs_threshold = 0.0  # back to hearing everyone
    a.transmit(data_frame(seq=4), 957.0)
    sim.run()
    assert [frame.seq for frame, *_ in b.mac.received] == [1, 4]
