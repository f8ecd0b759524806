"""Golden records and one-capture equivalence of the receive path.

``tests/golden/receive_cases.json`` freezes a phase-tracked
:class:`~repro.core.receiver.AcquiringReceiver` decode and one
session row (see ``tests/golden/regenerate_receive.py``); both are
recomputed here and compared exactly.

The second half checks that :meth:`BHSSReceiver.receive` is the
one-capture case of :meth:`BHSSReceiver.receive_batch`: a capture
decoded alone equals the same capture decoded inside a multi-packet
batch, for truncated captures, the non-filtering baseline receiver, and
the Costas-tracked path.
"""

import json
import os

import numpy as np
import pytest

from repro.channel import Impairments
from repro.core import BHSSConfig, BHSSReceiver, BHSSTransmitter, LinkSimulator
from repro.jamming.registry import jammer_from_spec
from tests.golden.regenerate_receive import OUTPUT, generate


@pytest.fixture(scope="module")
def golden():
    if not os.path.exists(OUTPUT):
        pytest.skip("golden fixture missing; run tests/golden/regenerate_receive.py")
    with open(OUTPUT) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def regenerated():
    return generate()


class TestGoldenReceive:
    def test_acquisition_phase_tracked(self, golden, regenerated):
        record = regenerated["acquisition"]
        assert record["accepted"]
        kinds = {d[0] for d in record["decisions"]}
        assert {"lowpass", "excision"} <= kinds  # both filters engaged
        assert record == golden["acquisition"]

    def test_session_row(self, golden, regenerated):
        record = regenerated["session"]
        assert record["desync_injected"] >= 1 and record["handshake_dropped"] >= 1
        assert record == golden["session"]


def assert_same_result(a, b):
    np.testing.assert_array_equal(a.symbols, b.symbols)
    assert a.frame.payload == b.frame.payload
    assert a.accepted == b.accepted
    assert a.quality == b.quality
    assert len(a.decisions) == len(b.decisions)
    for da, db in zip(a.decisions, b.decisions):
        assert da.kind is db.kind
        assert da.occupied_bandwidth == db.occupied_bandwidth
        assert da.peak_over_floor_db == db.peak_over_floor_db
        if da.taps is None:
            assert db.taps is None
        else:
            np.testing.assert_array_equal(da.taps, db.taps)


def captures(config, indices=(0, 1, 2, 3), seed=9, impairments=None):
    tx = BHSSTransmitter(config)
    rng = np.random.default_rng(seed)
    out = []
    for k in indices:
        wave = tx.transmit(packet_index=k).waveform
        noisy = wave + 0.1 * (rng.standard_normal(wave.size) + 1j * rng.standard_normal(wave.size))
        # A narrow tone makes some segments pick the excision filter.
        noisy = noisy + 0.8 * np.exp(2j * np.pi * 1.1e6 / config.sample_rate * np.arange(wave.size))
        if impairments is not None:
            noisy = impairments.apply(noisy, config.sample_rate)
        out.append(noisy)
    return out


def config(**overrides):
    overrides.setdefault("payload_bytes", 6)
    overrides.setdefault("symbols_per_hop", 2)
    return BHSSConfig.paper_default(seed=5, **overrides)


class TestReceiveIsOneCaptureBatch:
    @staticmethod
    def check(receiver, waves, indices, phase_track=False):
        batched = receiver.receive_batch(waves, packet_indices=indices, phase_track=phase_track)
        for wave, k, result in zip(waves, indices, batched):
            alone = receiver.receive(wave, packet_index=k, phase_track=phase_track)
            assert_same_result(alone, result)
            single = receiver.receive_batch([wave], packet_indices=[k], phase_track=phase_track)
            assert_same_result(alone, single[0])
        return batched

    def test_truncated_captures(self):
        cfg = config()
        waves = [
            w[: max(64, int(w.size * frac))]
            for w, frac in zip(captures(cfg), (0.9, 0.35, 1.0, 0.05))
        ]
        results = self.check(BHSSReceiver(cfg), waves, [0, 1, 2, 3])
        assert any(r.quality < 0.5 for r in results)

    def test_filtering_off(self):
        cfg = config(filtering=False)
        results = self.check(BHSSReceiver(cfg), captures(cfg), [0, 1, 2, 3])
        assert all(r.decisions == () for r in results)

    @pytest.mark.parametrize("truncate", [False, True])
    def test_phase_track(self, truncate):
        cfg = config()
        indices = [3, 0, 7, 1]
        waves = captures(cfg, indices, impairments=Impairments(cfo_hz=300.0, phase_rad=0.4))
        if truncate:
            waves = [w[: int(w.size * frac)] for w, frac in zip(waves, (1.0, 0.6, 0.8, 1.0))]
        results = self.check(BHSSReceiver(cfg), waves, indices, phase_track=True)
        assert any(r.accepted for r in results)
        usage = {kind for r in results for kind, n in r.filter_usage().items() if n}
        assert "excision" in usage


class TestImpairedLinkBatched:
    """An impaired front end keeps the batched link engine on the stacked path."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_equals_serial(self, seed):
        impairments = Impairments(cfo_hz=400.0, phase_rad=0.7, phase_noise_std=1e-4)
        tone = {"type": "tone", "frequency": 1e6, "sample_rate": 20e6}
        serial, batched = (
            LinkSimulator(config(), impairments=impairments).run_packets_batched(
                5,
                snr_db=10.0,
                sjr_db=-5.0,
                jammer=jammer_from_spec(tone),
                seed=seed,
                batch_size=batch_size,
                cache=False,
            )
            for batch_size in (0, 3)
        )
        assert serial == batched
        assert serial.num_accepted > 0
