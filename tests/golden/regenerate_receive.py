"""Regenerate the golden receive-path records (``receive_cases.json``).

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate_receive.py

Freezes two end-to-end outputs of the receive chain:

* ``acquisition``: an :class:`repro.core.receiver.AcquiringReceiver`
  decode of a delayed capture with a carrier-frequency offset, a static
  phase error, a tone jammer and AWGN.  The acquiring receiver hands off
  with ``phase_track=True``, so this pins the Costas-tracked receive path
  together with its per-segment filter decisions.
* ``session``: one :func:`repro.protocol.simulate_session` row of the
  bundled follower-jammer session under a pinned protocol fault plan —
  every session slot goes through the hop-synchronized receiver.

``tests/test_golden_receive.py`` recomputes both and compares *exactly*
(JSON round-trips Python floats losslessly).  Only regenerate after an
*intentional* numerics change, and say why in the commit message.
"""

from __future__ import annotations

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT = os.path.join(HERE, "receive_cases.json")
SESSION_SPEC = os.path.join(HERE, "..", "..", "examples", "scenarios", "session_follower.json")

# Every generation input is pinned here; the test imports these so the
# recomputation can't drift away from the fixture's provenance.
CONFIG = {"payload_bytes": 8, "seed": 7}
PAYLOAD = b"golden!!"
PACKET_INDEX = 2
LEAD_SAMPLES = 777
CFO_HZ = 2e3
PHASE_RAD = 1.1
TONE_FREQ = 1.5e6
TONE_AMPLITUDE = 1.0
SNR_DB = 18.0
NOISE_SEED = 31
SESSION_POINT = (15.0, -4.0)
SESSION_FAULTS = "desync:0.25,drop-handshake:0.2,seed:30"


def acquisition_capture() -> tuple[object, np.ndarray]:
    """``(config, capture)`` of the pinned acquisition case."""
    from repro.channel import Impairments, add_awgn
    from repro.core import BHSSConfig, BHSSTransmitter
    from repro.jamming.registry import ToneJammer
    from repro.utils import signal_power

    config = BHSSConfig.paper_default(**CONFIG)
    packet = BHSSTransmitter(config).transmit(PAYLOAD, PACKET_INDEX)
    tone = ToneJammer(TONE_FREQ, config.sample_rate).waveform(packet.num_samples)
    jammed = packet.waveform + TONE_AMPLITUDE * tone
    impaired = Impairments(cfo_hz=CFO_HZ, phase_rad=PHASE_RAD).apply(jammed, config.sample_rate)
    capture = np.concatenate([np.zeros(LEAD_SAMPLES, dtype=complex), impaired])
    noisy = add_awgn(
        capture, SNR_DB, rng=NOISE_SEED, reference_power=signal_power(packet.waveform)
    )
    return config, noisy


def acquisition_record() -> dict:
    from repro.core.receiver import AcquiringReceiver

    config, capture = acquisition_capture()
    acq = AcquiringReceiver(config).receive(capture, packet_index=PACKET_INDEX)
    if acq is None:
        raise RuntimeError("the pinned acquisition case found no preamble")
    result = acq.result
    return {
        "start_sample": acq.start_sample,
        "cfo_hz": acq.cfo_hz,
        "phase_rad": acq.phase_rad,
        "preamble_peak": acq.preamble_peak,
        "accepted": result.accepted,
        "payload": result.payload.hex(),
        "symbols": [int(s) for s in result.symbols],
        "quality": result.quality,
        "decisions": [
            [d.kind.value, d.occupied_bandwidth, d.peak_over_floor_db, d.signal_bandwidth]
            for d in result.decisions
        ],
    }


def session_record() -> dict:
    from repro.protocol import SessionSpec, simulate_session
    from repro.runtime import FaultPlan

    spec = SessionSpec.load(SESSION_SPEC)
    snr_db, sjr_db = SESSION_POINT
    stats = simulate_session(spec, snr_db, sjr_db, faults=FaultPlan.parse(SESSION_FAULTS))
    return stats.to_dict()


def generate() -> dict[str, dict]:
    # The JSON round trip turns tuples into lists, as the fixture stores them.
    cases = {"acquisition": acquisition_record(), "session": session_record()}
    return json.loads(json.dumps(cases))


def main() -> None:
    cases = generate()
    with open(OUTPUT, "w") as fh:
        json.dump(cases, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUTPUT}: {len(cases)} receive cases")


if __name__ == "__main__":
    main()
