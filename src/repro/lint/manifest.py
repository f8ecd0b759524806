"""The batch/serial equivalence manifest.

Every public vectorized primitive (``*_batch`` / ``*_batched``) in the
signal chain maps to the serial function it must match bit-for-bit.
Three consumers keep the manifest honest:

* the ``batch-symmetry`` lint rule fails when a new batch primitive is
  added without an entry here,
* the ``batch-manifest`` project rule fails when an entry names a module
  or attribute that no longer exists, and
* ``tests/test_batch_equivalence.py`` iterates the manifest so every
  registered pair is resolvable by the equivalence wall.

Keys and values are ``"module:Qual.name"`` strings (class-qualified for
methods), so the manifest stays importable-as-data with zero import cost.

Some pairs hold by construction: ``BHSSReceiver.receive`` is the
one-capture case of ``BHSSReceiver.receive_batch``, and the two link
runs share one packet driver.  Their entries stay, so the twin keeps its
place on the wall if it ever gains its own body.
"""

from __future__ import annotations

import importlib
from typing import Callable

__all__ = ["BATCH_EQUIVALENCE", "serial_twin", "resolve"]

#: batch primitive -> its bit-identical serial twin
BATCH_EQUIVALENCE: dict[str, str] = {
    "repro.core.control:ControlLogic.excision_for_batch": "repro.core.control:ControlLogic.excision_for",
    "repro.core.control:ControlLogic.decide_batch": "repro.core.control:ControlLogic.decide",
    "repro.core.link:LinkSimulator.run_packets_batched": "repro.core.link:LinkSimulator.run_packets",
    "repro.core.receiver:BHSSReceiver.receive_batch": "repro.core.receiver:BHSSReceiver.receive",
    "repro.core.transmitter:BHSSTransmitter.transmit_batch": "repro.core.transmitter:BHSSTransmitter.transmit",
    "repro.dsp.decimate:decimate_batch": "repro.dsp.decimate:decimate",
    "repro.dsp.excision:excision_taps_from_psd_batch": "repro.dsp.excision:excision_taps_from_psd",
    "repro.dsp.fir:fft_convolve_batch": "repro.dsp.fir:fft_convolve",
    "repro.dsp.fir:apply_fir_batch": "repro.dsp.fir:apply_fir",
    "repro.dsp.mixing:frequency_shift_batch": "repro.dsp.mixing:frequency_shift",
    "repro.dsp.mixing:phase_rotate_batch": "repro.dsp.mixing:phase_rotate",
    "repro.dsp.spectral:welch_psd_batch": "repro.dsp.spectral:welch_psd",
    "repro.dsp.spectral:occupied_bandwidth_batch": "repro.dsp.spectral:occupied_bandwidth",
    "repro.phy.qpsk:binary_chips_to_complex_batch": "repro.phy.qpsk:binary_chips_to_complex",
    "repro.phy.qpsk:complex_chips_to_binary_batch": "repro.phy.qpsk:complex_chips_to_binary",
    "repro.phy.qpsk:ChipModulator.modulate_batch": "repro.phy.qpsk:ChipModulator.modulate",
    "repro.phy.qpsk:ChipModulator.demodulate_batch": "repro.phy.qpsk:ChipModulator.demodulate",
    "repro.spread.dsss:SixteenAryDSSS.spread_batch": "repro.spread.dsss:SixteenAryDSSS.spread",
    "repro.spread.dsss:SixteenAryDSSS.despread_batch": "repro.spread.dsss:SixteenAryDSSS.despread",
}


def serial_twin(batch_ref: str) -> str | None:
    """The serial counterpart of a ``"module:Qual.name"`` batch reference."""
    return BATCH_EQUIVALENCE.get(batch_ref)


def resolve(ref: str) -> Callable[..., object]:
    """Import a ``"module:Qual.name"`` reference and return the callable.

    Raises ``ImportError``/``AttributeError`` when the reference is stale,
    which is exactly what the ``batch-manifest`` rule and the equivalence
    tests report as a finding/failure.
    """
    module_name, _, qualname = ref.partition(":")
    obj: object = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise TypeError(f"manifest reference {ref!r} is not callable")
    return obj
