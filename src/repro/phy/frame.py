"""Frame construction and parsing.

The frame mirrors the paper's 802.15.4-like structure (Section 6.1):
preamble, start-of-frame delimiter (SFD), a length field, payload, and a
CRC-16 "used to check whether frames are correctly received".  Everything
is expressed in 4-bit symbols (nibbles), the unit the 16-ary DSSS modem
spreads.

Layout (in symbols)::

    [ preamble: 8 x 0x0 ][ SFD: 0xA7 ][ length: 1 byte ][ payload ][ CRC-16 ]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.bits import bytes_to_nibbles, nibbles_to_bytes
from repro.phy.crc import append_crc16, check_crc16

__all__ = ["FrameFormat", "ParsedFrame", "DEFAULT_FRAME_FORMAT"]


@dataclass(frozen=True)
class FrameFormat:
    """Frame layout parameters.

    Attributes
    ----------
    preamble_symbols:
        Number of zero symbols in the preamble (default 8, i.e. 4 bytes).
    sfd:
        Start-of-frame delimiter byte (default 0xA7, the 802.15.4 value).
    max_payload:
        Maximum payload length in bytes representable by the length field.
    """

    preamble_symbols: int = 8
    sfd: int = 0xA7
    max_payload: int = 255

    def __post_init__(self) -> None:
        if self.preamble_symbols < 0:
            raise ValueError("preamble_symbols must be >= 0")
        if not 0 <= self.sfd <= 0xFF:
            raise ValueError("sfd must be one byte")
        if not 1 <= self.max_payload <= 255:
            raise ValueError("max_payload must be in 1..255")

    def to_dict(self) -> dict:
        """JSON-able spec; :meth:`from_dict` inverts it losslessly."""
        return {
            "preamble_symbols": int(self.preamble_symbols),
            "sfd": int(self.sfd),
            "max_payload": int(self.max_payload),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FrameFormat":
        """Rebuild a frame format from :meth:`to_dict` output.

        Unknown fields are rejected by name so spec typos surface early.
        """
        if not isinstance(data, dict):
            raise ValueError(f"frame format spec must be a mapping, got {type(data).__name__}")
        known = {"preamble_symbols", "sfd", "max_payload"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown frame format field(s): {sorted(unknown)}")
        kwargs = {}
        for name in known & set(data):
            value = data[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"frame format field {name!r} must be an integer")
            kwargs[name] = value
        return cls(**kwargs)

    @property
    def header_symbols(self) -> int:
        """Symbols before the payload: preamble + SFD (2) + length (2)."""
        return self.preamble_symbols + 2 + 2

    def frame_symbols(self, payload_len: int) -> int:
        """Total symbols in a frame with ``payload_len`` payload bytes."""
        if not 0 <= payload_len <= self.max_payload:
            raise ValueError(f"payload_len must be in 0..{self.max_payload}")
        return self.header_symbols + 2 * payload_len + 4  # + CRC-16

    def payload_bits(self, payload_len: int) -> int:
        """Information bits carried by the payload."""
        return 8 * payload_len

    def build(self, payload: bytes) -> np.ndarray:
        """Serialize a payload into the frame symbol sequence."""
        payload = bytes(payload)
        if len(payload) > self.max_payload:
            raise ValueError(f"payload of {len(payload)} bytes exceeds max {self.max_payload}")
        body = bytes([len(payload)]) + payload
        body = append_crc16(body[1:])  # CRC over the payload alone
        frame_bytes = bytes([self.sfd, len(payload)]) + body
        symbols = np.concatenate(
            [
                np.zeros(self.preamble_symbols, dtype=np.uint8),
                bytes_to_nibbles(frame_bytes),
            ]
        )
        assert symbols.size == self.frame_symbols(len(payload))
        return symbols

    def parse(self, symbols: np.ndarray) -> "ParsedFrame":
        """Parse received frame symbols back into a payload.

        ``symbols`` must start at the frame boundary (the BHSS receiver
        knows the boundary from its synchronized schedule; an acquiring
        receiver finds it with preamble detection first) and hold exactly
        one frame (receivers decode the symbol count of the payload length
        they expect).  A length field that disagrees with that count is a
        corrupted header: with the zero-initialised CRC a shortened length
        can otherwise land on a valid CRC (payload ``00`` read as length 0
        with CRC ``0000``) and deliver a truncated payload.  Parsing is
        forgiving: any structural mismatch (bad SFD, inconsistent length)
        is reported via flags rather than exceptions, because under
        jamming corrupted headers are the *expected* case.
        """
        syms = np.asarray(symbols, dtype=np.uint8) & 0x0F
        pre = self.preamble_symbols
        if syms.size < self.header_symbols + 4:
            return ParsedFrame(payload=b"", crc_ok=False, sfd_ok=False, length_ok=False, length=0)
        header = nibbles_to_bytes(syms[pre : pre + 4])
        sfd_ok = header[0] == self.sfd
        length = header[1]
        length_ok = length <= self.max_payload and syms.size == self.frame_symbols(length)
        if not length_ok:
            return ParsedFrame(payload=b"", crc_ok=False, sfd_ok=sfd_ok, length_ok=False, length=length)
        start = pre + 4
        body = nibbles_to_bytes(syms[start : start + 2 * length + 4])
        crc_ok = check_crc16(body)
        return ParsedFrame(
            payload=body[:-2],
            crc_ok=crc_ok,
            sfd_ok=sfd_ok,
            length_ok=True,
            length=length,
        )


@dataclass(frozen=True)
class ParsedFrame:
    """Result of :meth:`FrameFormat.parse`.

    ``accepted`` is the packet-success criterion of the paper's
    experiments: structure intact *and* CRC matching.
    """

    payload: bytes
    crc_ok: bool
    sfd_ok: bool
    length_ok: bool
    length: int

    @property
    def accepted(self) -> bool:
        """Whether the frame would be delivered (SFD, length and CRC good)."""
        return self.sfd_ok and self.length_ok and self.crc_ok


DEFAULT_FRAME_FORMAT = FrameFormat()
