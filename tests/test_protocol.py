"""Seed-synchronized session layer: packetizer, hop seeds, chaos recovery.

The acceptance bar mirrors the runtime's chaos tests: a session that
loses seed sync — whether through channel damage or injected protocol
faults — must either recover within its re-sync budget and deliver the
exact bytes a fault-free run delivers, or degrade deterministically to
the static widest band.  Serial and pooled sweeps over session grids
must stay bit-identical, faults included.
"""

import pytest

from repro.core.config import BHSSConfig
from repro.protocol import (
    CounterSeedGenerator,
    Fragment,
    MessageTrafficSpec,
    PacketKind,
    ProtocolError,
    Reassembler,
    SessionError,
    SessionSpec,
    SessionState,
    TimeSlottedSeedGenerator,
    build_fragment,
    fragment_message,
    parse_fragment,
    reassemble_message,
    run_session,
    seed_commitment,
    seed_generator_from_spec,
    seed_generator_names,
    simulate_session,
    verify_seed_generator_roundtrip,
    whiten,
    whitening_sequence,
)
from repro.protocol.packetizer import HEADER_BYTES
from repro.protocol.spec import default_sync_retries, default_sync_timeout
from repro.runtime import FaultPlan, ParallelExecutor

FORK = ParallelExecutor.fork_available()
needs_fork = pytest.mark.skipif(not FORK, reason="fork start method unavailable")


@pytest.fixture(autouse=True)
def _no_ambient_knobs(monkeypatch):
    """Session/fault knobs must come only from each test."""
    for var in (
        "REPRO_FAULTS",
        "REPRO_SYNC_RETRIES",
        "REPRO_SYNC_TIMEOUT",
        "REPRO_WORKERS",
        "REPRO_CACHE",
        "REPRO_CHECKPOINT",
    ):
        monkeypatch.delenv(var, raising=False)


def small_spec(**overrides) -> SessionSpec:
    """A fast session: short messages over the paper link at 4 sym/hop."""
    base = dict(
        name="test-session",
        config=BHSSConfig.paper_default(pattern="parabolic", seed=42, payload_bytes=16),
        traffic=MessageTrafficSpec(num_messages=2, message_bytes=24, seed=3),
        jammer={"type": "none"},
        seed_generator={"type": "counter", "key": 7},
        snr_db=(15.0,),
        sjr_db=(-4.0,),
        seed=5,
        packets_per_epoch=6,
        resync_retries=3,
        sync_timeout=4,
    )
    base.update(overrides)
    return SessionSpec(**base)


# -- whitening ----------------------------------------------------------------


class TestWhitening:
    def test_whiten_is_an_involution(self):
        data = bytes(range(64))
        assert whiten(whiten(data, 0x55), 0x55) == data

    def test_sequence_is_deterministic_and_seed_dependent(self):
        assert whitening_sequence(16, 0x7F) == whitening_sequence(16, 0x7F)
        assert whitening_sequence(16, 0x7F) != whitening_sequence(16, 0x01)

    def test_sequence_has_full_lfsr_period(self):
        # x^7 + x^4 + 1 is primitive: the bit stream repeats every 127 bits.
        stream = whitening_sequence(254)  # 2032 bits >> one period
        bits = [(byte >> k) & 1 for byte in stream for k in range(8)]
        assert bits[:127] == bits[127:254]
        assert any(bits[:127])  # never the all-zero degenerate stream

    def test_seed_zero_and_out_of_range_rejected(self):
        for bad in (0, 128, -1):
            with pytest.raises(ValueError, match="whitening seed"):
                whitening_sequence(4, bad)


# -- packetizer ---------------------------------------------------------------


class TestPacketizer:
    def test_build_parse_roundtrip(self):
        wire = build_fragment(PacketKind.DATA, 9, 2, 5, b"hello", 16, 77)
        assert len(wire) == 16
        frag = parse_fragment(wire, 77)
        assert frag == Fragment(
            kind=PacketKind.DATA, message_id=9, frag_index=2, total_frags=5, chunk=b"hello"
        )

    def test_truncated_fragment_rejected(self):
        wire = build_fragment(PacketKind.DATA, 1, 0, 1, b"abcdefg", 12, 5)
        with pytest.raises(ProtocolError, match="truncated"):
            parse_fragment(wire[: HEADER_BYTES - 1], 5)
        with pytest.raises(ProtocolError, match="truncated"):
            parse_fragment(wire[:-1], 5)

    def test_structurally_bad_headers_rejected(self):
        with pytest.raises(ProtocolError, match="out of range"):
            build_fragment(PacketKind.DATA, 0, 3, 3, b"x", 16, 1)
        with pytest.raises(ProtocolError, match="MTU capacity"):
            build_fragment(PacketKind.DATA, 0, 0, 1, b"x" * 12, 16, 1)
        wire = bytearray(build_fragment(PacketKind.DATA, 1, 0, 1, b"abc", 12, 5))
        wire[3] = 250  # unknown kind byte
        with pytest.raises(ProtocolError, match="kind"):
            parse_fragment(bytes(wire), 5)

    def test_fragment_and_reassemble_any_order(self):
        message = bytes(range(100))
        frags = [parse_fragment(w, 9) for w in fragment_message(message, 16, 4, 9)]
        assert len(frags) > 2
        assert reassemble_message(reversed(frags)) == message

    def test_reassembler_tolerates_duplicates_and_interleaving(self):
        asm = Reassembler()
        a = [parse_fragment(w, 1) for w in fragment_message(b"A" * 40, 16, 0, 1)]
        b = [parse_fragment(w, 1) for w in fragment_message(b"B" * 40, 16, 1, 1)]
        done = []
        for frag in (a[0], b[0], a[0], a[1], b[1], b[2], a[2], a[3], b[3]):
            out = asm.add(frag)
            if out is not None:
                done.append(out)
        assert done == [b"A" * 40, b"B" * 40]
        assert asm.crc_failures == 0

    def test_corrupted_chunk_fails_crc_and_frees_the_id(self):
        asm = Reassembler()
        frags = [parse_fragment(w, 2) for w in fragment_message(b"payload!", 16, 3, 2)]
        bad = Fragment(
            kind=PacketKind.DATA,
            message_id=3,
            frag_index=0,
            total_frags=frags[0].total_frags,
            chunk=bytes(len(frags[0].chunk)),
        )
        for frag in [bad, *frags[1:]]:
            assert asm.add(frag) is None
        assert asm.crc_failures == 1
        # the id is free again: a clean retransmission completes
        out = None
        for frag in frags:
            out = asm.add(frag) or out
        assert out == b"payload!"

    def test_reassembler_rejects_control_and_total_mismatch(self):
        asm = Reassembler()
        with pytest.raises(ProtocolError, match="DATA"):
            asm.add(
                Fragment(
                    kind=PacketKind.HANDSHAKE, message_id=0, frag_index=0, total_frags=1, chunk=b""
                )
            )
        asm.add(
            Fragment(kind=PacketKind.DATA, message_id=5, frag_index=0, total_frags=3, chunk=b"x")
        )
        with pytest.raises(ProtocolError, match="claimed"):
            asm.add(
                Fragment(
                    kind=PacketKind.DATA, message_id=5, frag_index=1, total_frags=2, chunk=b"y"
                )
            )


# -- hop-seed generators ------------------------------------------------------


class TestHopSeeds:
    def test_registry_names(self):
        assert seed_generator_names() == ["counter", "time-slotted"]

    def test_counter_stream_is_deterministic_and_epoch_dependent(self):
        gen = CounterSeedGenerator(key=11)
        seeds = [gen.seed_for_epoch(e) for e in range(6)]
        assert seeds == [CounterSeedGenerator(key=11).seed_for_epoch(e) for e in range(6)]
        assert len(set(seeds)) == len(seeds)
        assert seeds != [CounterSeedGenerator(key=12).seed_for_epoch(e) for e in range(6)]

    def test_time_slotted_groups_epochs(self):
        gen = TimeSlottedSeedGenerator(key=2, slot_epochs=3)
        assert gen.seed_for_epoch(0) == gen.seed_for_epoch(2)
        assert gen.seed_for_epoch(2) != gen.seed_for_epoch(3)

    def test_spec_roundtrip_and_rejection(self):
        gen = seed_generator_from_spec({"type": "time-slotted", "key": 4, "slot_epochs": 2})
        assert gen.spec() == {"type": "time-slotted", "key": 4, "slot_epochs": 2}
        with pytest.raises(ValueError, match="unknown seed-generator"):
            seed_generator_from_spec({"type": "quantum"})
        with pytest.raises(ValueError, match="not recognized"):
            seed_generator_from_spec({"type": "counter", "keys": 1})
        with pytest.raises(ValueError, match="type"):
            seed_generator_from_spec({"key": 1})

    def test_lint_roundtrip_helper_passes_registry(self):
        for name in seed_generator_names():
            gen = seed_generator_from_spec({"type": name})
            assert verify_seed_generator_roundtrip(gen)["type"] == name

    def test_commitment_is_32_bit_and_keyed(self):
        assert 0 <= seed_commitment(123) <= 0xFFFFFFFF
        assert seed_commitment(123) != seed_commitment(124)


# -- specs --------------------------------------------------------------------


class TestSpecs:
    def test_traffic_roundtrip_and_unknown_field(self):
        spec = MessageTrafficSpec(num_messages=3, message_bytes=10, seed=2)
        assert MessageTrafficSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(SessionError, match="unknown field"):
            MessageTrafficSpec.from_dict({"num_messages": 1, "bytes": 4})

    def test_traffic_messages_are_deterministic(self):
        spec = MessageTrafficSpec(num_messages=2, message_bytes=8, seed=9)
        assert spec.messages() == spec.messages()
        assert all(len(m) == 8 for m in spec.messages())
        assert spec.messages() != MessageTrafficSpec(2, 8, seed=10).messages()

    def test_session_spec_roundtrip(self):
        spec = small_spec()
        again = SessionSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    def test_session_save_load(self, tmp_path):
        spec = small_spec()
        path = spec.save(str(tmp_path / "session.json"))
        assert SessionSpec.load(path).to_dict() == spec.to_dict()

    def test_mtu_floor_names_the_field(self):
        with pytest.raises(SessionError, match="config.payload_bytes"):
            small_spec(config=BHSSConfig.paper_default(payload_bytes=12))

    def test_from_dict_unknown_field_and_bad_grid(self):
        good = small_spec().to_dict()
        bad = dict(good)
        bad["mystery"] = 1
        with pytest.raises(SessionError, match="unknown session field"):
            SessionSpec.from_dict(bad)
        bad = dict(good)
        bad["grid"] = {"snr_db": [], "sjr_db": [-4.0]}
        with pytest.raises(SessionError, match="snr_db"):
            SessionSpec.from_dict(bad)

    def test_validate_deep_checks_component_specs(self):
        with pytest.raises(SessionError, match="jammer"):
            small_spec(jammer={"type": "no-such-jammer"}).validate()
        with pytest.raises(SessionError, match="seed_generator"):
            small_spec(seed_generator={"type": "quantum"}).validate()

    def test_sync_knobs_resolve_from_env(self, monkeypatch):
        assert default_sync_retries() == 3
        assert default_sync_timeout() == 4
        monkeypatch.setenv("REPRO_SYNC_RETRIES", "5")
        monkeypatch.setenv("REPRO_SYNC_TIMEOUT", "2")
        spec = small_spec(resync_retries=None, sync_timeout=None)
        assert spec.resync_retries == 5
        assert spec.sync_timeout == 2
        monkeypatch.setenv("REPRO_SYNC_RETRIES", "zero")
        with pytest.raises(SessionError, match="REPRO_SYNC_RETRIES"):
            default_sync_retries()
        monkeypatch.setenv("REPRO_SYNC_RETRIES", "0")
        with pytest.raises(SessionError, match="REPRO_SYNC_RETRIES"):
            default_sync_retries()

    def test_points_and_slot_budget(self):
        spec = small_spec(snr_db=(10.0, 15.0), sjr_db=(-4.0, -8.0))
        assert spec.points() == [(10.0, -4.0), (10.0, -8.0), (15.0, -4.0), (15.0, -8.0)]
        assert spec.slot_budget() >= 8 * spec.num_fragments()
        assert small_spec(max_slots=40).slot_budget() == 40


# -- session state machine ----------------------------------------------------


def desync_firing_seed(epochs: int = 4) -> int:
    """A fault seed whose desync draw fires on the very first epoch."""
    for seed in range(1000):
        plan = FaultPlan(desync=0.5, seed=seed)
        if plan.should("desync", "0"):
            return seed
    raise AssertionError("no firing seed found — probabilities broken?")


class TestSessionRuns:
    def test_benign_session_delivers_everything(self):
        stats = simulate_session(small_spec(), snr_db=15.0, sjr_db=-4.0)
        assert stats.delivery_ratio == 1.0
        assert stats.final_state == SessionState.SYNCED.value
        assert not stats.degraded
        assert stats.desync_count == 0
        assert stats.handshake_accepted >= 1
        # delivered payloads are the exact traffic bytes
        expected = {i: m for i, m in enumerate(small_spec().traffic.messages())}
        assert stats.delivered == expected

    def test_transitions_start_with_handshake(self):
        stats = simulate_session(small_spec(), snr_db=15.0, sjr_db=-4.0)
        assert stats.transitions[0][1:] == (SessionState.IDLE.value, SessionState.HANDSHAKE.value)
        assert stats.transitions[1][2] == SessionState.SYNCED.value

    def test_repeat_runs_are_bit_identical(self):
        spec = small_spec()
        first = simulate_session(spec, 15.0, -4.0).to_dict()
        second = simulate_session(spec, 15.0, -4.0).to_dict()
        assert first == second

    def test_forced_desync_recovers_within_budget(self):
        spec = small_spec()
        plan = FaultPlan(desync=0.5, seed=desync_firing_seed())
        stats = simulate_session(spec, 15.0, -4.0, faults=plan)
        assert stats.desync_injected >= 1
        assert stats.desync_count >= 1
        assert stats.resync_count == stats.desync_count  # every desync recovered
        assert not stats.degraded
        assert stats.delivery_ratio == 1.0
        assert all(lat >= 1 for lat in stats.resync_latencies)

    def test_chaos_session_is_bit_identical_to_fault_free_payloads(self):
        spec = small_spec()
        clean = simulate_session(spec, 15.0, -4.0)
        plan = FaultPlan.parse("drop-handshake:0.3,desync:0.5,seed:%d" % desync_firing_seed())
        faulted = simulate_session(spec, 15.0, -4.0, faults=plan)
        assert faulted.delivered == clean.delivered
        assert simulate_session(spec, 15.0, -4.0, faults=plan).to_dict() == faulted.to_dict()

    def test_budget_exhaustion_degrades_to_static_band(self):
        # At -20 dB SNR no handshake ever decodes: the session must walk
        # the full retry budget and then pin itself to the widest band.
        spec = small_spec(resync_retries=2, sync_timeout=2, max_slots=40)
        stats = simulate_session(spec, snr_db=-20.0, sjr_db=-4.0)
        assert stats.degraded
        assert stats.final_state == SessionState.DEGRADED.value
        assert stats.handshake_tx == 4  # retries x timeout, then give up
        assert stats.handshake_accepted == 0

    def test_dropped_handshakes_consume_no_airtime(self):
        spec = small_spec()
        plan = FaultPlan(drop_handshake=1.0, seed=0)
        stats = simulate_session(spec, 15.0, -4.0, faults=plan)
        assert stats.handshake_dropped >= 1
        # drop fires only on attempt 0 of each round; later attempts succeed
        assert stats.delivery_ratio == 1.0


# -- sweep runner -------------------------------------------------------------


class TestRunSession:
    def test_rows_follow_grid_order(self):
        spec = small_spec(sjr_db=(-4.0, -8.0))
        result = run_session(spec, executor=ParallelExecutor(0))
        assert result.column("sjr_db") == [-4.0, -8.0]
        assert set(result.rows[0]) == set(result.columns)

    @needs_fork
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_serial_vs_pool_bit_identical(self, seed):
        spec = small_spec(seed=seed, sjr_db=(-4.0, -8.0), jammer={"type": "follower", "initial_bandwidth": 10000000.0})
        serial = run_session(spec, executor=ParallelExecutor(0))
        pooled = run_session(spec, executor=ParallelExecutor(2))
        assert serial.as_table_rows() == pooled.as_table_rows()

    @needs_fork
    def test_serial_vs_pool_bit_identical_under_protocol_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "drop-handshake:0.3,desync:0.2,seed:5")
        spec = small_spec(sjr_db=(-4.0, -8.0), jammer={"type": "follower", "initial_bandwidth": 10000000.0})
        serial = run_session(spec, executor=ParallelExecutor(0))
        pooled = run_session(spec, executor=ParallelExecutor(2))
        assert serial.as_table_rows() == pooled.as_table_rows()

    def test_cache_key_includes_protocol_faults(self, tmp_path, monkeypatch):
        from repro.runtime import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        spec = small_spec()
        clean = run_session(spec, executor=ParallelExecutor(0), cache=cache)
        monkeypatch.setenv("REPRO_FAULTS", "desync:1.0,seed:%d" % desync_firing_seed())
        faulted = run_session(spec, executor=ParallelExecutor(0), cache=cache)
        # a desynced run resyncs: the cached clean row must NOT be reused
        assert faulted.column("desync_count") != clean.column("desync_count")

    def test_repro_cache_env_fills_and_serves(self, tmp_path, monkeypatch):
        from repro.protocol import session as session_module
        from repro.runtime import ResultCache

        root = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_CACHE", root)
        spec = small_spec(sjr_db=(-4.0, -8.0))
        first = run_session(spec, executor=ParallelExecutor(0))
        assert ResultCache(root).verify().valid == 2  # one entry per point

        def miss(*args, **kwargs):
            raise AssertionError("a cached point was recomputed")

        monkeypatch.setattr(session_module, "simulate_session", miss)
        again = run_session(spec, executor=ParallelExecutor(0))
        assert again.as_table_rows() == first.as_table_rows()

    def test_checkpoint_resume_skips_completed_points(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", str(tmp_path / "ckpt"))
        spec = small_spec(sjr_db=(-4.0, -8.0))
        first = run_session(spec, executor=ParallelExecutor(0))
        again = run_session(spec, executor=ParallelExecutor(0))
        assert first.as_table_rows() == again.as_table_rows()
