"""The benchmark's workloads.

``BENCHMARK.json`` lists the four that regression checks run.  The
other two run by name: grid-serial, grid-pool's input run serially and
the base of a pool comparison, and network-jammed8, whose run medians
spread past their bound on a shared 2-vCPU host.  Leaving both out
gives the four longer runs in the time a regression check allows.

Each workload builds its inputs from the workload seed in :meth:`setup`
and runs one pass through a public entry point in :meth:`run`:
``LinkSimulator.run_packets_batched``, ``run_scenario``, ``run_session``
or ``run_network``.  A pass returns its output rows (hashed for the
output checks), the packets it simulated or served, and the runner's
``SweepTiming`` when there is one.  Checkpointing is off everywhere; it
needs a workload of its own.

``repro`` is imported inside the methods, so that importing this module
costs nothing and the worker can time the package import as set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

INPUTS = Path(__file__).resolve().parent / "inputs"

#: Worker count of the pooled workloads (the target machine has 2 CPUs).
POOL_WORKERS = 2

#: The pre-shared link seed (hop schedule and PN scrambler) of the link
#: and grid workloads, and the links of network-jammed8 keep theirs.  A
#: packet's length follows its hop draws, so a per-seed hop schedule
#: would change the work of a pass (2.5x across ten grid seeds); the
#: workload seed drives the jammer and noise draws instead.
LINK_KEY = 42

#: The grid workloads' operating points: 8 SNR x 8 SJR.
GRID_SNR_DB = [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0]
GRID_SJR_DB = [-14.0, -11.0, -8.0, -5.0, -2.0, 1.0, 4.0, 7.0]

#: session-chaos fault plan: probabilities, and the pattern a fault seed
#: must fire on the labels a session reaches (epochs 0-3, re-sync rounds
#: 0-2): one desync at epoch 0 and one dropped handshake at the first
#: re-sync.  The session's slot count swings by tens of percent with the
#: chaos pattern, so pinning the pattern keeps the work of a pass the
#: same at every seed while the seed still picks the plan.
DESYNC_P = 0.25
DROP_HANDSHAKE_P = 0.1
FAULT_EPOCHS = 4
FAULT_ROUNDS = 3


def derive(seed: int, label: str) -> int:
    """A 31-bit input seed derived from the workload seed and a label."""
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Pass:
    """One pass: output rows, packets simulated or served, runner timing."""

    rows: list
    packets: int
    timing: Any = None


class Workload:
    """Base class: a named input built from a seed, run pass by pass."""

    name = ""
    why = ""
    #: executor width of the timed passes (0 = serial)
    workers = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, workers: int | None = None) -> Pass:
        """One pass; ``workers`` overrides :attr:`workers`."""
        raise NotImplementedError

    def guard(self, first: Pass, counts: dict) -> list[str]:
        """Problems that would make the workload vacuous.

        ``counts`` are the tracer's outcome counts of the warm-up pass.
        """
        problems = []
        if self.workers and first.timing.workers != self.workers:
            problems.append(f"ran on {first.timing.workers} workers, expected {self.workers}")
        return problems

    def reference(self) -> list | None:
        """Rows this workload's output must equal, or ``None``."""
        return None

    def pass_counts(self, rows: list) -> dict[str, float]:
        """Per-pass layer counts read from the output rows."""
        return {}


class LinkBatched(Workload):
    name = "link-batched"
    why = (
        "one process, no runtime layer: the stacked receive DSP and the jammer "
        "and medium noise draws do all the work"
    )
    packets = 128

    def setup(self) -> None:
        from repro.scenario import Scenario

        scenario = Scenario.from_dict(
            {
                "name": "bench-link",
                "config": {"pattern": "parabolic", "payload_bytes": 8, "seed": LINK_KEY},
                "jammer": {"type": "noise", "bandwidth": 625000.0},
                "seed": derive(self.seed, "run"),
            }
        )
        self.link, self.jammer = scenario.build()
        self.run_seed = scenario.seed

    def run(self, workers: int | None = None) -> Pass:
        stats = self.link.run_packets_batched(
            self.packets,
            snr_db=15.0,
            sjr_db=-10.0,
            jammer=self.jammer,
            seed=self.run_seed,
            batch_size=64,
            cache=False,
        )
        return Pass(rows=[asdict(stats)], packets=stats.num_packets)

    def guard(self, first: Pass, counts: dict) -> list[str]:
        if counts.get("decide_batch", 0) > 0:
            return []
        return ["ControlLogic.decide_batch was never called"]


class Grid(Workload):
    """``run_scenario`` over 8 SNR x 8 SJR points of 2 packets each."""

    cached = False

    def setup(self) -> None:
        from repro.runtime import ResultCache
        from repro.scenario import Scenario

        self.scenario = Scenario.from_dict(
            {
                "name": "bench-grid",
                "config": {"pattern": "parabolic", "seed": LINK_KEY},
                "jammer": {"type": "noise", "bandwidth": 5e6},
                "grid": {"snr_db": GRID_SNR_DB, "sjr_db": GRID_SJR_DB},
                "packets": 2,
                "seed": derive(self.seed, "run"),
            }
        )
        self.cache = ResultCache(str(self.workdir / "cache")) if self.cached else False
        self.filled = self.run(0).rows if self.cached else None

    def run(self, workers: int | None = None) -> Pass:
        from repro.runtime import ParallelExecutor
        from repro.scenario import run_scenario

        result = run_scenario(
            self.scenario,
            executor=ParallelExecutor(self.workers if workers is None else workers),
            cache=self.cache,
            checkpoint=False,
        )
        return Pass(rows=result.rows, packets=result.timing.packets, timing=result.timing)


class GridSerial(Grid):
    name = "grid-serial"
    why = (
        "tiny points on one process, so per-point spec decode and link construction "
        "weigh; the serial base of grid-pool and grid-cache-warm"
    )


class GridPool(Grid):
    name = "grid-pool"
    why = (
        "the grid-serial input on a 2-worker pool: many small tasks, so fork, "
        "pickling and result transport weigh"
    )
    workers = POOL_WORKERS

    def reference(self) -> list | None:
        return self.run(0).rows


class GridCacheWarm(Grid):
    name = "grid-cache-warm"
    why = (
        "the grid-serial input served from a result cache filled during set-up: "
        "no DSP, only cache reads and spec rebuilds"
    )
    cached = True

    def guard(self, first: Pass, counts: dict) -> list[str]:
        gets = counts.get("cache.gets", 0)
        if gets and counts.get("cache.hits", 0) == gets:
            return []
        return [f"cache hit ratio {counts.get('cache.hits', 0)}/{gets}, expected all hits"]

    def reference(self) -> list | None:
        return self.filled


class SessionChaos(Workload):
    name = "session-chaos"
    why = (
        "the only protocol-layer workload: a session vs a follower jammer under injected "
        "desync and dropped handshakes, on the serial receive path"
    )

    def setup(self) -> None:
        from repro.protocol import SessionSpec
        from repro.runtime import FaultPlan

        with open(INPUTS / "session_chaos.json") as fh:
            self.spec = SessionSpec.from_dict(json.load(fh))
        attempt = 0
        while True:
            plan = (
                f"desync:{DESYNC_P},drop-handshake:{DROP_HANDSHAKE_P},"
                f"seed:{derive(self.seed, f'fault/{attempt}')}"
            )
            if fires_canonical_pattern(FaultPlan.parse(plan)):
                break
            attempt += 1
        # The only REPRO_* variable a workload sets: the runner reads its
        # protocol fault plan from the environment.
        os.environ["REPRO_FAULTS"] = plan

    def run(self, workers: int | None = None) -> Pass:
        from repro.protocol import run_session
        from repro.runtime import ParallelExecutor

        result = run_session(
            self.spec,
            executor=ParallelExecutor(self.workers if workers is None else workers),
            cache=False,
            checkpoint=False,
        )
        slots = sum(int(r["data_tx"] + r["handshake_tx"]) for r in result.rows)
        return Pass(rows=result.rows, packets=slots, timing=result.timing)

    def guard(self, first: Pass, counts: dict) -> list[str]:
        # At SJR -6 and -8 dB the follower also jams the rendezvous
        # channel, so a re-sync there may end in the degraded fallback;
        # every desync must still end in a re-sync or that fallback.
        problems = []
        rows = first.rows
        if sum(r["desync_count"] for r in rows) < 1:
            problems.append("no desync fired")
        if sum(r["resync_count"] for r in rows) < 1:
            problems.append("no re-sync happened")
        for r in rows:
            if r["desync_count"] != r["resync_count"] + r["degraded"]:
                problems.append(f"sjr {r['sjr_db']}: a desync was neither re-synced nor degraded")
        return problems

    def pass_counts(self, rows: list) -> dict[str, float]:
        data_tx = sum(r["data_tx"] for r in rows)
        accepted = sum(r["data_tx"] * (1.0 - r["data_per"]) for r in rows)
        return {
            "protocol.accept_ratio": accepted / data_tx if data_tx else 0.0,
            "protocol.desyncs": float(sum(r["desync_count"] for r in rows)),
            "protocol.resyncs": float(sum(r["resync_count"] for r in rows)),
        }


def fires_canonical_pattern(plan: Any) -> bool:
    """Whether ``plan`` fires exactly session-chaos's pinned fault pattern."""
    for epoch in range(FAULT_EPOCHS):
        if plan.should("desync", str(epoch)) != (epoch == 0):
            return False
    for epoch in range(FAULT_EPOCHS):
        for round_index in range(FAULT_ROUNDS):
            fired = plan.should("drop-handshake", str(epoch), str(round_index))
            if fired != ((epoch, round_index) == (1, 0)):
                return False
    return True


class NetworkJammed8(Workload):
    name = "network-jammed8"
    why = (
        "8 uneven links on a 2-worker pool: N-source superposition and cross-link "
        "interference, big tasks where the slowest link sets the wall time"
    )
    workers = POOL_WORKERS

    def setup(self) -> None:
        from repro.network import NetworkSpec

        with open(INPUTS / "network_jammed8.json") as fh:
            data = json.load(fh)
        for index, link in enumerate(data["links"]):
            link["seed"] = derive(self.seed, f"link/{index}")
        self.spec = NetworkSpec.from_dict(data)

    def run(self, workers: int | None = None) -> Pass:
        from repro.network import run_network
        from repro.runtime import ParallelExecutor

        result = run_network(
            self.spec,
            executor=ParallelExecutor(self.workers if workers is None else workers),
            cache=False,
            checkpoint=False,
        )
        return Pass(rows=result.records, packets=result.timing.packets, timing=result.timing)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (LinkBatched, GridSerial, GridPool, GridCacheWarm, SessionChaos, NetworkJammed8)
}
