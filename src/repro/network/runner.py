"""Spec-driven network execution over the parallel runtime.

:func:`run_network` fans a :class:`NetworkSpec`'s links out over the
:class:`~repro.runtime.executor.ParallelExecutor` through
:func:`~repro.runtime.grid.run_spec`, like every other spec kind: the
network's ``to_dict()`` is the payload and a task ships only its link
index, every worker rebuilds its simulator from the spec, results are
memoized per link under the canonical spec hash, and completed links
checkpoint incrementally so an interrupted run resumes bit-identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.link import LinkStats
from repro.network.metrics import jain_fairness
from repro.network.spec import NetworkSpec
from repro.runtime import (
    ParallelExecutor,
    ResultCache,
    SweepTiming,
    cached_record,
    run_spec,
)

if TYPE_CHECKING:
    from repro.analysis.sweep import SweepResult

__all__ = [
    "NETWORK_COLUMNS",
    "JAMMER_SWEEP_COLUMNS",
    "NetworkResult",
    "evaluate_network_link",
    "jammer_count_sweep",
    "run_network",
]

#: column order of a per-link network result table.
NETWORK_COLUMNS = ("link", "snr_db", "sjr_db", "per", "per_lo", "per_hi", "ber", "throughput_bps")

#: column order of the fairness-vs-jammer-count sweep.
JAMMER_SWEEP_COLUMNS = ("num_jammers", "network_throughput_bps", "fairness", "mean_per")


def evaluate_network_link(payload: dict, index: int) -> dict:
    """Evaluate one link of a network spec.

    This is the spec-grid runner :func:`run_network` maps: ``payload`` is
    plain data — ``{"network": NetworkSpec.to_dict(), "cache": None |
    False | <root path>}`` — and the simulator is rebuilt from it, so the
    call is a pure function of its arguments with no fork-inherited
    state.  Per-link results are memoized under the canonical network
    spec hash; unlike the single-link batch cache this needs no
    statefulness guard, because each call rebuilds its jammer from the
    spec and walks the packets in order.  The record carries the raw
    :class:`LinkStats` counters under ``"stats"``, so callers (and the
    equivalence wall) can rebuild the exact stats from a record or cache
    entry.
    """
    from repro.network.simulator import NetworkSimulator

    spec = NetworkSpec.from_dict(payload["network"])
    index = int(index)

    def compute() -> dict:
        stats = NetworkSimulator(spec).run_link(index)
        link = spec.links[index]
        return {
            "link": link.name,
            "snr_db": float(link.snr_db),
            "sjr_db": float(link.sjr_db),
            **stats.row(),
            "stats": asdict(stats),
        }

    key = {"kind": "NetworkSimulator.run_link", "network": spec.to_dict(), "link": index}
    return cached_record(payload.get("cache"), key, compute)


@dataclass
class NetworkResult:
    """Per-link records plus the network-level aggregates.

    ``records`` holds one :func:`evaluate_network_link` record per link,
    in link order; ``timing`` carries the fan-out telemetry (it does not
    participate in equality).
    """

    spec: NetworkSpec
    records: list[dict] = field(default_factory=list)
    timing: SweepTiming | None = field(default=None, repr=False, compare=False)

    def link_stats(self, name: str) -> LinkStats:
        """Reconstruct the exact :class:`LinkStats` of link ``name``."""
        for record in self.records:
            if record["link"] == name:
                return LinkStats(**record["stats"])
        raise KeyError(f"no link named {name!r} in this result")

    @property
    def throughputs_bps(self) -> list[float]:
        """Per-link goodput, in link order."""
        return [float(r["throughput_bps"]) for r in self.records]

    @property
    def network_throughput_bps(self) -> float:
        """Summed goodput of every link."""
        return float(sum(self.throughputs_bps))

    @property
    def fairness(self) -> float:
        """Jain fairness index over the per-link goodputs."""
        return jain_fairness(self.throughputs_bps)

    def aggregates(self) -> dict:
        """The network-level summary row."""
        n = len(self.records)
        return {
            "num_links": n,
            "num_jammers": self.spec.num_jammers,
            "network_throughput_bps": self.network_throughput_bps,
            "fairness": self.fairness,
            "mean_per": float(sum(r["per"] for r in self.records)) / n,
            "mean_ber": float(sum(r["ber"] for r in self.records)) / n,
        }

    def to_sweep_result(self) -> "SweepResult":
        """The per-link table as a tidy :class:`SweepResult`."""
        from repro.analysis.sweep import SweepResult

        return SweepResult.from_records(NETWORK_COLUMNS, self.records, self.timing)


def run_network(
    spec: NetworkSpec,
    *,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "str | bool | None" = None,
) -> NetworkResult:
    """Evaluate every link of a network into a :class:`NetworkResult`.

    ``executor`` defaults to the ``REPRO_WORKERS``-configured pool
    (serial when unset); links are merged in link order either way, and a
    parallel run is bit-identical to a serial one.  ``cache`` and
    ``checkpoint`` follow the :func:`repro.scenario.runner.run_scenario`
    conventions (``REPRO_CACHE`` / ``REPRO_CHECKPOINT`` when ``None``,
    ``False`` forces off); completed links are persisted incrementally
    under the network's canonical spec hash, so a rerun of the *same*
    network recomputes only unfinished links.
    """
    records, timing = run_spec(
        evaluate_network_link, spec, range(spec.num_links), packets=spec.packets,
        executor=executor, cache=cache, checkpoint=checkpoint,
    )
    return NetworkResult(spec=spec, records=records, timing=timing)


def jammer_count_sweep(
    spec: NetworkSpec,
    counts: Sequence[int] | None = None,
    *,
    executor: ParallelExecutor | None = None,
    cache: "ResultCache | str | bool | None" = None,
    checkpoint: "str | bool | None" = None,
) -> "SweepResult":
    """Network throughput and Jain fairness vs the number of active jammers.

    For each ``count`` (default ``0..num_jammers``) the spec's first
    ``count`` jammed links keep their jammer and the rest are silenced
    (:meth:`NetworkSpec.with_active_jammers`); everything else — seeds,
    coupling, operating points — is held fixed, so the sweep isolates
    the jammer population's effect on the aggregate network.
    """
    from repro.analysis.sweep import SweepResult

    if counts is None:
        counts = list(range(spec.num_jammers + 1))
    result = SweepResult(columns=JAMMER_SWEEP_COLUMNS)
    for count in counts:
        derived = spec.with_active_jammers(int(count))
        net = run_network(derived, executor=executor, cache=cache, checkpoint=checkpoint)
        agg = net.aggregates()
        result.add(
            num_jammers=int(count),
            network_throughput_bps=agg["network_throughput_bps"],
            fairness=agg["fairness"],
            mean_per=agg["mean_per"],
        )
    return result
