"""Microbenchmark: batched COLLECT/repair calls vs per-point loops.

COLLECT and anchor repair issue one ``insert_many`` / ``delete_many`` /
``ball_many_pids`` call per stride instead of one Python-level index call per
point. Whether that pays depends entirely on the backend: the vectorized
grid amortises distance evaluations across centers in numpy, the R-tree can
STR-pack a prefill batch, while backends without overrides run the exact
generic loop the old per-point code ran (so for them the refactor must be a
wash).

This bench measures both arms on the same workload: the backend as
registered (batched overrides active) against the same backend behind
``LoopedView``, a forwarding wrapper that hides every ``*_many`` override so
the generic per-point fallbacks run. Epoch probing is off in both arms so
the comparison isolates the batched layer from probing-path differences.
Results land in benchmarks/results/batched_collect.txt and are discussed in
EXPERIMENTS.md.
"""

from _workloads import dataset_stream, scaled, spec_for, stream_length

from repro.bench.harness import measure_method
from repro.bench.reporting import Table, write_result
from repro.core.disc import DISC
from repro.datasets.registry import DATASETS
from repro.index.base import NeighborIndex
from repro.index.registry import available_indexes, make_index


class LoopedView(NeighborIndex):
    """Forwarding wrapper hiding a backend's batched-query overrides.

    Only the abstract primitives forward to the wrapped backend; the
    ``*_many`` methods resolve to the generic per-point fallbacks of
    :class:`NeighborIndex`, reproducing the pre-batching call pattern.
    """

    def __init__(self, inner: NeighborIndex) -> None:
        self.inner = inner

    @property
    def stats(self):
        return self.inner.stats

    def insert(self, pid, coords):
        self.inner.insert(pid, coords)

    def delete(self, pid):
        self.inner.delete(pid)

    def ball(self, center, radius):
        return self.inner.ball(center, radius)

    def coords_of(self, pid):
        return self.inner.coords_of(pid)

    def items(self):
        return self.inner.items()

    def __len__(self):
        return len(self.inner)

    def __contains__(self, pid):
        return pid in self.inner


def run_batched_collect():
    backends = available_indexes()
    table = Table(
        "Microbench: per-stride latency, batched *_many vs per-point loops "
        "(5% stride, epoch probing off in both arms)",
        ["Dataset", "Backend", "batched ms", "looped ms", "speedup"],
    )
    shape = {}
    for key in ("dtg", "geolife"):
        info = DATASETS[key]
        window = scaled(info.window)
        spec = spec_for(window, 0.05)
        points = list(dataset_stream(key, stream_length(spec, 10)))
        for backend in backends:
            arms = {}
            for arm in ("batched", "looped"):
                index = make_index(backend, eps=info.eps)
                if arm == "looped":
                    index = LoopedView(index)
                method = DISC(
                    info.eps, info.tau, index=index, epoch_probing=False
                )
                result = measure_method(method, points, spec, n_measured=8)
                arms[arm] = result["mean_stride_s"] * 1000
            shape[(key, backend)] = arms
            table.add(
                info.name,
                backend,
                f"{arms['batched']:.1f}",
                f"{arms['looped']:.1f}",
                f"{arms['looped'] / arms['batched']:.2f}x",
            )
    return table, shape


def test_batched_collect(benchmark):
    table, shape = benchmark.pedantic(run_batched_collect, rounds=1, iterations=1)
    write_result("batched_collect", table.to_text())
    for (key, backend), arms in shape.items():
        # Backends without overrides run the identical generic loop in both
        # arms, so the only hard assertion everywhere is "batching never
        # costs much"; the vectorized grid is expected to actually win, but
        # wall-clock noise on shared runners makes a hard win assertion
        # flaky, so the measured ratio is recorded in the table instead.
        assert arms["batched"] < arms["looped"] * 1.35, (
            f"{key}/{backend}: batched COLLECT unexpectedly slower "
            f"({arms['batched']:.1f}ms vs {arms['looped']:.1f}ms)"
        )
