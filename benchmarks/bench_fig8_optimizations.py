"""Figure 8 — effects of the MS-BFS and epoch-based probing optimizations.

Runs DISC four ways on every dataset (neither optimization, epoch-only,
MS-BFS-only, both), stride fixed at 5% of the window. Paper shape: each
technique helps on its own; both together are best; MS-BFS tends to be the
stronger of the two. Exactness is unaffected (covered by the test suite);
here we compare elapsed time and index work. Every arm's split checks run
behind the seed certificate, which settles a check whose seeds are
eps-adjacent among themselves before either knob matters; the report gives
the share of checks it settled in each arm.
"""

from _workloads import DATASET_KEYS, dataset_stream, scaled, spec_for, stream_length

from repro.bench.harness import measure_method
from repro.bench.reporting import Table, write_result
from repro.core.disc import DISC
from repro.datasets.registry import DATASETS

CONFIGS = (
    ("neither", False, False),
    ("epoch only", False, True),
    ("MS-BFS only", True, False),
    ("both", True, True),
)


def run_figure8():
    table = Table(
        "Figure 8: DISC optimization ablation (per-stride ms, stride = 5%)",
        ["Dataset", *(name for name, _, _ in CONFIGS)],
    )
    shape = {}
    certified = {}
    for key in DATASET_KEYS:
        info = DATASETS[key]
        window = scaled(info.window)
        spec = spec_for(window, 0.05)
        points = list(dataset_stream(key, stream_length(spec, 12)))
        row = {}
        for name, multi_starter, epoch_probing in CONFIGS:
            method = DISC(
                info.eps,
                info.tau,
                multi_starter=multi_starter,
                epoch_probing=epoch_probing,
            )
            result = measure_method(method, points, spec)
            row[name] = result["mean_stride_s"] * 1000
            counters = result["counters"]
            certified[key, name] = (
                counters["certified_checks"],
                counters["connectivity_checks"],
            )
        shape[key] = row
        table.add(info.name, *(f"{row[name]:.1f}" for name, _, _ in CONFIGS))
    return table, shape, certified


def test_fig8_optimizations(benchmark):
    table, shape, certified = benchmark.pedantic(
        run_figure8, rounds=1, iterations=1
    )
    lines = [table.to_text(), ""]
    for key, row in shape.items():
        lines.append(
            f"paper-shape {key}: both={row['both']:.1f}ms vs "
            f"neither={row['neither']:.1f}ms "
            f"({row['neither'] / row['both']:.2f}x)"
        )
    lines.append("")
    for key in shape:
        lines.append(
            f"seed certificate {key}: "
            + ", ".join(
                f"{name} {done}/{checks}"
                for (k, name), (done, checks) in certified.items()
                if k == key
            )
            + " checks settled with no search"
        )
    write_result("fig8_optimizations", "\n".join(lines))
    for key, row in shape.items():
        # The fully optimized configuration must not clearly lose to the
        # unoptimized one; single-round wall timing is noisy on the easy
        # datasets, so allow per-dataset slack and pin the stable aggregate.
        assert row["both"] <= row["neither"] * 1.30, (
            f"{key}: optimizations slowed DISC down "
            f"({row['both']:.1f}ms vs {row['neither']:.1f}ms)"
        )
    total_both = sum(row["both"] for row in shape.values())
    total_neither = sum(row["neither"] for row in shape.values())
    assert total_both <= total_neither * 1.05, (
        f"optimizations slowed DISC down in aggregate "
        f"({total_both:.1f}ms vs {total_neither:.1f}ms)"
    )
