"""Show how the sliding-window query keeps a node looking occupied after its
pod is gone.

The store answers "how full is this node" with the sum over pods of each
pod's maximum sample inside the window, for every metric in one query.  A pod that stopped reporting still
contributes its last peaks until they age out, so capacity frees up one
window-length after the pod finishes, not at the instant it does.
"""

from epcsched import METRIC_EPC_PAGES, MetricSample, SeriesStore, WindowQuery

WINDOW_MS = 25_000

store = SeriesStore()
# pod "enc" runs from t=5s to t=20s, probed every 5s at 900 pages
for t_ms in range(5_000, 20_001, 5_000):
    store.append(MetricSample(t_ms, "sgx-1", "enc", METRIC_EPC_PAGES, 900))

print(f"window = {WINDOW_MS} ms, pod last sampled at t=20000 ms\n")
print(f"{'now ms':>8}  {'measured pages on sgx-1':>24}")
for now in range(20_000, 50_001, 5_000):
    usage = store.per_node_usage(WindowQuery(now, WINDOW_MS))
    pages = usage.get(METRIC_EPC_PAGES, {}).get("sgx-1", 0)
    note = "  <- finally clear" if pages == 0 else ""
    print(f"{now:>8}  {pages:>24}{note}")

print("\nThe node reads as full through t=45000 even though the pod stopped")
print("at t=20000.  Schedulers built on this store inherit that caution.")
