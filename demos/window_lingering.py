"""Show how the sliding-window query keeps a node looking occupied after its
pod is gone.

The scheduler reads a node's usage as the sum over pods of each pod's
maximum sample inside the window.  A pod that stopped reporting still
contributes its last peak until that sample ages out, so its pages free up
for admission one window-length after its last sample, not when it finishes.

Two enclave jobs share one node: `first` holds just over half the usable
pages for 20 s, and `second`, which asks for the other half, waits for it.
"""

from epcsched import EpcModel, JobKind, JobSpec, NodeSpec, SimConfig, run

PAGE = 4096
USABLE = EpcModel().usable_pages
config = SimConfig()


def enclave_job(job_id, submit_ms, duration_ms, pages):
    return JobSpec(job_id, JobKind.SGX, submit_ms, duration_ms, PAGE,
                   pages * PAGE, pages, pages)


jobs = [enclave_job("first", 0, 20_000, USABLE // 2 + 1),
        enclave_job("second", 1, 10_000, USABLE // 2)]
result = run(jobs, [NodeSpec("sgx-1", 8 * 1024 ** 3, EpcModel())], config)
by_id = {o.job_id: o for o in result.outcomes}
first, second = by_id["first"], by_id["second"]
last_sample = max(s.time_ms for s in result.store.samples()
                  if s.pod_id == "first")

print(f"{USABLE} usable pages; window {config.window_ms} ms, "
      f"probes every {config.probe_period_ms} ms, "
      f"ticks every {config.scheduler_period_ms} ms\n")
print(f"first:  {first.declared_pages} pages, placed at {first.started_ms} ms, "
      f"finished at {first.finished_ms} ms, last sampled at {last_sample} ms")
print(f"second: {second.declared_pages} pages, submitted at "
      f"{second.submitted_ms} ms, placed at {second.started_ms} ms")
print(f"\nThe node's reservations are free at {first.finished_ms} ms, but its "
      f"measured usage\nholds first's pages through "
      f"{last_sample + config.window_ms} ms, while its last sample is in the "
      f"window;\nsecond starts at the first tick after that.")
