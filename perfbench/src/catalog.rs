//! Names and units of everything the benchmark reports. `BENCHMARK.json`
//! at the repository root lists the same names and units; a self-test
//! keeps the two in step.

/// Workload names, in the order the doc describes them.
pub const WORKLOADS: [&str; 4] = ["sim-persist", "sim-compute", "serve", "verify"];

/// End-to-end metrics (host time, measured with tracing off), printed
/// by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not reach reads 0 on it.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("host.calib_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("workloads.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("harness.serve.self_ms", "ms"),
    ("mc.self_ms", "ms"),
    ("lint.self_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("sim.setup_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("workloads.verify_ms", "ms"),
    ("sim.ns_per_warp_instr", "ns"),
    ("sim.ns_per_pb_store", "ns"),
    ("isa.warp_instr", "count"),
    ("isa.ipc", "instr/cycle"),
    ("core.pbuffer.stores", "count"),
    ("core.pbuffer.coalesce_ratio", "ratio"),
    ("core.pbuffer.flushes", "count"),
    ("core.pbuffer.acks", "count"),
    ("core.pbuffer.stall_full", "count"),
    ("core.pbuffer.stall_ordered", "count"),
    ("sim.l1.accesses", "count"),
    ("sim.l1.hit_ratio", "ratio"),
    ("sim.l1.pm_read_miss_ratio", "ratio"),
    ("sim.mem.wpq_accepts", "count"),
    ("sim.mem.pcie_bytes", "bytes"),
    ("sim.mem.nvm_write_bytes", "bytes"),
    ("sim.mem.volatile_writebacks", "count"),
    ("sim.stall.ofence_cycles", "cycles"),
    ("sim.stall.dfence_cycles", "cycles"),
    ("sim.stall.pacqrel_cycles", "cycles"),
    ("sim.stall.l1miss_cycles", "cycles"),
    ("sim.stall.pbfull_cycles", "cycles"),
    ("sim.stall.pbordered_cycles", "cycles"),
    ("sim.stall.wpq_cycles", "cycles"),
    ("sim.stall.pcie_backoff_cycles", "cycles"),
    ("sim.stall.scoreboard_cycles", "cycles"),
    ("sim.stall.total_cycles", "cycles"),
    ("core.pbuffer.probe_ns_per_op", "ns"),
    ("sim.mem.cache.probe_ns_per_lookup", "ns"),
    ("sim.mem.channel.probe_ns_per_access", "ns"),
    ("sim.mem.subsystem.probe_ns_per_flush", "ns"),
    ("sim.mem.backing.probe_ns_per_line", "ns"),
    ("core.formal.probe_ns_per_event", "ns"),
    ("harness.serve.trace_gen_ms", "ms"),
    ("harness.serve.run_ms", "ms"),
    ("harness.serve.batches", "count"),
    ("harness.serve.req_per_batch", "count"),
    ("harness.serve.us_per_batch", "us"),
    ("harness.serve.rejected", "count"),
    ("harness.serve.replayed", "count"),
    ("harness.serve.recovery_cycles", "cycles"),
    ("mc.explore_ms", "ms"),
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.dedup_ratio", "ratio"),
    ("lint.ms_per_kernel", "ms"),
    ("lint.diagnostics", "count"),
    ("model.sim_cycles", "cycles"),
    ("model.sbrp_speedup", "x"),
    ("model.sbrp_speedup_far", "x"),
    ("model.sbrp_speedup_near", "x"),
    ("model.serve_p50_cycles", "cycles"),
    ("model.serve_p99_cycles", "cycles"),
    ("model.serve_samples", "count"),
    ("model.serve_max_rate", "req/kcycle"),
    ("model.serve_max_rate_gpm", "req/kcycle"),
];

/// The unit of a catalog metric.
#[must_use]
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}
