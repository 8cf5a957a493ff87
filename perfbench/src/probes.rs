//! Layer probes: fixed op streams timed directly against one layer's
//! public functions (the patterns of the old `crates/bench/benches`
//! microbenches, with a fixed work unit each). They run only in the
//! traced run and report the median nanoseconds per operation.

use sbrp_core::formal::{PmoGraph, TraceBuilder};
use sbrp_core::ops::PersistOpKind;
use sbrp_core::pbuffer::{DrainAction, DrainPolicy, LineIdx, PbConfig, PersistUnit};
use sbrp_core::scope::{Scope, ThreadPos, WarpSlot};
use sbrp_core::ModelKind;
use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
use sbrp_gpu_sim::mem::{Backing, Cache, Channel, MemSubsystem, PersistDest, ReqTag};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each probe repeats its op stream.
const PROBE_TIME: Duration = Duration::from_millis(60);
const MIN_REPS: usize = 5;

/// Repeats `f` (which returns the number of operations it made) for
/// [`PROBE_TIME`] and returns the median nanoseconds per operation.
fn probe(mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < MIN_REPS || start.elapsed() < PROBE_TIME {
        let t = Instant::now();
        let ops = black_box(f());
        per_op.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    crate::median(&mut per_op)
}

/// Every probe, by catalog name.
#[must_use]
pub fn all() -> Vec<(&'static str, f64)> {
    vec![
        ("core.pbuffer.probe_ns_per_op", probe(pbuffer_ops)),
        ("sim.mem.cache.probe_ns_per_lookup", probe(cache_lookups)),
        (
            "sim.mem.channel.probe_ns_per_access",
            probe(channel_accesses),
        ),
        (
            "sim.mem.subsystem.probe_ns_per_flush",
            probe(subsystem_flushes),
        ),
        ("sim.mem.backing.probe_ns_per_line", probe(backing_lines)),
        ("core.formal.probe_ns_per_event", probe(formal_events)),
    ]
}

/// Ticks and acknowledges until the unit is empty; returns calls made.
fn drain_and_ack(unit: &mut PersistUnit) -> u64 {
    let mut ops = 0;
    loop {
        let actions = unit.tick(64);
        ops += 1;
        if actions.is_empty() && unit.outstanding() == 0 {
            return ops;
        }
        for DrainAction::Flush { line, .. } in actions {
            unit.ack_persist(line);
            ops += 1;
        }
    }
}

/// Ticks and acknowledges until `warp` may issue again: a blocked warp
/// must wait for the unit to resume it. Returns the calls made.
fn wait_for(unit: &mut PersistUnit, warp: WarpSlot) -> u64 {
    let mut ops = 0;
    while unit.is_blocked(warp) {
        ops += tick_and_ack(unit);
        assert!(ops < 1_000_000, "{warp} never resumes");
    }
    ops
}

fn tick_and_ack(unit: &mut PersistUnit) -> u64 {
    let mut ops = 1;
    for DrainAction::Flush { line, .. } in unit.tick(64) {
        unit.ack_persist(line);
        ops += 1;
    }
    let _ = unit.take_resumable();
    ops
}

/// Coalescing stores, then an oFence per store, then a pRel/pAcq chain:
/// `PersistUnit` calls, counted one op each.
fn pbuffer_ops() -> u64 {
    let mut ops = 0;
    let mut unit = PersistUnit::new(PbConfig::default());
    for i in 0..1024u32 {
        let w = WarpSlot::new((i % 32) as usize);
        ops += wait_for(&mut unit, w) + 1;
        let _ = unit.persist_store(w, LineIdx(i % 64));
    }
    unit.set_drain_all(true);
    ops += drain_and_ack(&mut unit);

    let mut unit = PersistUnit::new(PbConfig {
        capacity: 512,
        policy: DrainPolicy::Eager,
        ..PbConfig::default()
    });
    for i in 0..256u32 {
        let w = WarpSlot::new((i % 32) as usize);
        ops += wait_for(&mut unit, w);
        let _ = unit.persist_store(w, LineIdx(i));
        ops += wait_for(&mut unit, w);
        let _ = unit.ofence(w);
        ops += 2 + tick_and_ack(&mut unit);
    }
    ops += drain_and_ack(&mut unit);

    let mut unit = PersistUnit::new(PbConfig::default());
    for i in 0..128u32 {
        let rel = WarpSlot::new((i % 16) as usize);
        let acq = WarpSlot::new(16 + (i % 16) as usize);
        ops += wait_for(&mut unit, rel);
        let _ = unit.persist_store(rel, LineIdx(i));
        ops += wait_for(&mut unit, rel);
        let _ = unit.prel(rel, Scope::Block);
        ops += wait_for(&mut unit, acq);
        let _ = unit.pacq(acq, Scope::Block);
        ops += wait_for(&mut unit, acq);
        let _ = unit.persist_store(acq, LineIdx(256 + i));
        ops += 4 + tick_and_ack(&mut unit);
    }
    ops + drain_and_ack(&mut unit)
}

/// 4096 lookups over a 256 KB stream in a 64 KB cache, installing on
/// every miss.
fn cache_lookups() -> u64 {
    let mut cache = Cache::new(64 * 1024, 4, 128);
    for i in 0..4096u64 {
        let addr = (i * 128) % (256 * 1024);
        if cache.lookup(addr).is_none() {
            let (way, _) = cache.choose_victim(addr);
            cache.install(way, addr, i % 3 == 0, false);
        }
    }
    black_box(cache.stats());
    4096
}

/// 10 000 back-to-back accesses queueing on one bandwidth-limited
/// channel.
fn channel_accesses() -> u64 {
    let mut ch = Channel::new(30.0, 400);
    let mut last = 0;
    for i in 0..10_000u64 {
        last = ch.access(i * 2, 128).1;
    }
    black_box(last);
    10_000
}

/// 1024 persist flushes through the PM-near memory subsystem, polled
/// until every one is acknowledged.
fn subsystem_flushes() -> u64 {
    let cfg = GpuConfig::table1(ModelKind::Sbrp, SystemDesign::PmNear);
    let mut ms = MemSubsystem::new(&cfg);
    for i in 0..1024u64 {
        ms.submit_persist_flush(
            i,
            PM_BASE + i * 128,
            vec![(PM_BASE + i * 128, vec![0u8; 128])],
            PersistDest::Detached,
            vec![],
        );
    }
    let mut acks = 0u64;
    while let Some(at) = ms.next_event() {
        for cpl in ms.poll(at) {
            if let ReqTag::PersistAck { ack_id } = cpl.tag {
                let _ = ms.take_persist_dest(ack_id);
                acks += 1;
            }
        }
    }
    assert_eq!(acks, 1024, "every flush is acknowledged");
    acks
}

/// 4096 whole 128 B lines written and read back (the recovery-image
/// copy pattern).
fn backing_lines() -> u64 {
    let mut b = Backing::new();
    let line = [0xA5u8; 128];
    for i in 0..4096u64 {
        b.write_bytes(PM_BASE + i * 128, &line);
    }
    let mut sum = 0u64;
    for i in 0..4096u64 {
        sum += u64::from(b.read_bytes(PM_BASE + i * 128, 128)[127]);
    }
    black_box(sum);
    4096
}

/// A release/acquire chain over 64 threads of 16 persists each, built
/// with `TraceBuilder` and checked against a crash cut; counts events.
fn formal_events() -> u64 {
    let (graph, events) = build_chain(64, 16);
    let durable: HashSet<_> = graph.persists().take(64 * 8).collect();
    black_box(graph.check_crash_cut(&durable).is_ok());
    events
}

fn build_chain(threads: u32, per_thread: u32) -> (PmoGraph, u64) {
    let mut tb = TraceBuilder::new();
    let mut last_rel = None;
    let mut events = 0;
    for t in 0..threads {
        let th = ThreadPos::new(0u32, t);
        let acq = tb.op(th, PersistOpKind::PAcq(Scope::Block), Some(0x80));
        if let Some(rel) = last_rel {
            tb.observe(acq, rel);
        }
        for i in 0..per_thread {
            tb.persist(th, 0x1000 + u64::from(t) * 0x100 + u64::from(i) * 8);
            events += 1;
            if i % 4 == 3 {
                tb.op(th, PersistOpKind::OFence, None);
                events += 1;
            }
        }
        last_rel = Some(tb.op(th, PersistOpKind::PRel(Scope::Block), Some(0x80)));
        events += 2;
    }
    (tb.finish(), events)
}
