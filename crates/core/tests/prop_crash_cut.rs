//! Property test: checking a crash cut on the trace as it is being
//! recorded (`TraceBuilder::check_crash_cut`, which borrows it) gives
//! exactly the result of finishing the trace first
//! (`PmoGraph::check_crash_cut`): the same `Ok`, or the same violating
//! pair and message — at every prefix of random traces.

use proptest::prelude::*;
use sbrp_core::formal::{EventId, TraceBuilder};
use sbrp_core::ops::PersistOpKind;
use sbrp_core::scope::{Scope, ThreadPos};
use std::collections::HashSet;

const SCOPES: [Scope; 3] = [Scope::Block, Scope::Device, Scope::System];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn borrowed_and_finished_crash_cuts_agree(
        // (what, block, thread, scope, flag)
        ops in proptest::collection::vec((0u8..8, 0u32..2, 0u32..3, 0usize..3, 0u64..2), 1..60),
        durable_bits in proptest::collection::vec(0u8..4, 60..61),
    ) {
        let mut tb = TraceBuilder::new();
        // Last release per flag, for acquires to observe.
        let mut releases: [Option<EventId>; 2] = [None, None];
        let mut persists: Vec<EventId> = Vec::new();
        for (step, &(what, block, tid, scope, flag)) in ops.iter().enumerate() {
            let t = ThreadPos::new(block, tid * 32);
            let scope = SCOPES[scope];
            let var = 0x1000 + flag * 4;
            match what {
                // Persists are the most common event.
                0..=2 => persists.push(tb.persist(t, 0x8000 + step as u64 * 8)),
                3 => {
                    tb.op(t, PersistOpKind::OFence, None);
                }
                4 => {
                    tb.op(t, PersistOpKind::DFence, None);
                }
                5 => {
                    releases[flag as usize] = Some(tb.op(t, PersistOpKind::PRel(scope), Some(var)));
                }
                6 => {
                    let acq = tb.op(t, PersistOpKind::PAcq(scope), Some(var));
                    if let Some(rel) = releases[flag as usize] {
                        tb.observe(acq, rel);
                    }
                }
                _ => {
                    tb.op(t, PersistOpKind::EpochBarrier, None);
                }
            }
            // A durable set that keeps a random three quarters of the
            // persists so far: downward-closed or not, as it happens.
            let durable: HashSet<EventId> = persists
                .iter()
                .enumerate()
                .filter(|&(i, _)| durable_bits[i] != 0)
                .map(|(_, &p)| p)
                .collect();
            let borrowed = tb.check_crash_cut(&durable);
            let finished = tb.clone().finish().check_crash_cut(&durable);
            prop_assert_eq!(borrowed, finished);
        }
    }
}
