//! # sbrp-lint
//!
//! Static persistency linter for [`sbrp-isa`] kernels — Layer 1 of the
//! persistency sanitizer (Layer 2 is the online PMO checker behind
//! `GpuConfig::sanitize` in `sbrp-gpu-sim`).
//!
//! The linter abstractly interprets a kernel's structured statement tree
//! (parameters — and therefore pointer bases and PM-ness — are concrete
//! at build time) and reports typed, located diagnostics:
//!
//! | code | severity | rule |
//! |------|----------|------|
//! | P001 | error    | dependent persistent stores with no ordering point between them |
//! | P002 | error    | release/acquire pair whose effective scope is narrower than the launch needs (§5.3) |
//! | P003 | warning  | `pRel`/`pAcq` with no matching counterpart in the kernel |
//! | P004 | perf     | back-to-back fences with no persist in between |
//! | P005 | perf     | `dFence` inside a loop body |
//! | P006 | perf     | persistent store with no reachable fence before kernel exit |
//! | P007 | error    | cross-thread conflicting persists with no synchronizing chain ([`interthread`]) |
//! | P008 | error    | chain present but its effective scope excludes the racing pair (§5.3) |
//! | P009 | error    | execution-ordered pair whose durable outcome depends on drain order |
//! | P010 | error    | unsynchronized cross-thread read of a persist, republished durably |
//! | P011 | perf     | fence dominated by an adjacent stronger fence (machine-applicable fix) |
//! | P012 | perf     | release/acquire scope wider than any pair it orders (fix narrows it) |
//!
//! Every rule reads one symbolic walk of the kernel. The walk keeps
//! each register's affine form in the thread coordinates, base object,
//! PM-ness, block dependence and memory-read provenance. It forks and joins one thread's
//! epoch state at branches, which gives the intra-thread rules
//! P001–P006 ([`lint_kernel`]). It also records guarded persist, fence
//! and sync events, from which the whole-kernel inter-thread rules
//! P007–P012 pair up sampled threads ([`interthread_kernel`]).
//! [`lint_all`] runs both off a single walk. Error-severity
//! inter-thread findings carry a [`Hazard`] the `sbrp-mc` model checker
//! searches for as a witness, and perf findings carry machine-applicable
//! [`Fix`]es ([`apply_fix`]).
//!
//! ```
//! use sbrp_isa::{KernelBuilder, MemWidth};
//! use sbrp_lint::{lint_kernel, LintCode, LintConfig};
//!
//! // st log; st data — missing the oFence in between.
//! let mut b = KernelBuilder::new();
//! let log = b.param(0);
//! let data = b.param(1);
//! let src = b.param(2);
//! let v = b.ld(src, 0, MemWidth::W8);
//! b.st(log, 0, v, MemWidth::W8);
//! b.st(data, 0, v, MemWidth::W8);
//! b.dfence();
//! b.set_params(vec![1 << 40, (1 << 40) + 4096, 0x1000]);
//! let k = b.build("wal_broken");
//!
//! let report = lint_kernel(&k, &LintConfig::default());
//! assert!(report.has(LintCode::UnorderedPersists));
//! assert_eq!(report.errors(), 1);
//! ```
//!
//! [`sbrp-isa`]: sbrp_isa

#![deny(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions, clippy::missing_panics_doc)]
// Locations and lane/thread indices are bounded far below u32; the
// abstract interpreter's usize→u32 narrowing cannot truncate.
#![allow(clippy::cast_possible_truncation)]
// Abstract-interpreter and kernel-builder code names registers and
// operands `d`/`a`/`b`/`x`/`y` after the IR they manipulate; short,
// systematically similar names are the local idiom.
#![allow(clippy::similar_names, clippy::many_single_char_names)]

mod diag;
pub mod interthread;
mod lint;
pub mod mutants;
mod walk;

pub use diag::{sarif, Diagnostic, Edit, Fix, Hazard, LintCode, LintReport, Severity};
pub use interthread::{apply_fix, interthread_kernel, lint_all};
pub use lint::{lint_kernel, LintConfig};
