//! # sbrp-gpu-sim
//!
//! A from-scratch, cycle-level GPU timing simulator purpose-built to
//! evaluate GPU persistency models — the reproduction's stand-in for the
//! paper's GPGPU-Sim 4.0 setup.
//!
//! ## What is modelled
//!
//! * **SMs** running warps of the [`sbrp_isa`] ISA in lockstep, with a
//!   loose round-robin scheduler issuing several warps per cycle, SIMT
//!   divergence, block-wide barriers, and block dispatch across SMs.
//! * **Per-SM L1 caches** (non-coherent, as on real GPUs) and a shared
//!   L2, both set-associative with LRU. Caches are *tag-only*: timing and
//!   residency are modelled precisely, while values live in a functional
//!   backing store. Flushes snapshot the line's bytes at flush time and a
//!   separate **durable NVM image** is updated only when the persistence
//!   domain acknowledges the write — so crash states are exact even
//!   though data does not travel through the cache model.
//! * **Memory devices** behind latency+bandwidth channels: GDDR, NVM
//!   (split read/write bandwidth), and the PCIe link of the PM-far
//!   design (§3). ADR means a persist is durable when the memory
//!   controller accepts it; eADR (Fig. 9) moves the durability point to
//!   the host LLC.
//! * **Persistency engines** per model: the SBRP persist buffer
//!   ([`sbrp_core::pbuffer`]) or the unbuffered epoch engine
//!   ([`sbrp_core::epoch`]) for the GPM/Epoch baselines.
//! * **Crash injection**: stop at any cycle, extract the durable image,
//!   and boot a fresh GPU on it to run recovery kernels.
//! * **Persist tracing** for the formal PMO checker of `sbrp-core`.
//!
//! ## Example
//!
//! ```
//! use sbrp_gpu_sim::config::{GpuConfig, SystemDesign, PM_BASE};
//! use sbrp_gpu_sim::Gpu;
//! use sbrp_core::ModelKind;
//! use sbrp_isa::{KernelBuilder, LaunchConfig, MemWidth, Special};
//!
//! // Persist tid into pArr[tid], with an oFence ordering a log write first.
//! let mut b = KernelBuilder::new();
//! let arr = b.param(0);
//! let tid = b.special(Special::GlobalTid);
//! let off = b.muli(tid, 8);
//! let addr = b.add(arr, off);
//! b.st(addr, 0, tid, MemWidth::W8);
//! b.ofence();
//! b.st(addr, 4096, tid, MemWidth::W8);
//! let mut kernel = b.build("quick");
//! kernel = kernel.with_params(vec![PM_BASE]);
//!
//! let cfg = GpuConfig::table1(ModelKind::Sbrp, SystemDesign::PmNear);
//! let mut gpu = Gpu::new(&cfg);
//! gpu.launch(&kernel, LaunchConfig::new(2, 64));
//! let report = gpu.run(1_000_000).expect("kernel finishes");
//! assert!(report.cycles > 0);
//! assert_eq!(gpu.read_nvm_u64(PM_BASE + 8 * 8), 8);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod crash;
pub mod fault;
mod gpu;
pub mod mem;
pub mod pmem;
mod sm;
pub mod stats;
pub mod timeline;
pub mod trace;

pub use gpu::{Gpu, RunOutcome, RunReport, SimError, StepCounts};
pub use sm::SmCounters;
pub use timeline::Timeline;
