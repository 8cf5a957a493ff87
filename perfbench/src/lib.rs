//! Layered benchmark of the SBRP reproduction (see `README.md` beside
//! this package).
//!
//! Four workloads drive the repository's crates through their public
//! API: `sim-persist` and `sim-compute` (Fig. 6 cells on the cycle
//! simulator), `serve` (open-loop gpKVS serving) and `verify` (model
//! checker and linter). One run repeats a workload's *pass* — a fixed
//! set of cells, serving runs or kernels — for the requested time and
//! reports host metrics (what the simulator costs) apart from simulated
//! metrics (what the modelled GPU does, exact for a seed).

pub mod catalog;
pub mod host;
pub mod probes;
pub mod run;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod verify;

use std::time::Duration;

/// What one pass of a workload did and measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host time spent building inputs, kernels and simulator state.
    pub setup: Duration,
    /// Host time of each item's timed work (everything after set-up), in
    /// item order.
    pub timed: Vec<Duration>,
    /// Headline work units completed: simulated cycles (`sim-*`),
    /// durably acked requests (`serve`), distinct model-checker states
    /// (`verify`).
    pub work: f64,
    /// Host time of each item that the headline units are counted
    /// against, in item order.
    pub work_time: Vec<Duration>,
    /// Whole items completed: cells, serving runs or model-checked
    /// kernels.
    pub items: u64,
    /// Checked outcomes (cells, requests or kernels).
    pub attempted: u64,
    /// Outcomes that failed their check.
    pub failed: u64,
    /// A description of each failure, for the log.
    pub failures: Vec<String>,
    /// FNV-1a digest over every simulated statistic of the pass, in
    /// cell order.
    pub digest: u64,
    /// Simulated (exact) metrics and counters, by catalog name.
    pub exact: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Records a failed check.
    pub fn fail(&mut self, count: u64, what: String) {
        self.failed += count;
        self.failures.push(what);
    }
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `v` (mean of the middle two for an even count; 0 if empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
