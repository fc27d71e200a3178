//! Scheduling policy: how remaining slack becomes a DRT budget, and when
//! a request is admissible at all.

use vit_drt::EngineCore;

/// How the scheduler chooses an execution path for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Deadline-aware DRT serving: the request's remaining slack at
    /// dispatch becomes the budget for the Pareto LUT lookup, so accuracy
    /// degrades gracefully under load instead of missing deadlines.
    DrtDynamic,
    /// Static baseline: always run the LUT entry at this index (clamped to
    /// the table), regardless of slack — how a conventional fixed-model
    /// server behaves. `usize::MAX` means "always the full model".
    Static {
        /// Index into the LUT, cheapest first.
        entry_index: usize,
    },
}

impl SchedulePolicy {
    /// The static full-model baseline.
    pub fn static_full() -> Self {
        SchedulePolicy::Static {
            entry_index: usize::MAX,
        }
    }
}

/// How the server reacts when an execution attempt fails (injected fault,
/// guard trip, or watchdog abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryPolicy {
    /// Fail the request on its first fault — no retry, the request is
    /// lost. How a conventional server without fault handling behaves.
    FailFast,
    /// The self-healing policy: retry the request with its *remaining*
    /// slack as a tighter budget, so the Pareto LUT picks a cheaper
    /// configuration for the retry (the serving analog of the paper's
    /// graceful degradation). A plan-replay failure is retried the same
    /// way, on a plan the engine compiles afresh.
    DegradedRetry {
        /// Maximum re-attempts after the first failed one.
        max_retries: u32,
    },
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::DegradedRetry { max_retries: 2 }
    }
}

impl RecoveryPolicy {
    /// Stable lower-snake name, used in report keys and trace details.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::FailFast => "fail_fast",
            RecoveryPolicy::DegradedRetry { .. } => "degraded_retry",
        }
    }

    /// Re-attempts allowed after a failed one (0 under fail-fast).
    pub fn max_retries(self) -> u32 {
        match self {
            RecoveryPolicy::FailFast => 0,
            RecoveryPolicy::DegradedRetry { max_retries } => max_retries,
        }
    }
}

/// Admission control: a request is admissible only when its remaining
/// slack (in LUT resource units) can still cover the cheapest execution
/// path. Shedding an inadmissible request immediately is strictly better
/// than queueing it: it cannot meet its deadline, and it would steal
/// worker time from requests that still can.
pub fn admissible(slack_units: f64, cheapest_cost_units: f64) -> bool {
    slack_units >= cheapest_cost_units
}

/// The budget (in LUT resource units) the policy hands to the engine for
/// a request with `slack_units` of remaining slack.
pub fn budget_for(policy: SchedulePolicy, core: &EngineCore, slack_units: f64) -> f64 {
    match policy {
        SchedulePolicy::DrtDynamic => slack_units,
        SchedulePolicy::Static { entry_index } => {
            let entries = core.lut().entries();
            let idx = entry_index.min(entries.len() - 1);
            // Budget exactly equal to the entry's cost selects it (lookup
            // maximizes accuracy among entries with resource <= budget).
            entries[idx].resource
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_a_threshold_on_cheapest_cost() {
        assert!(admissible(1.0, 0.5));
        assert!(admissible(0.5, 0.5));
        assert!(!admissible(0.49, 0.5));
        assert!(!admissible(-1.0, 0.5));
    }
}
