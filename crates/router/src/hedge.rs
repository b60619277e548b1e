//! Hedged requests and the shared retry/hedge token budget.
//!
//! A hedge is a *duplicate* of a request whose primary upstream is
//! taking suspiciously long: after a p99-derived delay the router fires
//! the same predict at the next ring owner and takes whichever answer
//! lands first. Hedging turns one slow replica into a p99 problem for
//! nobody — at the cost of extra upstream load, so it is strictly
//! budgeted: a [`TokenBucket`] refilled at a fraction of real traffic
//! (default 10 %) is shared by hedges *and* failure retries, the same
//! throttle shape gRPC uses for retry storms. When the bucket is empty
//! the router degrades to ordinary single-copy forwarding — a hedge is
//! an optimisation, never a correctness need.
//!
//! The hedge delay self-tunes: it is the p99 upper bound of the
//! `router.stage.upstream_wait_ns` histogram, so exactly the slowest
//! ~1 % of exchanges trigger a duplicate. Until the histogram has seen
//! [`HedgeConfig::min_observations`] exchanges the router does not hedge
//! at all (a cold histogram's p99 is noise). Tests pin the delay with
//! [`HedgeConfig::delay_override`] — the histogram is process-global and
//! would bleed between tests.

use neusight_fault::TokenBucket;
use neusight_obs as obs;
use std::sync::Arc;
use std::time::Duration;

/// Hedging and retry-budget tuning.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Master switch; off means no duplicates are ever sent (the retry
    /// budget still applies to failure retries).
    pub enabled: bool,
    /// Budget refill per forwarded request: 0.10 means hedges + retries
    /// together may add at most ~10 % upstream load in steady state.
    pub budget_ratio: f64,
    /// Token burst allowance (absorbs correlated failures, e.g. one
    /// replica dying with many connections pooled to it).
    pub burst: u32,
    /// Exchanges the wait histogram must have seen before the p99 is
    /// trusted as a hedge trigger.
    pub min_observations: u64,
    /// Never hedge before this much waiting even if p99 is lower —
    /// guards against a microsecond-level p99 duplicating everything
    /// after a burst of cache hits.
    pub floor: Duration,
    /// Fixed hedge delay for tests (bypasses the histogram).
    pub delay_override: Option<Duration>,
}

impl Default for HedgeConfig {
    fn default() -> HedgeConfig {
        HedgeConfig {
            enabled: false,
            budget_ratio: 0.10,
            burst: 64,
            min_observations: 100,
            floor: Duration::from_millis(2),
            delay_override: None,
        }
    }
}

/// The per-router hedging state: config plus the shared token budget.
pub struct Hedger {
    config: HedgeConfig,
    budget: TokenBucket,
    /// `router.stage.upstream_wait_ns`, the hedge trigger's source.
    waits: Arc<obs::Histogram>,
    hedge_suppressed: Arc<obs::Counter>,
    retry_suppressed: Arc<obs::Counter>,
}

impl Hedger {
    /// Builds a hedger with a full burst of tokens.
    #[must_use]
    pub fn new(config: HedgeConfig) -> Hedger {
        let budget = TokenBucket::new(config.budget_ratio, config.burst);
        Hedger {
            config,
            budget,
            waits: obs::metrics::histogram("router.stage.upstream_wait_ns"),
            hedge_suppressed: obs::metrics::counter("router.hedge.suppressed"),
            retry_suppressed: obs::metrics::counter("router.retry.suppressed"),
        }
    }

    /// Whether duplicate-sending is enabled at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Accounts one unit of real (non-duplicate) forwarded traffic,
    /// refilling the budget at the configured ratio.
    pub fn on_request(&self) {
        self.budget.on_request();
    }

    /// Tries to spend one budget token for a hedge or a failure retry.
    /// `kind` (`"hedge"`, else a retry) picks the suppression counter,
    /// `router.hedge.suppressed` or `router.retry.suppressed`.
    pub fn try_spend(&self, kind: &str) -> bool {
        if self.budget.try_spend() {
            return true;
        }
        if kind == "hedge" {
            self.hedge_suppressed.inc();
        } else {
            self.retry_suppressed.inc();
        }
        false
    }

    /// Tokens currently available (for status pages and tests).
    #[must_use]
    pub fn available(&self) -> u32 {
        self.budget.available()
    }

    /// How long to wait on the primary before firing a duplicate, or
    /// `None` when hedging should not happen (disabled, or the wait
    /// histogram is too cold to trust its p99).
    #[must_use]
    pub fn hedge_delay(&self) -> Option<Duration> {
        if !self.config.enabled {
            return None;
        }
        if let Some(delay) = self.config.delay_override {
            return Some(delay);
        }
        if self.waits.count() < self.config.min_observations {
            return None;
        }
        let p99 = Duration::from_nanos(self.waits.quantile_upper_bound(0.99));
        Some(p99.max(self.config.floor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_config() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            ..HedgeConfig::default()
        }
    }

    #[test]
    fn disabled_hedger_never_offers_a_delay() {
        let hedger = Hedger::new(HedgeConfig::default());
        assert!(hedger.hedge_delay().is_none());
    }

    #[test]
    fn delay_override_bypasses_the_histogram() {
        let hedger = Hedger::new(HedgeConfig {
            delay_override: Some(Duration::from_millis(7)),
            ..enabled_config()
        });
        assert_eq!(hedger.hedge_delay(), Some(Duration::from_millis(7)));
    }

    #[test]
    fn budget_is_shared_between_hedges_and_retries() {
        let hedger = Hedger::new(HedgeConfig {
            budget_ratio: 0.0,
            burst: 2,
            ..enabled_config()
        });
        assert!(hedger.try_spend("hedge"));
        assert!(hedger.try_spend("retry"));
        // Bucket empty and the refill ratio is zero: both kinds starve.
        assert!(!hedger.try_spend("hedge"));
        assert!(!hedger.try_spend("retry"));
        assert_eq!(hedger.available(), 0);
    }

    #[test]
    fn real_traffic_refills_the_budget() {
        let hedger = Hedger::new(HedgeConfig {
            budget_ratio: 0.5,
            burst: 1,
            ..enabled_config()
        });
        assert!(hedger.try_spend("hedge"));
        assert!(!hedger.try_spend("hedge"));
        hedger.on_request();
        hedger.on_request();
        assert!(
            hedger.try_spend("hedge"),
            "2 requests at ratio 0.5 = 1 token"
        );
    }
}
