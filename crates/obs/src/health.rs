//! Drift detection and the maintenance advisor.
//!
//! DeepMapping's hybrid design makes operational decay invisible in aggregate
//! counters: a drifting model never errors — the auxiliary table silently
//! absorbs every misprediction, so the only symptoms are creeping aux growth
//! and probe-heavy tails.  This module turns the raw signals the rest of the
//! workspace already records into a typed answer to "what should an operator
//! (or a background maintenance loop) do right now?".
//!
//! The pipeline is: a store assembles [`DriftSignals`] (model-vs-aux answer
//! mix, overlay growth, tombstones, existence-bit churn) and [`PoolPressure`]
//! (from its buffer pool's own counters); a server optionally adds [`SloSignals`] (windowed
//! p99 vs a configured target); [`advise`] folds them through documented
//! [`AdvisorThresholds`] into a [`HealthReport`] whose [`Advice`] variants
//! carry the evidence that triggered them.  `advise` is a pure function of its
//! inputs — no clocks, no globals — so every recommendation is unit-testable
//! and reproducible from a logged report.

/// Per-store drift signals: how far the deployed model has decayed from the
/// data it memorized.  All counters are since the last retrain (retraining
/// resets them — afterwards the aux overlay is rebuilt and the mix restarts).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriftSignals {
    /// Lookups answered by the model (prediction trusted, no aux hit).
    pub model_answered: u64,
    /// Lookups answered by the auxiliary table (overlay or compressed probe).
    pub aux_answered: u64,
    /// Exponential moving average of the write-time misprediction rate in
    /// `[0, 1]`: the fraction of recently written rows the model failed to
    /// memorize (each insert/update checks the prediction against the row).
    pub mispredict_ema: f64,
    /// Bytes in the aux table's uncompacted delta overlay.
    pub overlay_bytes: u64,
    /// Total aux-table bytes (compressed partitions + overlay).
    pub aux_bytes: u64,
    /// Live tombstones in the aux table.
    pub tombstones: u64,
    /// Tuples currently visible in the store.
    pub tuples: u64,
    /// Existence-bit flips (inserts into fresh slots + deletes) since the
    /// last retrain — churn of the membership structure itself.
    pub exist_churn: u64,
    /// Fraction of tuples the model currently memorizes (aux-free), `[0, 1]`.
    pub memorized_fraction: f64,
    /// Retrains this store has already performed.
    pub retrain_count: u64,
}

impl DriftSignals {
    /// Fraction of answered lookups that needed the aux table (0 when no
    /// lookups ran).
    pub fn aux_answer_ratio(&self) -> f64 {
        let total = self.model_answered + self.aux_answered;
        if total == 0 {
            0.0
        } else {
            self.aux_answered as f64 / total as f64
        }
    }

    /// Overlay bytes as a fraction of total aux bytes (0 when the aux table
    /// is empty).
    pub fn overlay_ratio(&self) -> f64 {
        if self.aux_bytes == 0 {
            0.0
        } else {
            self.overlay_bytes as f64 / self.aux_bytes as f64
        }
    }

    /// Tombstones per visible tuple (0 when the store is empty).
    pub fn tombstone_ratio(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.tombstones as f64 / self.tuples as f64
        }
    }

    /// Existence-bit flips per visible tuple since the last retrain.
    pub fn churn_ratio(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.exist_churn as f64 / self.tuples as f64
        }
    }
}

/// Buffer-pool pressure, read from the pool's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolPressure {
    /// Bytes resident in the pool.
    pub resident_bytes: u64,
    /// Configured pool budget (0 = unbounded).
    pub budget_bytes: u64,
    /// Pool misses over every pool get the store counted, `[0, 1]`.
    pub miss_rate: f64,
}

impl PoolPressure {
    /// Occupancy in `[0, 1]` (0 when unbounded).
    pub fn occupancy(&self) -> f64 {
        if self.budget_bytes == 0 {
            0.0
        } else {
            (self.resident_bytes as f64 / self.budget_bytes as f64).min(1.0)
        }
    }
}

/// Windowed latency vs a configured target (per-tenant in `dm-server`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSignals {
    /// Configured p99 target, in nanoseconds.
    pub target_p99_nanos: u64,
    /// Observed windowed ("recent", not since-boot) p99, in nanoseconds.
    pub windowed_p99_nanos: u64,
    /// Requests inside the window the p99 was computed over.
    pub windowed_requests: u64,
}

impl SloSignals {
    /// Burn rate: observed windowed p99 over target (1.0 = exactly at
    /// target; >1 = burning error budget).  0 when no target or no traffic.
    pub fn burn_rate(&self) -> f64 {
        if self.target_p99_nanos == 0 || self.windowed_requests == 0 {
            0.0
        } else {
            self.windowed_p99_nanos as f64 / self.target_p99_nanos as f64
        }
    }
}

/// Fault pressure observed at serve time: how often the store had to retry
/// cold loads and how many keys it refused to answer because their partition
/// could not be read (per-span degradation).  Assembled by the serving layer
/// from the store's metrics; see `dm_storage::TupleStore::fault_signals`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSignals {
    /// Keys answered with a typed per-span failure instead of a value
    /// (partition probe failed after retries).  Any nonzero value means some
    /// requests are being refused — worth investigating even if rare.
    pub degraded_keys: u64,
    /// Cold partition loads that succeeded only after at least one retry
    /// (transient I/O absorbed by backoff).  Elevated retries with zero
    /// degraded keys mean the storage layer is sick but still hiding it.
    pub load_retries: u64,
}

/// A typed maintenance recommendation with its evidence attached.
#[derive(Debug, Clone, PartialEq)]
pub enum Advice {
    /// The model has drifted: retraining folds the overlay back into the
    /// model + compressed partitions.
    Retrain {
        /// Aux bytes a retrain is expected to shed: the overlay scaled by
        /// the fraction of rows the (re-fit) model memorizes.
        expected_aux_shrink_bytes: u64,
        /// The overlay ratio that tripped the threshold.
        overlay_ratio: f64,
        /// The write-time misprediction EMA at decision time.
        mispredict_ema: f64,
    },
    /// The working set no longer fits: the pool is simultaneously full and
    /// missing often.
    GrowPoolBudget {
        /// Bytes resident at decision time.
        resident_bytes: u64,
        /// The budget found insufficient.
        budget_bytes: u64,
        /// The miss rate that tripped the threshold.
        miss_rate: f64,
    },
    /// The store is degrading keys (failed partition probes) or leaning on
    /// load retries: the underlying storage needs investigation.  No
    /// maintenance operation fixes this from inside the store — it is
    /// evidence of external I/O faults.
    InvestigateStorage {
        /// Keys refused with a typed per-span failure.
        degraded_keys: u64,
        /// Cold loads that needed at least one retry.
        load_retries: u64,
    },
    /// Nothing actionable.
    Healthy,
}

impl Advice {
    /// Short stable label for logs and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            Advice::Retrain { .. } => "retrain",
            Advice::GrowPoolBudget { .. } => "grow_pool_budget",
            Advice::InvestigateStorage { .. } => "investigate_storage",
            Advice::Healthy => "healthy",
        }
    }
}

/// The thresholds [`advise`] applies.  Defaults are deliberately conservative
/// — each is the point where the symptom measurably hurts, not where it first
/// appears.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdvisorThresholds {
    /// Retrain when the overlay exceeds this fraction of aux bytes
    /// (mirrors the store's own `retrain_aux_bytes` trigger, but as a ratio
    /// visible before the hard trigger fires).
    pub overlay_ratio: f64,
    /// ... or when the write-time misprediction EMA exceeds this (the model
    /// is failing on current data even if the overlay hasn't grown yet).
    pub mispredict_ema: f64,
    /// ... or when existence-bit churn per tuple exceeds this (membership
    /// itself is shifting under the model), or tombstones per tuple do
    /// (deletes the aux table still holds: a retrain is what drops them,
    /// and unlike the churn count they survive a reopen).
    pub churn_ratio: f64,
    /// Grow the pool only when it is this full **and** missing this often.
    pub pool_occupancy: f64,
    /// See [`pool_occupancy`](Self::pool_occupancy).
    pub pool_miss_rate: f64,
    /// Escalate advisories when the SLO burn rate exceeds this (windowed
    /// p99 over target).
    pub slo_burn: f64,
}

impl Default for AdvisorThresholds {
    fn default() -> Self {
        AdvisorThresholds {
            overlay_ratio: 0.25,
            mispredict_ema: 0.5,
            churn_ratio: 0.2,
            pool_occupancy: 0.95,
            pool_miss_rate: 0.30,
            slo_burn: 1.0,
        }
    }
}

/// Everything the advisor saw and concluded, in one loggable value.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The drift signals the advice was computed from.
    pub drift: DriftSignals,
    /// The pool pressure the advice was computed from.
    pub pool: PoolPressure,
    /// SLO signals, when a latency target is configured.
    pub slo: Option<SloSignals>,
    /// Fault pressure, when the serving layer supplied it.
    pub faults: Option<FaultSignals>,
    /// Recommendations, most urgent first.  Never empty: a healthy store
    /// reports `[Advice::Healthy]`.
    pub advice: Vec<Advice>,
}

impl HealthReport {
    /// The most urgent recommendation.
    pub fn primary(&self) -> &Advice {
        self.advice.first().unwrap_or(&Advice::Healthy)
    }

    /// Whether nothing is actionable.
    pub fn is_healthy(&self) -> bool {
        matches!(self.primary(), Advice::Healthy)
    }

    /// Publishes the report as gauges under `prefix` (e.g.
    /// `dm_health_orders`), so `render_prometheus()` / `render_json()` scrape
    /// it alongside the raw metrics.  Ratios in `[0, 1]` are exported in
    /// parts-per-million (`_ppm` suffix — the registry's gauges are integers);
    /// each advice label becomes a 0/1 gauge so alerts can key on
    /// `{prefix}_advice_retrain` directly.  Publishing is idempotent: gauges
    /// are set, not accumulated, so repeated scrapes see the latest report.
    pub fn publish_to(&self, prefix: &str, registry: &crate::registry::Registry) {
        let ppm = |v: f64| (v.clamp(0.0, 1e6) * 1e6) as i64;
        let gauge = |name: &str, value: i64| {
            registry.register_gauge(&format!("{prefix}_{name}")).set(value);
        };
        gauge("model_answered", self.drift.model_answered as i64);
        gauge("aux_answered", self.drift.aux_answered as i64);
        gauge("aux_answer_ratio_ppm", ppm(self.drift.aux_answer_ratio()));
        gauge("mispredict_ema_ppm", ppm(self.drift.mispredict_ema));
        gauge("overlay_bytes", self.drift.overlay_bytes as i64);
        gauge("aux_bytes", self.drift.aux_bytes as i64);
        gauge("tombstones", self.drift.tombstones as i64);
        gauge("exist_churn", self.drift.exist_churn as i64);
        gauge("memorized_fraction_ppm", ppm(self.drift.memorized_fraction));
        gauge("retrain_count", self.drift.retrain_count as i64);
        gauge("pool_resident_bytes", self.pool.resident_bytes as i64);
        gauge("pool_budget_bytes", self.pool.budget_bytes as i64);
        gauge("pool_miss_rate_ppm", ppm(self.pool.miss_rate));
        if let Some(slo) = self.slo {
            gauge("slo_target_p99_nanos", slo.target_p99_nanos as i64);
            gauge("slo_windowed_p99_nanos", slo.windowed_p99_nanos as i64);
            gauge("slo_burn_ppm", ppm(slo.burn_rate()));
        }
        if let Some(faults) = self.faults {
            gauge("degraded_keys", faults.degraded_keys as i64);
            gauge("load_retries", faults.load_retries as i64);
        }
        for label in [
            "retrain",
            "grow_pool_budget",
            "investigate_storage",
            "healthy",
        ] {
            let active = self.advice.iter().any(|a| a.label() == label);
            gauge(&format!("advice_{label}"), active as i64);
        }
    }
}

/// Folds drift + pool + optional SLO signals through `thresholds` into a
/// [`HealthReport`].  Pure: no clocks, no globals, deterministic for given
/// inputs.
///
/// Ordering: `Retrain` outranks `GrowPoolBudget` when both trip at once — a
/// drifting model inflates pool traffic, so the upstream fix comes first.  An SLO burn above
/// threshold does not add advice by itself (latency without a diagnosable
/// cause here is the server's problem, not the store's) but it promotes the
/// report out of `Healthy` only when a cause *is* diagnosed — the burn rate
/// rides along as evidence in [`HealthReport::slo`].
pub fn advise(
    drift: DriftSignals,
    pool: PoolPressure,
    slo: Option<SloSignals>,
    thresholds: &AdvisorThresholds,
) -> HealthReport {
    advise_with_faults(drift, pool, slo, None, thresholds)
}

/// [`advise`] with fault pressure folded in.  Degraded keys outrank every
/// maintenance advisory: a store refusing answers is broken *now*, while
/// drift and pool pressure are trends.  Retries alone (transients the backoff
/// absorbed) do not trip the advisory — they ride along as evidence in
/// [`HealthReport::faults`].
pub fn advise_with_faults(
    drift: DriftSignals,
    pool: PoolPressure,
    slo: Option<SloSignals>,
    faults: Option<FaultSignals>,
    thresholds: &AdvisorThresholds,
) -> HealthReport {
    let mut advice = Vec::new();

    if let Some(f) = faults {
        if f.degraded_keys > 0 {
            advice.push(Advice::InvestigateStorage {
                degraded_keys: f.degraded_keys,
                load_retries: f.load_retries,
            });
        }
    }

    if drift.overlay_ratio() > thresholds.overlay_ratio
        || drift.mispredict_ema > thresholds.mispredict_ema
        || drift.churn_ratio() > thresholds.churn_ratio
        || drift.tombstone_ratio() > thresholds.churn_ratio
    {
        advice.push(Advice::Retrain {
            expected_aux_shrink_bytes: (drift.overlay_bytes as f64 * drift.memorized_fraction)
                as u64,
            overlay_ratio: drift.overlay_ratio(),
            mispredict_ema: drift.mispredict_ema,
        });
    }

    if pool.occupancy() >= thresholds.pool_occupancy && pool.miss_rate > thresholds.pool_miss_rate
    {
        advice.push(Advice::GrowPoolBudget {
            resident_bytes: pool.resident_bytes,
            budget_bytes: pool.budget_bytes,
            miss_rate: pool.miss_rate,
        });
    }

    if advice.is_empty() {
        advice.push(Advice::Healthy);
    }

    HealthReport {
        drift,
        pool,
        slo,
        faults,
        advice,
    }
}

/// The health signals a store exposes through
/// `dm_storage::TupleStore::health_signals` — everything [`advise`] needs
/// except the (server-side) SLO input.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreHealthSignals {
    /// Drift signals assembled by the store.
    pub drift: DriftSignals,
    /// Pool pressure read from the store's buffer-pool counters.
    pub pool: PoolPressure,
}

impl StoreHealthSignals {
    /// Runs the advisor over these signals with default thresholds.
    pub fn advise(&self, slo: Option<SloSignals>) -> HealthReport {
        advise(self.drift, self.pool, slo, &AdvisorThresholds::default())
    }

    /// Runs the advisor with fault pressure folded in (see
    /// [`advise_with_faults`]).
    pub fn advise_with_faults(
        &self,
        slo: Option<SloSignals>,
        faults: Option<FaultSignals>,
    ) -> HealthReport {
        advise_with_faults(self.drift, self.pool, slo, faults, &AdvisorThresholds::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_keys_outrank_maintenance_advice() {
        let report = advise_with_faults(
            DriftSignals::default(),
            PoolPressure::default(),
            None,
            Some(FaultSignals { degraded_keys: 3, load_retries: 7 }),
            &AdvisorThresholds::default(),
        );
        assert!(!report.is_healthy());
        assert!(matches!(
            report.primary(),
            Advice::InvestigateStorage { degraded_keys: 3, load_retries: 7 }
        ));
        assert_eq!(report.primary().label(), "investigate_storage");

        // Retries alone are absorbed transients: evidence in the report, but
        // not an advisory by themselves.
        let quiet = advise_with_faults(
            DriftSignals::default(),
            PoolPressure::default(),
            None,
            Some(FaultSignals { degraded_keys: 0, load_retries: 9 }),
            &AdvisorThresholds::default(),
        );
        assert!(quiet.is_healthy());
        assert_eq!(quiet.faults.unwrap().load_retries, 9);
    }

    fn healthy_drift() -> DriftSignals {
        DriftSignals {
            model_answered: 9_000,
            aux_answered: 1_000,
            mispredict_ema: 0.05,
            overlay_bytes: 1_000,
            aux_bytes: 100_000,
            tombstones: 10,
            tuples: 10_000,
            exist_churn: 100,
            memorized_fraction: 0.9,
            retrain_count: 1,
        }
    }

    fn idle_pool() -> PoolPressure {
        PoolPressure {
            resident_bytes: 10_000,
            budget_bytes: 100_000,
            miss_rate: 0.05,
        }
    }

    #[test]
    fn healthy_inputs_yield_healthy() {
        let report = advise(
            healthy_drift(),
            idle_pool(),
            None,
            &AdvisorThresholds::default(),
        );
        assert!(report.is_healthy());
        assert_eq!(report.advice, vec![Advice::Healthy]);
        assert_eq!(report.primary().label(), "healthy");
    }

    #[test]
    fn overlay_growth_triggers_retrain_with_consistent_evidence() {
        let mut drift = healthy_drift();
        drift.overlay_bytes = 40_000; // 40% of aux_bytes > 25% threshold
        drift.memorized_fraction = 0.75;
        let report = advise(drift, idle_pool(), None, &AdvisorThresholds::default());
        match report.primary() {
            Advice::Retrain {
                expected_aux_shrink_bytes,
                overlay_ratio,
                mispredict_ema,
            } => {
                assert_eq!(*expected_aux_shrink_bytes, 30_000); // 40_000 * 0.75
                assert!((overlay_ratio - 0.4).abs() < 1e-9);
                assert!((mispredict_ema - drift.mispredict_ema).abs() < 1e-9);
            }
            other => panic!("expected Retrain, got {other:?}"),
        }
    }

    #[test]
    fn mispredict_ema_alone_triggers_retrain() {
        let mut drift = healthy_drift();
        drift.mispredict_ema = 0.8; // > 0.5 threshold, overlay still small
        let report = advise(drift, idle_pool(), None, &AdvisorThresholds::default());
        assert!(matches!(report.primary(), Advice::Retrain { .. }));
    }

    #[test]
    fn existence_churn_alone_triggers_retrain() {
        let mut drift = healthy_drift();
        drift.exist_churn = 5_000; // 0.5 per tuple > 0.2 threshold
        let report = advise(drift, idle_pool(), None, &AdvisorThresholds::default());
        assert!(matches!(report.primary(), Advice::Retrain { .. }));
    }

    #[test]
    fn tombstones_alone_trigger_retrain() {
        let mut drift = healthy_drift();
        drift.tombstones = 3_000; // 0.3 per tuple > 0.2 threshold, churn reset by a reopen
        let report = advise(drift, idle_pool(), None, &AdvisorThresholds::default());
        assert!(matches!(report.primary(), Advice::Retrain { .. }));
        assert_eq!(report.advice.len(), 1);
    }

    #[test]
    fn full_and_missing_pool_triggers_grow_budget() {
        let pool = PoolPressure {
            resident_bytes: 98_000,
            budget_bytes: 100_000,
            miss_rate: 0.5,
        };
        let report = advise(healthy_drift(), pool, None, &AdvisorThresholds::default());
        match report.primary() {
            Advice::GrowPoolBudget {
                resident_bytes,
                budget_bytes,
                miss_rate,
            } => {
                assert_eq!(*resident_bytes, 98_000);
                assert_eq!(*budget_bytes, 100_000);
                assert!((miss_rate - 0.5).abs() < 1e-9);
            }
            other => panic!("expected GrowPoolBudget, got {other:?}"),
        }
    }

    #[test]
    fn full_but_hitting_pool_is_healthy() {
        // Occupancy alone is not a problem: a full pool that *hits* is a
        // well-sized pool.
        let pool = PoolPressure {
            resident_bytes: 100_000,
            budget_bytes: 100_000,
            miss_rate: 0.01,
        };
        let report = advise(healthy_drift(), pool, None, &AdvisorThresholds::default());
        assert!(report.is_healthy());
    }

    #[test]
    fn concurrent_symptoms_rank_retrain_first() {
        let mut drift = healthy_drift();
        drift.overlay_bytes = 50_000;
        drift.tombstones = 3_000;
        let pool = PoolPressure {
            resident_bytes: 100_000,
            budget_bytes: 100_000,
            miss_rate: 0.9,
        };
        let report = advise(drift, pool, None, &AdvisorThresholds::default());
        assert_eq!(report.advice.len(), 2);
        assert!(matches!(report.advice[0], Advice::Retrain { .. }));
        assert!(matches!(report.advice[1], Advice::GrowPoolBudget { .. }));
        assert!(!report.is_healthy());
    }

    #[test]
    fn slo_signals_ride_along_as_evidence() {
        let slo = SloSignals {
            target_p99_nanos: 1_000_000,
            windowed_p99_nanos: 2_500_000,
            windowed_requests: 5_000,
        };
        assert!((slo.burn_rate() - 2.5).abs() < 1e-9);
        let report = advise(
            healthy_drift(),
            idle_pool(),
            Some(slo),
            &AdvisorThresholds::default(),
        );
        // Burn without a diagnosable store-side cause stays Healthy but the
        // evidence is preserved for the server to act on.
        assert!(report.is_healthy());
        assert_eq!(report.slo, Some(slo));
    }

    #[test]
    fn empty_store_divides_nothing_by_zero() {
        let drift = DriftSignals::default();
        assert_eq!(drift.aux_answer_ratio(), 0.0);
        assert_eq!(drift.overlay_ratio(), 0.0);
        assert_eq!(drift.tombstone_ratio(), 0.0);
        assert_eq!(drift.churn_ratio(), 0.0);
        let slo = SloSignals {
            target_p99_nanos: 0,
            windowed_p99_nanos: 5,
            windowed_requests: 0,
        };
        assert_eq!(slo.burn_rate(), 0.0);
        let report = advise(
            drift,
            PoolPressure::default(),
            None,
            &AdvisorThresholds::default(),
        );
        assert!(report.is_healthy());
    }

    #[test]
    fn publish_surfaces_the_report_through_the_renderers() {
        let mut drift = healthy_drift();
        drift.overlay_bytes = 60_000;
        drift.aux_bytes = 100_000;
        drift.mispredict_ema = 0.75;
        let slo = SloSignals {
            target_p99_nanos: 1_000_000,
            windowed_p99_nanos: 500_000,
            windowed_requests: 100,
        };
        let report = advise(drift, idle_pool(), Some(slo), &AdvisorThresholds::default());
        assert!(!report.is_healthy());
        let registry = crate::registry::Registry::new();
        report.publish_to("dm_health_orders", &registry);
        let text = crate::render::render_prometheus_for(&registry);
        assert!(text.contains("dm_health_orders_advice_retrain 1"), "{text}");
        assert!(text.contains("dm_health_orders_advice_healthy 0"));
        assert!(text.contains("dm_health_orders_overlay_bytes 60000"));
        assert!(text.contains("dm_health_orders_mispredict_ema_ppm 750000"));
        assert!(text.contains("dm_health_orders_slo_burn_ppm 500000"));
        // Publishing again overwrites rather than accumulates.
        report.publish_to("dm_health_orders", &registry);
        let again = crate::render::render_prometheus_for(&registry);
        assert!(again.contains("dm_health_orders_overlay_bytes 60000"));
        let json = crate::render::render_json_for(&registry);
        assert!(json.contains("\"dm_health_orders_pool_resident_bytes\""));
    }
}
