//! Deltas of a `MetricsRegistry` between two snapshots: how much each
//! counter and histogram moved while a workload ran.

use cryptext_common::metrics::{HistogramSnapshot, SampleValue, HISTOGRAM_BUCKETS};
use cryptext_common::MetricsSnapshot;

pub struct Delta {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Delta {
    pub fn counter(&self, name: &str) -> f64 {
        self.after
            .counter_total(name)
            .saturating_sub(self.before.counter_total(name)) as f64
    }

    pub fn counter_labeled(&self, name: &str, key: &str, value: &str) -> f64 {
        self.after
            .counter_labeled(name, key, value)
            .saturating_sub(self.before.counter_labeled(name, key, value)) as f64
    }

    /// A histogram family's observations in the interval, summed over
    /// every label set.
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            count: 0,
        };
        for (snap, sign) in [(&self.after, 1i64), (&self.before, -1i64)] {
            for s in snap.samples.iter().filter(|s| s.name == name) {
                if let SampleValue::Histogram(h) = &s.value {
                    for (o, b) in out.buckets.iter_mut().zip(h.buckets.iter()) {
                        *o = o.wrapping_add_signed(sign * *b as i64);
                    }
                    out.sum = out.sum.wrapping_add_signed(sign * h.sum as i64);
                    out.count = out.count.wrapping_add_signed(sign * h.count as i64);
                }
            }
        }
        out
    }

    /// Tier-1 hit ratio of one cache tier (`lookup`, `normalize`,
    /// `normalize_results`).
    pub fn hit_ratio(&self, tier: &str) -> f64 {
        let hits = self.counter_labeled("cryptext_cache_hits_total", "tier", tier);
        let misses = self.counter_labeled("cryptext_cache_misses_total", "tier", tier);
        crate::util::ratio(hits, hits + misses)
    }
}
