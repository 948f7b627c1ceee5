//! Bucketed time-series metrics of one traced run.
//!
//! [`RunTimeline`] folds the exact per-transaction completion records and
//! the merged structured trace of a run into a fixed number of equal-width
//! virtual-time buckets: committed/aborted counts and throughput, reply
//! latency quantiles (via the same [`LatencyHistogram`] the population
//! engine uses), the number of submitted-but-not-yet-completed transactions
//! at each bucket boundary, and per-bucket view-change / equivocation
//! counts.  It is built only when tracing is on (see
//! [`crate::experiment::RunArtifacts::timeline`]); the `figures` driver's
//! `trace` and `faults` rows print it.
//!
//! The bucket grid covers exactly `warmup + measure`; completions landing in
//! the post-measure drain tail are not binned.

use saguaro_loadgen::{CompletedTx, LatencyHistogram};
use saguaro_trace::{RunTrace, TraceEventKind};
use saguaro_types::{Duration, SimTime};

/// One bucket of the time series.
#[derive(Clone, Debug)]
pub struct TimelinePoint {
    /// Bucket start, in virtual milliseconds from the run start.
    pub start_ms: f64,
    /// Transactions whose commit reply completed in this bucket.
    pub committed: u64,
    /// Transactions whose abort reply completed in this bucket.
    pub aborted: u64,
    /// Committed throughput over the bucket (tx/s).
    pub throughput_tps: f64,
    /// Median reply latency of the bucket's committed transactions (ms).
    pub p50_latency_ms: f64,
    /// 95th-percentile reply latency of the bucket's committed
    /// transactions (ms).
    pub p95_latency_ms: f64,
    /// Transactions submitted but not yet completed at the bucket's end
    /// boundary — the client-observed queue depth.
    pub in_flight: u64,
    /// View changes completing in this bucket (from the trace).
    pub view_changes: u64,
    /// Equivocation (twin-certificate) detections in this bucket (from the
    /// trace).
    pub certificate_conflicts: u64,
}

/// The bucketed time series of one run.
#[derive(Clone, Debug)]
pub struct RunTimeline {
    /// Width of every bucket.
    pub bucket: Duration,
    /// The buckets, in time order, covering `warmup + measure`.
    pub points: Vec<TimelinePoint>,
}

impl RunTimeline {
    /// Buckets a traced run's horizon is divided into.
    pub const BUCKETS: u32 = 40;

    /// Builds the series from a run's completion records and merged trace.
    ///
    /// `buckets` is clamped to at least 1.  Only completions inside the
    /// `warmup + measure` window are binned; the in-flight depth counts
    /// every submission/completion up to each boundary, so it is exact for
    /// transactions that eventually completed (permanently stuck ones are
    /// invisible to the client-side records this is built from).
    pub fn build(
        warmup: Duration,
        measure: Duration,
        buckets: u32,
        completions: &[CompletedTx],
        trace: &RunTrace,
    ) -> Self {
        let buckets = buckets.max(1) as usize;
        let window_us = (warmup + measure).as_micros().max(1);
        let bucket_us = (window_us / buckets as u64).max(1);
        let bucket_of = |t: SimTime| -> Option<usize> {
            let us = t.as_micros();
            (us < window_us).then(|| ((us / bucket_us) as usize).min(buckets - 1))
        };

        let mut committed = vec![0u64; buckets];
        let mut aborted = vec![0u64; buckets];
        let mut hists = vec![LatencyHistogram::new(); buckets];
        // +1/−1 deltas per bucket; prefix sums give the in-flight depth at
        // each bucket's end boundary.  Submissions/completions beyond the
        // window cancel out (a completion never precedes its submission).
        let mut flight_delta = vec![0i64; buckets];
        for c in completions {
            let done_at = c.submitted_at + c.latency;
            if let Some(b) = bucket_of(c.submitted_at) {
                flight_delta[b] += 1;
            }
            if let Some(b) = bucket_of(done_at) {
                flight_delta[b] -= 1;
                if c.committed {
                    committed[b] += 1;
                    hists[b].record(c.latency.as_micros());
                } else {
                    aborted[b] += 1;
                }
            }
        }

        let mut view_changes = vec![0u64; buckets];
        let mut conflicts = vec![0u64; buckets];
        for event in &trace.events {
            let Some(b) = bucket_of(event.time) else {
                continue;
            };
            match event.kind {
                TraceEventKind::ViewChangeComplete { .. } => view_changes[b] += 1,
                TraceEventKind::EquivocationDetected { .. } => conflicts[b] += 1,
                _ => {}
            }
        }

        let bucket_secs = bucket_us as f64 / 1_000_000.0;
        let mut in_flight = 0i64;
        let points = (0..buckets)
            .map(|b| {
                in_flight += flight_delta[b];
                TimelinePoint {
                    start_ms: (b as u64 * bucket_us) as f64 / 1_000.0,
                    committed: committed[b],
                    aborted: aborted[b],
                    throughput_tps: committed[b] as f64 / bucket_secs,
                    p50_latency_ms: hists[b].quantile(0.50) as f64 / 1_000.0,
                    p95_latency_ms: hists[b].quantile(0.95) as f64 / 1_000.0,
                    in_flight: in_flight.max(0) as u64,
                    view_changes: view_changes[b],
                    certificate_conflicts: conflicts[b],
                }
            })
            .collect();
        Self {
            bucket: Duration::from_micros(bucket_us),
            points,
        }
    }

    /// Total committed transactions across all buckets.
    pub fn committed(&self) -> u64 {
        self.points.iter().map(|p| p.committed).sum()
    }

    /// Total view changes across all buckets.
    pub fn view_changes(&self) -> u64 {
        self.points.iter().map(|p| p.view_changes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saguaro_trace::{TraceActor, TraceEvent};
    use saguaro_types::{ClientId, DomainId, NodeId, TxId};

    fn done(tx: u64, submit_ms: u64, latency_ms: u64, committed: bool) -> CompletedTx {
        CompletedTx {
            tx_id: TxId(tx),
            client: ClientId(0),
            submitted_at: SimTime::from_millis(submit_ms),
            latency: Duration::from_millis(latency_ms),
            committed,
        }
    }

    #[test]
    fn completions_and_trace_events_land_in_their_buckets() {
        // Window 100 ms, 4 buckets of 25 ms.
        let completions = vec![
            done(1, 5, 5, true),    // completes at 10 ms → bucket 0
            done(2, 10, 20, true),  // completes at 30 ms → bucket 1
            done(3, 20, 40, false), // completes at 60 ms → bucket 2 (abort)
            done(4, 90, 50, true),  // completes at 140 ms → past the window
        ];
        let trace = RunTrace {
            events: vec![TraceEvent {
                time: SimTime::from_millis(60),
                actor: TraceActor::Harness,
                seq: 0,
                kind: TraceEventKind::ViewChangeComplete {
                    view: 1,
                    primary: NodeId::new(DomainId::new(1, 0), 2),
                },
            }],
            dropped: 0,
        };
        let tl = RunTimeline::build(
            Duration::from_millis(40),
            Duration::from_millis(60),
            4,
            &completions,
            &trace,
        );
        assert_eq!(tl.bucket, Duration::from_millis(25));
        assert_eq!(tl.points.len(), 4);
        assert_eq!(tl.committed(), 2);
        assert_eq!(tl.points[0].committed, 1);
        assert_eq!(tl.points[1].committed, 1);
        assert_eq!(tl.points[2].aborted, 1);
        assert_eq!(tl.points[2].view_changes, 1);
        assert_eq!(tl.view_changes(), 1);
        // tx 4 submitted in bucket 3 but still in flight at the window end.
        assert_eq!(tl.points[3].in_flight, 1);
        // Latency of the bucket-0 commit is 5 ms (up to histogram bucketing).
        assert!((tl.points[0].p50_latency_ms - 5.0).abs() < 0.5);
    }

    #[test]
    fn in_flight_depth_rises_and_falls() {
        // One tx in flight across the first three of five 20 ms buckets.
        let completions = vec![done(1, 5, 50, true)]; // 5 ms → 55 ms
        let tl = RunTimeline::build(
            Duration::ZERO,
            Duration::from_millis(100),
            5,
            &completions,
            &RunTrace::default(),
        );
        let depths: Vec<u64> = tl.points.iter().map(|p| p.in_flight).collect();
        assert_eq!(depths, vec![1, 1, 0, 0, 0]);
    }
}
