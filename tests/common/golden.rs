//! The golden table: runs whose `RunMetrics` are pinned bit for bit.
//!
//! Every case is a small micropayment (or ridesharing) run; the same case
//! must reproduce its metrics exactly on every build — identical event
//! schedules, identical RNG draws, identical floating-point accumulation
//! order.  A change that moves a value here changes behaviour, and
//! re-records the table in one place.

use saguaro::sim::{ExperimentSpec, ProtocolKind, RidesharingConfig, RunMetrics};

/// One pinned run.
#[derive(Clone, Copy, Debug)]
pub enum Case {
    /// [`golden_spec`] for a stack at a seed: 42 (the spec's default), 7,
    /// 101 or 9001.
    Plain(ProtocolKind, u64),
    /// The coordinator stack at seed 7 with blocks of up to 8 commands.
    Batched,
    /// The ridesharing workload on the coordinator stack at seed 101.
    Ridesharing,
}

impl Case {
    /// Every pinned case: each stack at each seed, then the batched and the
    /// ridesharing run.
    pub fn all() -> impl Iterator<Item = Case> {
        let plain = ProtocolKind::ALL.into_iter().flat_map(|protocol| {
            [42, 7, 101, 9001]
                .into_iter()
                .map(move |seed| Case::Plain(protocol, seed))
        });
        plain.chain([Case::Batched, Case::Ridesharing])
    }

    /// The spec this case runs.
    pub fn spec(self) -> ExperimentSpec {
        match self {
            Case::Plain(protocol, seed) => golden_spec(protocol, seed),
            Case::Batched => {
                golden_spec(ProtocolKind::SaguaroCoordinator, 7).tune(|t| t.batch_size(8))
            }
            Case::Ridesharing => {
                let mut spec = ExperimentSpec::new(ProtocolKind::SaguaroCoordinator)
                    .ridesharing(RidesharingConfig::default())
                    .quick()
                    .load(500.0);
                spec.seed = 101;
                spec
            }
        }
    }

    /// The metrics [`Case::spec`] must reproduce.
    pub fn golden(self) -> RunMetrics {
        use ProtocolKind::*;
        let (tps, avg, p50, p95, p99, committed) = match self {
            Case::Plain(SaguaroCoordinator, 42) => (
                576.6666666666667,
                7.454052023121388,
                1.049,
                34.066,
                37.382,
                173,
            ),
            Case::Plain(SaguaroCoordinator, 7) => (
                546.6666666666667,
                11.205006097560975,
                1.053,
                42.679,
                54.532,
                164,
            ),
            Case::Plain(SaguaroCoordinator, 101) => (
                663.3333333333334,
                8.476120603015076,
                1.052,
                38.15,
                49.414,
                199,
            ),
            Case::Plain(SaguaroCoordinator, 9001) => (
                616.6666666666667,
                8.488275675675679,
                1.053,
                37.228,
                44.933,
                185,
            ),
            Case::Plain(SaguaroOptimistic, 42) => {
                (620.0, 1.0484623655913978, 1.048, 1.058, 1.061, 186)
            }
            Case::Plain(SaguaroOptimistic, 7) => {
                (580.0, 1.0482873563218398, 1.049, 1.058, 1.064, 174)
            }
            Case::Plain(SaguaroOptimistic, 101) => {
                (580.0, 1.0490402298850583, 1.049, 1.06, 1.065, 174)
            }
            Case::Plain(SaguaroOptimistic, 9001) => (
                616.6666666666667,
                1.047881081081081,
                1.049,
                1.058,
                1.062,
                185,
            ),
            Case::Plain(Ahl, 42) => (
                553.3333333333334,
                5.943632530120482,
                1.05,
                29.047,
                36.833,
                166,
            ),
            Case::Plain(Ahl, 7) => (
                593.3333333333334,
                9.622320224719102,
                1.053,
                36.823,
                37.243,
                178,
            ),
            Case::Plain(Ahl, 101) => (
                543.3333333333334,
                7.3862085889570555,
                1.049,
                36.755,
                37.267,
                163,
            ),
            Case::Plain(Ahl, 9001) => (
                586.6666666666667,
                7.075267045454547,
                1.05,
                30.929,
                36.98,
                176,
            ),
            Case::Plain(Sharper, 42) => (570.0, 5.116730994152048, 1.05, 26.595, 27.129, 171),
            Case::Plain(Sharper, 7) => (
                676.6666666666667,
                6.730935960591133,
                1.052,
                20.934,
                27.073,
                203,
            ),
            Case::Plain(Sharper, 101) => (
                666.6666666666667,
                5.542105000000001,
                1.051,
                20.884,
                27.195,
                200,
            ),
            Case::Plain(Sharper, 9001) => (606.6666666666667, 5.167, 1.05, 20.836, 26.979, 182),
            Case::Batched => (590.0, 17.42545762711865, 6.049, 58.094, 68.635, 177),
            Case::Ridesharing => (500.0, 1.048573333333334, 1.049, 1.059, 1.06, 150),
            Case::Plain(protocol, seed) => panic!("no golden for {protocol:?} at seed {seed}"),
        };
        RunMetrics {
            offered_tps: self.spec().offered_load_tps,
            throughput_tps: tps,
            avg_latency_ms: avg,
            p50_latency_ms: p50,
            p95_latency_ms: p95,
            p99_latency_ms: p99,
            committed,
            aborted: 0,
        }
    }
}

/// The reference spec of the table: the paper's default deployment at 30 %
/// cross-domain traffic and 600 tx/s offered, in quick mode.
pub fn golden_spec(protocol: ProtocolKind, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(protocol)
        .quick()
        .cross_domain(0.3)
        .load(600.0);
    spec.seed = seed;
    spec
}
