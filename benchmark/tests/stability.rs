//! The simulated end-to-end metrics must not depend much on the seed.

use saguaro_benchmark::stability::check;
use saguaro_benchmark::workloads::Workload;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every workload at 8 seeds; run with --release"
)]
fn simulated_metrics_are_stable_across_seeds() {
    let failures: Vec<String> = Workload::ALL
        .into_iter()
        .flat_map(|workload| check(workload).expect("procfs is mounted").failures)
        .collect();
    assert_eq!(failures, Vec::<String>::new());
}
