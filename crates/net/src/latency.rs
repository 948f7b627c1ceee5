//! Region-to-region latency model.
//!
//! Latency between two simulated participants is composed of:
//!
//! * a propagation delay of half the RTT between their regions (looked up in
//!   a symmetric matrix), or a small intra-region delay if they share a
//!   region;
//! * a serialization delay proportional to the message size and the link
//!   bandwidth;
//! * optional uniform jitter.
//!
//! The named constructors encode the two placements used by the paper's
//! evaluation: four nearby European regions (Frankfurt, Milan, London,
//! Paris, Section 8.1 — RTTs quoted in the paper) and seven far-apart
//! regions (California, Oregon, Virginia, Ohio, Tokyo, Seoul, Hong Kong,
//! Section 8.3 — RTTs taken from public cloudping measurements).

use rand::Rng;
use saguaro_types::{Duration, Region};

/// Latency and bandwidth model between regions.
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    /// Human-readable region names, indexed by `Region(i)`.
    names: Vec<&'static str>,
    /// Symmetric RTT matrix in microseconds; `rtt[i][j]` is the round-trip
    /// time between region `i` and region `j`.
    rtt_us: Vec<Vec<u64>>,
    /// One-way latency between two participants in the same region.
    intra_region_us: u64,
    /// Link bandwidth in bytes per microsecond (e.g. 1 Gbps ≈ 125 B/us).
    bytes_per_us: f64,
    /// Jitter as a fraction of the one-way latency (uniform in `[0, jitter]`).
    jitter_frac: f64,
}

impl LatencyMatrix {
    /// Builds a latency matrix from an RTT table given in **milliseconds**.
    pub fn from_rtt_ms(names: Vec<&'static str>, rtt_ms: Vec<Vec<f64>>) -> Self {
        assert_eq!(names.len(), rtt_ms.len(), "names/matrix size mismatch");
        let rtt_us = rtt_ms
            .iter()
            .map(|row| {
                assert_eq!(row.len(), names.len(), "matrix must be square");
                row.iter().map(|ms| (ms * 1_000.0) as u64).collect()
            })
            .collect();
        Self {
            names,
            rtt_us,
            intra_region_us: 250,
            bytes_per_us: 125.0, // 1 Gb/s
            jitter_frac: 0.05,
        }
    }

    /// A deployment where every participant sits in one data centre (used by
    /// the fault-tolerance scalability experiment, Figures 12–13).
    pub fn single_region() -> Self {
        Self::from_rtt_ms(vec!["local"], vec![vec![0.0]])
    }

    /// The paper's nearby-region placement (Section 8.1): Frankfurt, Milan,
    /// London, Paris with the quoted pairwise RTTs (ms).
    pub fn nearby_regions() -> Self {
        let names = vec!["FR", "MI", "LDN", "PAR"];
        // FR⇌MI 11, FR⇌LDN 17, FR⇌PAR 9, MI⇌LDN 25, MI⇌PAR 19, LDN⇌PAR 10.
        let rtt = vec![
            vec![0.0, 11.0, 17.0, 9.0],
            vec![11.0, 0.0, 25.0, 19.0],
            vec![17.0, 25.0, 0.0, 10.0],
            vec![9.0, 19.0, 10.0, 0.0],
        ];
        Self::from_rtt_ms(names, rtt)
    }

    /// The paper's wide-area placement (Section 8.3): California, Oregon,
    /// Virginia, Ohio, Tokyo, Seoul, Hong Kong.  RTTs (ms) follow public
    /// cloudping measurements between the corresponding AWS regions.
    pub fn wide_area_regions() -> Self {
        let names = vec!["CA", "OR", "VA", "OH", "TY", "SU", "HK"];
        let rtt = vec![
            //        CA     OR     VA     OH     TY     SU     HK
            vec![0.0, 22.0, 62.0, 50.0, 107.0, 135.0, 155.0], // CA
            vec![22.0, 0.0, 70.0, 58.0, 97.0, 125.0, 145.0],  // OR
            vec![62.0, 70.0, 0.0, 12.0, 167.0, 185.0, 210.0], // VA
            vec![50.0, 58.0, 12.0, 0.0, 155.0, 175.0, 195.0], // OH
            vec![107.0, 97.0, 167.0, 155.0, 0.0, 35.0, 50.0], // TY
            vec![135.0, 125.0, 185.0, 175.0, 35.0, 0.0, 39.0], // SU
            vec![155.0, 145.0, 210.0, 195.0, 50.0, 39.0, 0.0], // HK
        ];
        Self::from_rtt_ms(names, rtt)
    }

    /// Number of regions in the matrix.
    pub fn region_count(&self) -> usize {
        self.names.len()
    }

    /// Round-trip time between two regions.
    pub fn rtt(&self, a: Region, b: Region) -> Duration {
        if a == b {
            return Duration::from_micros(2 * self.intra_region_us);
        }
        let us = self
            .rtt_us
            .get(a.0 as usize)
            .and_then(|row| row.get(b.0 as usize))
            .copied()
            .unwrap_or(0);
        Duration::from_micros(us.max(2 * self.intra_region_us))
    }

    /// Overrides the jitter fraction.
    pub fn with_jitter(mut self, frac: f64) -> Self {
        self.jitter_frac = frac;
        self
    }

    /// One-way delay for a message of `bytes` bytes from region `a` to region
    /// `b`, sampling jitter from `rng`.
    pub fn one_way<R: Rng + ?Sized>(
        &self,
        a: Region,
        b: Region,
        bytes: usize,
        rng: &mut R,
    ) -> Duration {
        let base_us = if a == b {
            self.intra_region_us
        } else {
            (self.rtt(a, b).as_micros() / 2).max(self.intra_region_us)
        };
        let ser_us = (bytes as f64 / self.bytes_per_us) as u64;
        let jitter_us = if self.jitter_frac > 0.0 {
            let max_jitter = (base_us as f64 * self.jitter_frac).max(1.0);
            rng.gen_range(0.0..max_jitter) as u64
        } else {
            0
        };
        Duration::from_micros(base_us + ser_us + jitter_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nearby_matrix_matches_paper_values() {
        let m = LatencyMatrix::nearby_regions();
        assert_eq!(m.region_count(), 4);
        // FR ⇌ LDN is 17 ms in the paper.
        assert_eq!(m.rtt(Region(0), Region(2)), Duration::from_millis(17));
        // Symmetry.
        assert_eq!(m.rtt(Region(2), Region(0)), Duration::from_millis(17));
    }

    #[test]
    fn wide_area_matrix_is_symmetric_and_larger() {
        let m = LatencyMatrix::wide_area_regions();
        assert_eq!(m.region_count(), 7);
        for i in 0..7u8 {
            for j in 0..7u8 {
                assert_eq!(m.rtt(Region(i), Region(j)), m.rtt(Region(j), Region(i)));
            }
        }
        // Wide-area RTTs dominate the nearby ones.
        assert!(m.rtt(Region(0), Region(6)) > Duration::from_millis(100));
    }

    #[test]
    fn intra_region_latency_is_small_but_nonzero() {
        let m = LatencyMatrix::nearby_regions();
        let mut rng = StdRng::seed_from_u64(1);
        let d = m.one_way(Region(1), Region(1), 200, &mut rng);
        assert!(d >= Duration::from_micros(250));
        assert!(d < Duration::from_millis(2));
    }

    #[test]
    fn one_way_is_about_half_rtt_plus_serialization() {
        let m = LatencyMatrix::nearby_regions().with_jitter(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        // FR -> LDN, tiny message: ~8.5 ms.
        let d = m.one_way(Region(0), Region(2), 0, &mut rng);
        assert_eq!(d, Duration::from_micros(8_500));
        // A 1.25 MB message adds 10 ms of serialization at 1 Gb/s.
        let big = m.one_way(Region(0), Region(2), 1_250_000, &mut rng);
        assert_eq!(big, Duration::from_micros(8_500 + 10_000));
    }

    #[test]
    fn jitter_is_bounded() {
        let m = LatencyMatrix::nearby_regions().with_jitter(0.10);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let d = m.one_way(Region(0), Region(1), 0, &mut rng).as_micros();
            assert!((5_500..=6_050).contains(&d), "one-way {d}us outside bound");
        }
    }

    #[test]
    fn single_region_everything_is_local() {
        let m = LatencyMatrix::single_region();
        assert_eq!(m.region_count(), 1);
        assert_eq!(m.rtt(Region(0), Region(0)), Duration::from_micros(500));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_matrix_panics() {
        LatencyMatrix::from_rtt_ms(vec!["a", "b"], vec![vec![0.0, 1.0], vec![1.0]]);
    }

    #[test]
    fn builder_overrides_apply() {
        let m = LatencyMatrix::single_region().with_jitter(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        // 250 us intra-region plus 1 250 B at 125 B/us.
        let d = m.one_way(Region(0), Region(0), 1_250, &mut rng);
        assert_eq!(d, Duration::from_micros(260));
    }
}
