//! Names the frozen `benchmark/` package compiles against; deleted with `net.calendar_event_ns`.

use crate::{Addr, BoxedActor, CpuProfile, LatencyMatrix, MessageMeta, Simulation};
use saguaro_types::Region;

/// [`Simulation::register`] and [`Simulation::inject`] behind a bound.
pub trait SimRuntime<M> {
    fn register(&mut self, addr: Addr, region: Region, cpu: CpuProfile, actor: BoxedActor<M>);
    fn inject(&mut self, from: Addr, to: Addr, msg: M);
}

impl<M: MessageMeta + Clone + 'static> SimRuntime<M> for Simulation<M> {
    fn register(&mut self, addr: Addr, region: Region, cpu: CpuProfile, actor: BoxedActor<M>) {
        Simulation::register(self, addr, region, cpu, actor);
    }
    fn inject(&mut self, from: Addr, to: Addr, msg: M) {
        Simulation::inject(self, from, to, msg);
    }
}

/// A [`Simulation`] under the removed parallel engine's name.
pub struct ParallelSimulation<M>(Simulation<M>);
impl<M> ParallelSimulation<M> {
    /// [`Simulation::new`]; `n`, the partition count, must be 1, the rest is ignored.
    pub fn new(lat: LatencyMatrix, seed: u64, n: usize, _: usize, _: impl Fn(Addr) -> u32) -> Self {
        assert!(
            n == 1,
            "the parallel engine was removed; only one partition is supported (got {n})"
        );
        Self(Simulation::new(lat, seed))
    }
}

impl<M> std::ops::Deref for ParallelSimulation<M> {
    type Target = Simulation<M>;
    fn deref(&self) -> &Simulation<M> {
        &self.0
    }
}

impl<M> std::ops::DerefMut for ParallelSimulation<M> {
    fn deref_mut(&mut self) -> &mut Simulation<M> {
        &mut self.0
    }
}

impl<M: MessageMeta + Clone + 'static> SimRuntime<M> for ParallelSimulation<M> {
    fn register(&mut self, addr: Addr, region: Region, cpu: CpuProfile, actor: BoxedActor<M>) {
        self.0.register(addr, region, cpu, actor);
    }
    fn inject(&mut self, from: Addr, to: Addr, msg: M) {
        self.0.inject(from, to, msg);
    }
}

#[test]
#[should_panic(expected = "only one partition is supported (got 2)")]
fn more_than_one_partition_is_refused() {
    ParallelSimulation::<()>::new(LatencyMatrix::single_region(), 1, 2, 1, |_| 0);
}
