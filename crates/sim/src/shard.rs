//! A serial stand-in for the sharded engine, which is gone.

use crate::engine::Simulator;
use crate::time::SimTime;

/// The serial engine behind the sharded engine's call shape.
///
/// It exists only for `perf/`'s `shard_probe`, which still calls
/// [`split`](ShardedSimulator::split),
/// [`run_until`](ShardedSimulator::run_until) and
/// [`into_serial`](ShardedSimulator::into_serial): the probe's run is
/// the serial run. The benchmark change that drops `shard_probe`
/// deletes this type.
pub struct ShardedSimulator {
    sim: Simulator,
}

impl ShardedSimulator {
    /// Wrap `sim`. The shard count is the probe's call shape, not an
    /// option: nothing is split.
    pub fn split(sim: Simulator, _shards: usize) -> ShardedSimulator {
        ShardedSimulator { sim }
    }

    /// [`Simulator::run_until`], on the caller's thread.
    pub fn run_until(&mut self, deadline: SimTime, _threads: usize) {
        self.sim.run_until(deadline);
    }

    /// The wrapped simulator.
    pub fn into_serial(self) -> Simulator {
        self.sim
    }
}
