//! The per-sim-window time-series sampler.
//!
//! Drivers poll it with an [`EngineObservation`] snapshot after each
//! bounded drive step; whenever at least one window of simulated time has
//! passed since the last emitted sample, the sampler records a
//! [`SeriesSample`] carrying the **deltas** of the cumulative counters
//! over the elapsed window and the **instantaneous** levels (live nodes,
//! queue depth, repair backlog). Every input is a deterministic function
//! of sim time, so the series is byte-identical across runs of the same
//! spec — the same contract as the deterministic reports.

use tapestry_sim::SimTime;

/// One snapshot of engine-level state, taken by the driver at `now`.
#[derive(Debug, Clone, Default)]
pub struct EngineObservation {
    /// Sample instant (simulated).
    pub now: SimTime,
    /// Cumulative events processed, split by kind
    /// ([`tapestry_sim::EVENT_KINDS`] order).
    pub events_by_kind: [u64; 3],
    /// Cumulative node-to-node sends.
    pub messages: u64,
    /// Cumulative dead-target drops.
    pub dropped: u64,
    /// Live nodes at the instant.
    pub live_nodes: u64,
    /// Repair-ledger facts pending across live nodes at the instant.
    pub repair_backlog: u64,
    /// Pending events at the instant.
    pub queue_depth: u64,
}

/// One emitted time-series point: counter deltas over the window ending
/// at `at`, plus instantaneous levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSample {
    /// Window end (simulated time).
    pub at: SimTime,
    /// Events processed in the window, by kind.
    pub events: [u64; 3],
    /// Messages sent in the window.
    pub messages: u64,
    /// Dead-target drops in the window.
    pub dropped: u64,
    /// Live nodes at `at`.
    pub live_nodes: u64,
    /// Repair backlog at `at`.
    pub repair_backlog: u64,
    /// Pending events at `at`.
    pub queue_depth: u64,
}

/// Windowed sampler over [`EngineObservation`]s (see the module docs).
#[derive(Debug)]
pub struct SeriesSampler {
    window: u64,
    next_at: u64,
    last_counters: ([u64; 3], u64, u64),
    samples: Vec<SeriesSample>,
}

impl SeriesSampler {
    /// A sampler emitting at most one sample per `window` sim-time units
    /// (at least 1; windows of 0 would emit on every poll).
    pub fn new(window: u64) -> Self {
        SeriesSampler {
            window: window.max(1),
            next_at: 0,
            last_counters: ([0; 3], 0, 0),
            samples: Vec::new(),
        }
    }

    /// The configured window, in sim-time units.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Would a poll at `now` emit? Drivers use this to skip assembling an
    /// [`EngineObservation`] (the backlog scan is O(nodes))
    /// on the event-loop iterations inside a window.
    pub fn due(&self, now: SimTime) -> bool {
        now.0 >= self.next_at
    }

    /// Offer a snapshot; emits a sample when a window has elapsed since
    /// the last one (and on the very first poll, the run's baseline).
    pub fn poll(&mut self, obs: &EngineObservation) {
        if obs.now.0 < self.next_at {
            return;
        }
        self.emit(obs);
    }

    /// Force a final sample at `obs.now` regardless of window position
    /// (drivers call this once at end of run so the tail is captured).
    /// Skipped when a sample for this instant already exists.
    pub fn finish(&mut self, obs: &EngineObservation) {
        if self.samples.last().is_some_and(|s| s.at == obs.now) {
            return;
        }
        self.emit(obs);
    }

    fn emit(&mut self, obs: &EngineObservation) {
        let (ev0, msg0, drop0) = self.last_counters;
        self.samples.push(SeriesSample {
            at: obs.now,
            events: [
                obs.events_by_kind[0] - ev0[0],
                obs.events_by_kind[1] - ev0[1],
                obs.events_by_kind[2] - ev0[2],
            ],
            messages: obs.messages - msg0,
            dropped: obs.dropped - drop0,
            live_nodes: obs.live_nodes,
            repair_backlog: obs.repair_backlog,
            queue_depth: obs.queue_depth,
        });
        self.last_counters = (obs.events_by_kind, obs.messages, obs.dropped);
        self.next_at = obs.now.0 + self.window;
    }

    /// Samples emitted so far, in time order.
    pub fn samples(&self) -> &[SeriesSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(now: u64, events: u64, messages: u64, live: u64) -> EngineObservation {
        EngineObservation {
            now: SimTime(now),
            events_by_kind: [events, 0, 0],
            messages,
            dropped: 0,
            live_nodes: live,
            repair_backlog: 0,
            queue_depth: 7,
        }
    }

    #[test]
    fn windows_gate_emission_and_deltas_are_per_window() {
        let mut s = SeriesSampler::new(100);
        s.poll(&obs(0, 0, 0, 10)); // baseline emits
        s.poll(&obs(50, 5, 2, 10)); // inside the window: skipped
        s.poll(&obs(120, 9, 4, 11)); // window passed: emits deltas
        assert_eq!(s.samples().len(), 2);
        let last = &s.samples()[1];
        assert_eq!(last.at, SimTime(120));
        assert_eq!(last.events[0], 9, "delta vs the last *emitted* sample");
        assert_eq!(last.messages, 4);
        assert_eq!(last.live_nodes, 11);
        assert_eq!(last.queue_depth, 7);
    }

    #[test]
    fn finish_forces_a_tail_sample_once() {
        let mut s = SeriesSampler::new(1000);
        s.poll(&obs(0, 0, 0, 1));
        s.poll(&obs(10, 3, 1, 1)); // skipped by the window
        s.finish(&obs(10, 3, 1, 1));
        assert_eq!(s.samples().len(), 2, "finish captures the tail");
        s.finish(&obs(10, 3, 1, 1));
        assert_eq!(s.samples().len(), 2, "idempotent at one instant");
    }

    #[test]
    fn zero_window_is_clamped() {
        let s = SeriesSampler::new(0);
        assert_eq!(s.window(), 1);
    }
}
