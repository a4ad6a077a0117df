//! The High Availability Controller (§4.6).
//!
//! The HAController is initialized with the off-line computed replica
//! activation strategy. At runtime it receives measured source rates from
//! the Rate Monitor, selects the declared input configuration that
//! dominates the measured rates with minimal slack (never underestimating
//! load; [`ConfigSpace::dominating_config`]), and, when the selected
//! configuration changes, reliably emits activation/deactivation commands
//! to the affected PE replicas.

use laar_model::{ActivationStrategy, ConfigId, ConfigSpace};
use serde::{Deserialize, Serialize};

/// Addresses one replica of one PE (dense indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReplicaSlot {
    /// Dense PE index.
    pub pe_dense: usize,
    /// Replica index in `0..k`.
    pub replica: usize,
}

/// A command sent by the HAController to a PE replica's proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// Resume processing (after re-synchronizing state with an active
    /// replica).
    Activate(ReplicaSlot),
    /// Stop processing and enter the idle, resource-saving state.
    Deactivate(ReplicaSlot),
}

impl Command {
    /// The slot this command addresses.
    pub fn slot(&self) -> ReplicaSlot {
        match self {
            Command::Activate(s) | Command::Deactivate(s) => *s,
        }
    }
}

/// The HAController state machine.
#[derive(Debug, Clone)]
pub struct HaController {
    strategy: ActivationStrategy,
    space: ConfigSpace,
    current: ConfigId,
    switches: u64,
}

impl HaController {
    /// Create a controller from the configuration space and the activation
    /// strategy computed off-line by FT-Search. The initial configuration is
    /// the componentwise-maximal one (safe until the first measurement).
    pub fn new(space: &ConfigSpace, strategy: ActivationStrategy) -> Self {
        Self {
            strategy,
            space: space.clone(),
            current: space.max_config(),
            switches: 0,
        }
    }

    /// The configuration the controller currently assumes.
    #[inline]
    pub fn current_config(&self) -> ConfigId {
        self.current
    }

    /// Number of configuration switches performed so far.
    #[inline]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The strategy driving this controller.
    #[inline]
    pub fn strategy(&self) -> &ActivationStrategy {
        &self.strategy
    }

    /// The activation states all replicas must hold in configuration `c`,
    /// as `(slot, active)` pairs.
    pub fn target_states(&self, c: ConfigId) -> Vec<(ReplicaSlot, bool)> {
        let mut out = Vec::with_capacity(self.strategy.num_pes() * self.strategy.k());
        for pe in 0..self.strategy.num_pes() {
            for r in 0..self.strategy.k() {
                out.push((
                    ReplicaSlot {
                        pe_dense: pe,
                        replica: r,
                    },
                    self.strategy.is_active(pe, c, r),
                ));
            }
        }
        out
    }

    /// Commands bringing a fresh deployment (everything active, as deployed)
    /// into the current configuration's target state.
    pub fn initial_commands(&self) -> Vec<Command> {
        self.target_states(self.current)
            .into_iter()
            .filter(|(_, active)| !active)
            .map(|(slot, _)| Command::Deactivate(slot))
            .collect()
    }

    /// Replace the activation strategy in place (a *hot swap*, §4.6 taken
    /// online): the controller keeps its current configuration id — the new
    /// descriptor must declare the same configuration lattice, re-estimated
    /// levels included — and replaces its configuration space with `space`
    /// so subsequent selections use the re-estimated rate levels. Returns the
    /// old strategy so the caller can diff old-vs-new activation and emit
    /// the minimal command set (see `laar-exec`'s `plan_swap`).
    ///
    /// # Panics
    ///
    /// If the new strategy's shape (PEs, configurations, `k`) differs from
    /// the incumbent's.
    pub fn swap_strategy(
        &mut self,
        space: &ConfigSpace,
        new: ActivationStrategy,
    ) -> ActivationStrategy {
        assert_eq!(new.num_pes(), self.strategy.num_pes(), "swap shape: PEs");
        assert_eq!(
            new.num_configs(),
            self.strategy.num_configs(),
            "swap shape: configs"
        );
        assert_eq!(new.k(), self.strategy.k(), "swap shape: k");
        assert_eq!(space.num_configs(), new.num_configs(), "swap shape: space");
        self.space = space.clone();
        std::mem::replace(&mut self.strategy, new)
    }

    /// Feed a measured rate vector; if the selected configuration changes,
    /// returns the activation/deactivation commands for exactly the replicas
    /// whose state differs between the two configurations.
    pub fn on_measured_rates(&mut self, measured: &[f64]) -> Vec<Command> {
        let next = self.space.dominating_config(measured);
        if next == self.current {
            return Vec::new();
        }
        let prev = self.current;
        self.current = next;
        self.switches += 1;
        let mut commands = Vec::new();
        for pe in 0..self.strategy.num_pes() {
            for r in 0..self.strategy.k() {
                let was = self.strategy.is_active(pe, prev, r);
                let now = self.strategy.is_active(pe, next, r);
                let slot = ReplicaSlot {
                    pe_dense: pe,
                    replica: r,
                };
                match (was, now) {
                    (false, true) => commands.push(Command::Activate(slot)),
                    (true, false) => commands.push(Command::Deactivate(slot)),
                    _ => {}
                }
            }
        }
        commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laar_model::{ConfigSpace, GraphBuilder};

    fn space() -> ConfigSpace {
        space_with(vec![4.0, 8.0])
    }

    /// A one-source, two-PE chain whose source has rate levels `levels`.
    fn space_with(levels: Vec<f64>) -> ConfigSpace {
        let mut b = GraphBuilder::new();
        let s = b.add_source("s");
        let p1 = b.add_pe("p1");
        let p2 = b.add_pe("p2");
        let k = b.add_sink("k");
        b.connect(s, p1, 1.0, 100.0).unwrap();
        b.connect(p1, p2, 1.0, 100.0).unwrap();
        b.connect_sink(p2, k).unwrap();
        let g = b.build().unwrap();
        ConfigSpace::new(&g, vec![levels], vec![0.8, 0.2]).unwrap()
    }

    /// Fig. 2b strategy: both replicas in Low, staggered singles in High.
    fn fig2b_strategy() -> ActivationStrategy {
        let mut s = ActivationStrategy::all_active(2, 2, 2);
        s.set_active(0, ConfigId(1), 1, false);
        s.set_active(1, ConfigId(1), 0, false);
        s
    }

    #[test]
    fn starts_in_max_config() {
        let ctl = HaController::new(&space(), fig2b_strategy());
        assert_eq!(ctl.current_config(), ConfigId(1));
        // Initial commands deactivate the two replicas inactive at High.
        let cmds = ctl.initial_commands();
        assert_eq!(cmds.len(), 2);
        assert!(cmds.iter().all(|c| matches!(c, Command::Deactivate(_))));
    }

    #[test]
    fn switch_to_low_activates_all() {
        let mut ctl = HaController::new(&space(), fig2b_strategy());
        let cmds = ctl.on_measured_rates(&[3.5]);
        assert_eq!(ctl.current_config(), ConfigId(0));
        assert_eq!(cmds.len(), 2);
        assert!(cmds.iter().all(|c| matches!(c, Command::Activate(_))));
        assert_eq!(ctl.switches(), 1);
    }

    #[test]
    fn no_commands_when_config_unchanged() {
        let mut ctl = HaController::new(&space(), fig2b_strategy());
        ctl.on_measured_rates(&[3.5]);
        let cmds = ctl.on_measured_rates(&[3.9]);
        assert!(cmds.is_empty());
        assert_eq!(ctl.switches(), 1);
    }

    #[test]
    fn spike_beyond_declared_rates_uses_max_config() {
        let mut ctl = HaController::new(&space(), fig2b_strategy());
        ctl.on_measured_rates(&[3.5]);
        let cmds = ctl.on_measured_rates(&[11.0]);
        assert_eq!(ctl.current_config(), ConfigId(1));
        assert_eq!(cmds.len(), 2);
        assert!(cmds.iter().all(|c| matches!(c, Command::Deactivate(_))));
    }

    #[test]
    fn selection_never_underestimates() {
        let mut ctl = HaController::new(&space(), fig2b_strategy());
        ctl.on_measured_rates(&[4.0]);
        assert_eq!(ctl.current_config(), ConfigId(0), "Low covers 4.0");
        // 4.1 t/s must select High (4.0 would underestimate).
        ctl.on_measured_rates(&[4.1]);
        assert_eq!(ctl.current_config(), ConfigId(1));
    }

    #[test]
    fn round_trip_low_high_low() {
        let mut ctl = HaController::new(&space(), fig2b_strategy());
        let to_low = ctl.on_measured_rates(&[2.0]);
        let to_high = ctl.on_measured_rates(&[7.5]);
        let back_low = ctl.on_measured_rates(&[1.0]);
        assert_eq!(to_low.len(), 2);
        assert_eq!(to_high.len(), 2);
        assert_eq!(back_low.len(), 2);
        // High->Low activates exactly the replicas Low->High deactivated.
        let deact: Vec<_> = to_high.iter().map(|c| c.slot()).collect();
        let react: Vec<_> = back_low.iter().map(|c| c.slot()).collect();
        assert_eq!(deact, react);
        assert_eq!(ctl.switches(), 3);
    }

    #[test]
    fn swap_strategy_keeps_config_and_reindexes() {
        let mut ctl = HaController::new(&space(), fig2b_strategy());
        ctl.on_measured_rates(&[3.5]);
        assert_eq!(ctl.current_config(), ConfigId(0));
        // Re-estimated descriptor: both levels drifted up by half.
        let est = space_with(vec![6.0, 12.0]);
        let old = ctl.swap_strategy(&est, ActivationStrategy::all_active(2, 2, 2));
        assert_eq!(old, fig2b_strategy());
        assert_eq!(ctl.current_config(), ConfigId(0), "config id preserved");
        assert_eq!(ctl.switches(), 1, "a swap is not a config switch");
        // Selection now uses the re-estimated levels: 5 t/s needed High in
        // the stale space and is within the new Low level.
        assert!(ctl.on_measured_rates(&[5.0]).is_empty());
        assert_eq!(ctl.current_config(), ConfigId(0));
        ctl.on_measured_rates(&[10.0]);
        assert_eq!(ctl.current_config(), ConfigId(1));
        assert_eq!(ctl.switches(), 2);
    }

    #[test]
    fn target_states_match_strategy() {
        let ctl = HaController::new(&space(), fig2b_strategy());
        let states = ctl.target_states(ConfigId(1));
        let inactive: Vec<_> = states
            .iter()
            .filter(|(_, a)| !a)
            .map(|(s, _)| (s.pe_dense, s.replica))
            .collect();
        assert_eq!(inactive, vec![(0, 1), (1, 0)]);
    }
}
