//! The actors of a delivery world and the typed seam between them.
//!
//! Each submodule owns one actor kind — its struct, state machine and
//! unit tests. Actor handlers receive an [`ActorCtx`] carrying the
//! shared world services (clock, config, RNG, event queue, traffic
//! ledgers) plus explicit typed views of whatever sibling data
//! they need; they never reach into another actor's fields. Cross-actor
//! flows are orchestrated by [`crate::world`] (routing) and
//! [`crate::session`] (client lifecycle).

pub(crate) mod cdn;
pub(crate) mod client;
pub(crate) mod relay;
pub(crate) mod stream;

use crate::config::SystemConfig;
use crate::cost::TrafficLedger;
use crate::energy::EnergyModel;
use crate::events::{Event, SlicePool};
use crate::world::Group;
use rlive_sim::{EventQueue, SimDuration, SimRng, SimTime};

/// The shared services an actor handler may use: the clock, the world
/// RNG (all randomness flows through it, in deterministic order), the
/// event queue, the slice pool, configuration, the energy model and the
/// per-group traffic ledgers.
///
/// Borrowing these as one bundle (disjoint from the actor collections)
/// is what lets a handler mutate its own actor while scheduling events
/// and charging ledgers, without ever touching sibling actors.
pub(crate) struct ActorCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// End of the run; events past this point need not be scheduled.
    pub end_at: SimTime,
    /// System configuration.
    pub cfg: &'a SystemConfig,
    /// The world RNG.
    pub rng: &'a mut SimRng,
    /// The event queue.
    pub queue: &'a mut EventQueue<Event>,
    /// Where scheduled slices get their boxes.
    pub slices: &'a mut SlicePool,
    /// Client-side energy model.
    pub energy_model: &'a EnergyModel,
    /// Control-group traffic ledger.
    pub control_traffic: &'a mut TrafficLedger,
    /// Test-group traffic ledger.
    pub test_traffic: &'a mut TrafficLedger,
}

impl ActorCtx<'_> {
    /// The traffic ledger of `group`.
    pub fn ledger(&mut self, group: Group) -> &mut TrafficLedger {
        match group {
            Group::Control => self.control_traffic,
            Group::Test => self.test_traffic,
        }
    }

    /// The fixed frame interval (30 fps).
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / 30.0)
    }
}

/// Builds an [`ActorCtx`] from a `World`'s fields by disjoint field
/// borrows, leaving the actor collections (`streams`, `cdn`, `relays`,
/// `clients`, `super_node`) free to borrow alongside it.
macro_rules! actor_ctx {
    ($world:expr, $now:expr) => {
        $crate::actors::ActorCtx {
            now: $now,
            end_at: $world.end_at,
            cfg: &$world.cfg,
            rng: &mut $world.rng,
            queue: &mut $world.queue,
            slices: &mut $world.slices,
            energy_model: &$world.energy_model,
            control_traffic: &mut $world.control_traffic,
            test_traffic: &mut $world.test_traffic,
        }
    };
}
pub(crate) use actor_ctx;
