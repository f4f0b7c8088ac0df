//! Causality analysis over execution traces: vector clocks, happens-before,
//! consistent frontiers, races, and post-hoc deadlock detection.

pub mod cut;
pub mod deadlock;
pub mod frontier;
pub mod hb;
pub mod race;
pub mod vclock;

pub use cut::{cut_of_time, verify_cut, CutViolation};
pub use deadlock::{detect_circular_waits, CircularWait};
pub use frontier::{ConcurrencyRegion, Frontier};
pub use hb::{collective_instances, HbIndex, NonCausalTrace};
pub use race::{detect_races, MessageRace};
pub use vclock::VectorClock;
