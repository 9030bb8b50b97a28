//! PMS checkpoint/restore (crash recovery).
//!
//! A phone reboots: the process dies mid-day with stays open, encounters
//! in flight, and a half-acknowledged sync buffer. [`PmsCheckpoint`] is
//! the durable state the service writes to "flash" so the next boot
//! resumes with no data loss — restored runs are bit-identical to
//! uninterrupted ones (verified by the chaos-matrix suite).
//!
//! What the checkpoint holds, and what it deliberately leaves out:
//!
//! * **Client state** — auth token, expiry, and the monotonic sync
//!   sequence. Losing the sequence would desynchronize the server-side
//!   idempotency watermarks, so it is durable.
//! * **Inference state** — the raw observation logs, the WiFi detector,
//!   and the online tracker's in-flight debounce counters. The
//!   incremental GCA engine is *not* serialized: its state is a pure
//!   function of the absorbed log (its cell-keyed graph would not survive
//!   JSON anyway), so restore replays the log through a fresh engine.
//! * **Sync buffers and watermarks** — pending profiles/contacts, the
//!   contact stream offset, and the offload watermark, so at-least-once
//!   delivery resumes exactly where it stopped.
//! * **Not** the device (battery and RNG continue in the `Device` value
//!   handed back by `shutdown`) and **not** connected apps (intent
//!   channels cannot outlive the process; apps re-register on boot, and
//!   the user's privacy preferences survive in the checkpoint).
//!
//! The format is plain JSON via [`to_json`](PmsCheckpoint::to_json) /
//! [`from_json`](PmsCheckpoint::from_json) — human-inspectable and
//! stable under the vendored serde.

use std::collections::BTreeMap;

use pmware_algorithms::route::RouteStore;
use pmware_cloud::{ContactEntry, MobilityProfile};
use pmware_device::MovementSnapshot;
use pmware_world::SimTime;
use serde::{Deserialize, Serialize};

use crate::cloud_client::ClientState;
use crate::inference::InferenceSnapshot;
use crate::pms::{OpenEncounter, PmsCounters};
use crate::preferences::UserPreferences;
use crate::profile_builder::ProfileBuilder;
use crate::registry::{PlaceRegistry, PmPlaceId};
use crate::sensing::SensingScheduler;

/// The durable state of a [`PmwareMobileService`](crate::pms::PmwareMobileService).
///
/// Produce with `checkpoint()`, persist with [`to_json`](Self::to_json),
/// resume with `restore()`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PmsCheckpoint {
    pub(crate) client: ClientState,
    pub(crate) prefs: UserPreferences,
    pub(crate) scheduler: SensingScheduler,
    pub(crate) movement: MovementSnapshot,
    pub(crate) engine: InferenceSnapshot,
    pub(crate) registry: PlaceRegistry,
    pub(crate) profiles: ProfileBuilder,
    pub(crate) routes: RouteStore,
    pub(crate) open_encounters: BTreeMap<String, OpenEncounter>,
    pub(crate) pending_contacts: Vec<ContactEntry>,
    pub(crate) contacts_seq_base: u64,
    pub(crate) pending_profiles: Vec<MobilityProfile>,
    pub(crate) current_place: Option<PmPlaceId>,
    pub(crate) last_departure: Option<(PmPlaceId, SimTime)>,
    pub(crate) clock: SimTime,
    pub(crate) last_maintenance_day: Option<u64>,
    pub(crate) offloaded_upto: u64,
    pub(crate) counters: PmsCounters,
}

impl PmsCheckpoint {
    /// Serializes the checkpoint to JSON (the on-flash format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes")
    }

    /// Parses a checkpoint back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns the decode error when the JSON is malformed or does not
    /// match the checkpoint schema.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}
