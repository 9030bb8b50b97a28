//! Connected applications for the PMWare reproduction.
//!
//! The paper demonstrates PMWare through applications that delegate their
//! place sensing to the middleware (§3):
//!
//! * [`placeads`] — **PlaceADs**: *"pushes advertisements and
//!   recommendations for new places based on user's mobility profile"*;
//!   each ad is a card the user likes or dislikes by swiping. The §4
//!   deployment measured a 17:3 like:dislike ratio.
//! * [`adsim`] — the simulated participant who swipes those cards: an ad
//!   is liked when it is genuinely contextual (near the user's *true*
//!   position and matching their tastes), so mis-discovered places degrade
//!   the ratio exactly as they would in the real study.
//! * [`todo`](mod@todo) — the §2.4 use case: a To-Do app that alerts on
//!   workplace arrival/departure between 9 AM and 6 PM at building-level
//!   granularity.
//! * [`lifelog`] — the life-logging app of §3 (Figure 4): visualises
//!   visited places, lets the user validate and semantically tag them
//!   (producing the ~70 % tagged fraction of §4), and reports stay time
//!   and visiting days per place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adsim;
pub mod lifelog;
pub mod placeads;
pub mod todo;

pub use adsim::UserTasteModel;
pub use lifelog::LifeLogApp;
pub use placeads::{AdCard, AdInventory, PlaceAdsApp};
pub use todo::{Reminder, TodoApp};
