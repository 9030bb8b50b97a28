//! The message-passing interface between PMS and connected applications.
//!
//! §2.2.4: *"different third party applications can communicate with PMWare
//! using message passing interfaces provided by mobile operating system
//! e.g. intents and broadcasts in Android OS."* The simulation's analogue
//! is an in-process broadcast bus with Android-like actions and JSON
//! extras; receivers are crossbeam channels so that applications can run on
//! other threads.

use crossbeam::channel::{unbounded, Receiver, Sender};
use pmware_world::SimTime;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Well-known intent actions broadcast by PMS.
pub mod actions {
    /// User arrived at a place. Extras: `place`, `label`, `latitude`,
    /// `longitude`, `granularity`.
    pub const PLACE_ARRIVAL: &str = "pmware.place.ARRIVAL";
    /// User departed a place. Same extras as arrival.
    pub const PLACE_DEPARTURE: &str = "pmware.place.DEPARTURE";
    /// A never-before-seen place was discovered. Same extras.
    pub const PLACE_NEW: &str = "pmware.place.NEW";
    /// A route traversal completed. Extras: `route`, `from`, `to`.
    pub const ROUTE_COMPLETED: &str = "pmware.route.COMPLETED";
    /// A social contact was detected at the current place. Extras:
    /// `contact`, `place`.
    pub const SOCIAL_CONTACT: &str = "pmware.social.CONTACT";
}

/// A broadcast message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Intent {
    /// Action string, e.g. [`actions::PLACE_ARRIVAL`].
    pub action: String,
    /// When the underlying event happened.
    pub time: SimTime,
    /// JSON payload.
    pub extras: Value,
}

impl Intent {
    /// Creates an intent.
    pub fn new(action: impl Into<String>, time: SimTime, extras: Value) -> Intent {
        Intent {
            action: action.into(),
            time,
            extras,
        }
    }
}

/// What a receiver subscribes to: a set of exact action strings
/// (the analogue of an Android intent filter, §2.4 step 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntentFilter {
    actions: Vec<String>,
}

impl IntentFilter {
    /// Matches the listed actions.
    pub fn for_actions<I, S>(actions: I) -> IntentFilter
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        IntentFilter {
            actions: actions.into_iter().map(Into::into).collect(),
        }
    }

    /// Matches every action.
    pub fn all() -> IntentFilter {
        IntentFilter {
            actions: Vec::new(),
        }
    }

    /// Whether `action` passes this filter.
    pub fn matches(&self, action: &str) -> bool {
        self.actions.is_empty() || self.actions.iter().any(|a| a == action)
    }
}

/// The broadcast bus.
///
/// # Examples
///
/// ```
/// use pmware_core::intents::{actions, Intent, IntentBus, IntentFilter};
/// use pmware_world::SimTime;
/// use serde_json::json;
///
/// let mut bus = IntentBus::new();
/// let rx = bus.register(
///     "todo-app",
///     IntentFilter::for_actions([actions::PLACE_ARRIVAL]),
/// );
/// bus.broadcast(&Intent::new(
///     actions::PLACE_ARRIVAL,
///     SimTime::EPOCH,
///     json!({"place": 0}),
/// ));
/// assert_eq!(rx.try_recv().unwrap().extras["place"], 0);
/// ```
#[derive(Debug)]
pub struct IntentBus {
    receivers: Vec<Registration>,
    delivered: u64,
}

#[derive(Debug)]
struct Registration {
    name: String,
    filter: IntentFilter,
    tx: Sender<Intent>,
}

impl IntentBus {
    /// An empty bus.
    pub fn new() -> IntentBus {
        IntentBus {
            receivers: Vec::new(),
            delivered: 0,
        }
    }

    /// Registers a named receiver; returns its channel.
    pub fn register(&mut self, name: impl Into<String>, filter: IntentFilter) -> Receiver<Intent> {
        let (tx, rx) = unbounded();
        self.receivers.push(Registration {
            name: name.into(),
            filter,
            tx,
        });
        rx
    }

    /// Removes a receiver by name; returns whether one was removed.
    pub fn unregister(&mut self, name: &str) -> bool {
        let before = self.receivers.len();
        self.receivers.retain(|r| r.name != name);
        self.receivers.len() != before
    }

    /// Total intents delivered (copies count individually).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Broadcasts an intent to every matching, still-connected receiver.
    /// Disconnected receivers are dropped.
    pub fn broadcast(&mut self, intent: &Intent) {
        let mut dead: Vec<usize> = Vec::new();
        for (idx, reg) in self.receivers.iter().enumerate() {
            if !reg.filter.matches(&intent.action) {
                continue;
            }
            match reg.tx.send(intent.clone()) {
                Ok(()) => self.delivered += 1,
                Err(_) => dead.push(idx),
            }
        }
        for idx in dead.into_iter().rev() {
            self.receivers.swap_remove(idx);
        }
    }

    /// Broadcasts a per-receiver customised intent: `f(name)` produces the
    /// payload for each receiver (or `None` to skip it). This is how PMS
    /// applies per-app granularity permissions to one underlying event.
    pub fn broadcast_with<F>(&mut self, action: &str, mut f: F)
    where
        F: FnMut(&str) -> Option<Intent>,
    {
        let mut dead: Vec<usize> = Vec::new();
        for (idx, reg) in self.receivers.iter().enumerate() {
            if !reg.filter.matches(action) {
                continue;
            }
            let Some(intent) = f(&reg.name) else { continue };
            match reg.tx.send(intent) {
                Ok(()) => self.delivered += 1,
                Err(_) => dead.push(idx),
            }
        }
        for idx in dead.into_iter().rev() {
            self.receivers.swap_remove(idx);
        }
    }
}

impl Default for IntentBus {
    fn default() -> Self {
        IntentBus::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn intent(action: &str) -> Intent {
        Intent::new(action, SimTime::EPOCH, json!({}))
    }

    #[test]
    fn filter_matching() {
        let f = IntentFilter::for_actions([actions::PLACE_ARRIVAL, actions::PLACE_NEW]);
        assert!(f.matches(actions::PLACE_ARRIVAL));
        assert!(f.matches(actions::PLACE_NEW));
        assert!(!f.matches(actions::PLACE_DEPARTURE));
        assert!(IntentFilter::all().matches("anything.at.ALL"));
    }

    #[test]
    fn broadcast_reaches_only_matching_receivers() {
        let mut bus = IntentBus::new();
        let arrivals = bus.register("a", IntentFilter::for_actions([actions::PLACE_ARRIVAL]));
        let everything = bus.register("b", IntentFilter::all());
        bus.broadcast(&intent(actions::PLACE_ARRIVAL));
        bus.broadcast(&intent(actions::ROUTE_COMPLETED));
        assert_eq!(arrivals.try_iter().count(), 1);
        assert_eq!(everything.try_iter().count(), 2);
        assert_eq!(bus.delivered_count(), 3);
    }

    #[test]
    fn unregister_removes_receiver() {
        let mut bus = IntentBus::new();
        let rx = bus.register("a", IntentFilter::all());
        assert!(bus.unregister("a"));
        assert!(!bus.unregister("a"));
        bus.broadcast(&intent(actions::PLACE_NEW));
        assert_eq!(rx.try_iter().count(), 0);
    }

    #[test]
    fn dropped_receiver_is_pruned_on_broadcast() {
        let mut bus = IntentBus::new();
        let rx = bus.register("a", IntentFilter::all());
        drop(rx);
        bus.broadcast(&intent(actions::PLACE_NEW));
        assert!(!bus.unregister("a"));
    }

    #[test]
    fn broadcast_with_customises_per_receiver() {
        let mut bus = IntentBus::new();
        let fine = bus.register("fine-app", IntentFilter::all());
        let coarse = bus.register("coarse-app", IntentFilter::all());
        let skipped = bus.register("blocked-app", IntentFilter::all());
        bus.broadcast_with(actions::PLACE_ARRIVAL, |name| match name {
            "blocked-app" => None,
            name => Some(Intent::new(
                actions::PLACE_ARRIVAL,
                SimTime::EPOCH,
                json!({"granularity": if name == "fine-app" { "room" } else { "area" }}),
            )),
        });
        assert_eq!(fine.try_recv().unwrap().extras["granularity"], "room");
        assert_eq!(coarse.try_recv().unwrap().extras["granularity"], "area");
        assert_eq!(skipped.try_iter().count(), 0);
    }

    #[test]
    fn cross_thread_delivery() {
        let mut bus = IntentBus::new();
        let rx = bus.register("worker", IntentFilter::all());
        let handle = std::thread::spawn(move || rx.recv().unwrap().action);
        bus.broadcast(&intent(actions::SOCIAL_CONTACT));
        assert_eq!(handle.join().unwrap(), actions::SOCIAL_CONTACT);
    }
}
