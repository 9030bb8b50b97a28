//! Consistent-hash ring over instance ids.
//!
//! The default placement policy: each instance contributes a fixed number
//! of virtual points hashed onto a `u64` circle, and a user key lands on
//! the first point clockwise of its own hash. Adding or removing one
//! instance only moves the keys that hashed into its arcs — the classic
//! minimal-disruption property that keeps a failover from reshuffling the
//! whole population. FNV-1a ([`fnv1a`]) keeps the hash deterministic
//! across runs and platforms (no `RandomState`).

use super::InstanceId;
use crate::storage::fnv1a;

/// Virtual points per instance. Enough to spread small-N rings evenly;
/// deterministic, so baked in rather than configurable.
const VNODES: u32 = 64;

/// A consistent-hash ring: sorted `(point, instance)` pairs.
#[derive(Debug, Clone, Default)]
pub(super) struct HashRing {
    points: Vec<(u64, InstanceId)>,
}

impl HashRing {
    /// Builds the ring over `instances` (typically the healthy subset).
    pub(super) fn build(instances: &[InstanceId]) -> HashRing {
        let mut points = Vec::with_capacity(instances.len() * VNODES as usize);
        for &id in instances {
            for vnode in 0..VNODES {
                let label = format!("instance-{}-vnode-{vnode}", id.0);
                points.push((fnv1a(label.as_bytes()), id));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The instance owning `key`: first ring point at or clockwise of the
    /// key's hash, wrapping at the top. `None` on an empty ring.
    pub(super) fn place(&self, key: &str) -> Option<InstanceId> {
        if self.points.is_empty() {
            return None;
        }
        let hash = fnv1a(key.as_bytes());
        let idx = self.points.partition_point(|&(point, _)| point < hash);
        let (_, id) = self.points[idx % self.points.len()];
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic() {
        let ring = HashRing::build(&[InstanceId(0), InstanceId(1), InstanceId(2)]);
        for key in ["a|1", "b|2", "c|3"] {
            assert_eq!(ring.place(key), ring.place(key));
        }
    }

    #[test]
    fn empty_ring_places_nothing() {
        assert_eq!(HashRing::build(&[]).place("k"), None);
    }

    #[test]
    fn removing_an_instance_only_moves_its_keys() {
        let full = HashRing::build(&[InstanceId(0), InstanceId(1), InstanceId(2)]);
        let reduced = HashRing::build(&[InstanceId(0), InstanceId(2)]);
        for i in 0..200 {
            let key = format!("user-{i}|u{i}@example.com");
            let before = full.place(&key).unwrap();
            let after = reduced.place(&key).unwrap();
            if before != InstanceId(1) {
                assert_eq!(before, after, "surviving placement moved for {key}");
            } else {
                assert_ne!(after, InstanceId(1));
            }
        }
    }

    #[test]
    fn small_rings_spread_keys() {
        let ring = HashRing::build(&[InstanceId(0), InstanceId(1)]);
        let mut counts = [0u32; 2];
        for i in 0..1000 {
            let key = format!("imei-{i}|user{i}@example.com");
            counts[ring.place(&key).unwrap().0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 200), "lopsided ring: {counts:?}");
    }
}
