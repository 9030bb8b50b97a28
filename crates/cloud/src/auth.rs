//! Registration and token authentication (§2.2.1 / §2.3.3).
//!
//! *"The device is uniquely identified jointly by its IMEI number and phone
//! email account. It sends a one time registration request to the cloud
//! instance to retrieve an authentication token, which is used for further
//! communication. The authentication token is refreshed periodically based
//! on its expiry time."*

use std::collections::HashMap;

use pmware_world::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A registered user/device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct UserId(pub u32);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "user:{}", self.0)
    }
}

/// The joint device identity used at registration.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceIdentity {
    /// Phone IMEI.
    pub imei: String,
    /// Account email.
    pub email: String,
}

/// An issued bearer token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthToken {
    /// The opaque token string.
    pub token: String,
    /// Expiry instant.
    pub expires_at: SimTime,
}

/// Server-side token registry.
#[derive(Debug, Clone, Default)]
pub struct TokenStore {
    by_identity: HashMap<DeviceIdentity, UserId>,
    tokens: HashMap<String, (UserId, SimTime)>,
    next_user: u32,
    ttl: SimDuration,
}

impl TokenStore {
    /// Creates a store with the given token time-to-live.
    pub fn new(ttl: SimDuration) -> Self {
        TokenStore {
            by_identity: HashMap::new(),
            tokens: HashMap::new(),
            next_user: 0,
            ttl,
        }
    }

    /// Token time-to-live.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.by_identity.len()
    }

    /// Registers a device (idempotent per identity) and issues a fresh
    /// token valid for the TTL.
    pub fn register<R: Rng + ?Sized>(
        &mut self,
        identity: DeviceIdentity,
        now: SimTime,
        rng: &mut R,
    ) -> (UserId, AuthToken) {
        let user = *self.by_identity.entry(identity).or_insert_with(|| {
            let id = UserId(self.next_user);
            self.next_user += 1;
            id
        });
        let token = self.issue(user, now, rng);
        (user, token)
    }

    /// Issues a new token for an already-registered user.
    pub fn issue<R: Rng + ?Sized>(&mut self, user: UserId, now: SimTime, rng: &mut R) -> AuthToken {
        let token = format!("tok-{:016x}{:016x}", rng.gen::<u64>(), rng.gen::<u64>());
        let expires_at = now + self.ttl;
        self.tokens.insert(token.clone(), (user, expires_at));
        AuthToken { token, expires_at }
    }

    /// Validates a bearer token at `now`, returning the user it belongs to.
    /// Expired and unknown tokens are rejected.
    pub fn validate(&self, token: &str, now: SimTime) -> Option<UserId> {
        let (user, expires_at) = self.tokens.get(token)?;
        (now < *expires_at).then_some(*user)
    }

    /// Exchanges a still-valid token for a fresh one (the periodic refresh
    /// of §2.2.1). Returns `None` if the old token is invalid or expired.
    pub fn refresh<R: Rng + ?Sized>(
        &mut self,
        token: &str,
        now: SimTime,
        rng: &mut R,
    ) -> Option<AuthToken> {
        let user = self.validate(token, now)?;
        self.tokens.remove(token);
        Some(self.issue(user, now, rng))
    }

    /// Grafts an externally-issued token string onto `user`. Crash
    /// recovery: the token a client is *already holding* from the dead
    /// instance must keep validating on the recovered one.
    pub fn adopt(&mut self, user: UserId, token: &str, expires_at: SimTime) {
        self.tokens.insert(token.to_owned(), (user, expires_at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn store() -> (TokenStore, StdRng) {
        (
            TokenStore::new(SimDuration::from_hours(24)),
            StdRng::seed_from_u64(1),
        )
    }

    fn identity(n: u32) -> DeviceIdentity {
        DeviceIdentity {
            imei: format!("imei-{n}"),
            email: format!("u{n}@example.com"),
        }
    }

    #[test]
    fn register_issues_valid_token() {
        let (mut s, mut rng) = store();
        let now = SimTime::EPOCH;
        let (user, token) = s.register(identity(0), now, &mut rng);
        assert_eq!(s.validate(&token.token, now), Some(user));
        assert_eq!(s.user_count(), 1);
    }

    #[test]
    fn registration_is_idempotent_per_identity() {
        let (mut s, mut rng) = store();
        let now = SimTime::EPOCH;
        let (u1, _) = s.register(identity(0), now, &mut rng);
        let (u2, _) = s.register(identity(0), now, &mut rng);
        assert_eq!(u1, u2);
        assert_eq!(s.user_count(), 1);
        let (u3, _) = s.register(identity(1), now, &mut rng);
        assert_ne!(u1, u3);
    }

    #[test]
    fn token_expires() {
        let (mut s, mut rng) = store();
        let now = SimTime::EPOCH;
        let (user, token) = s.register(identity(0), now, &mut rng);
        let before = now + SimDuration::from_hours(23);
        let after = now + SimDuration::from_hours(25);
        assert_eq!(s.validate(&token.token, before), Some(user));
        assert_eq!(s.validate(&token.token, after), None);
    }

    #[test]
    fn unknown_token_rejected() {
        let (s, _) = store();
        assert_eq!(s.validate("tok-bogus", SimTime::EPOCH), None);
    }

    #[test]
    fn refresh_rotates_token() {
        let (mut s, mut rng) = store();
        let now = SimTime::EPOCH;
        let (user, old) = s.register(identity(0), now, &mut rng);
        let later = now + SimDuration::from_hours(20);
        let new = s.refresh(&old.token, later, &mut rng).expect("still valid");
        assert_ne!(new.token, old.token);
        // Old token is dead, new one is valid past the old expiry.
        assert_eq!(s.validate(&old.token, later), None);
        let past_old_expiry = now + SimDuration::from_hours(30);
        assert_eq!(s.validate(&new.token, past_old_expiry), Some(user));
    }

    #[test]
    fn refresh_of_expired_token_fails() {
        let (mut s, mut rng) = store();
        let now = SimTime::EPOCH;
        let (_, old) = s.register(identity(0), now, &mut rng);
        let after = now + SimDuration::from_hours(25);
        assert!(s.refresh(&old.token, after, &mut rng).is_none());
    }

    #[test]
    fn tokens_are_unique() {
        let (mut s, mut rng) = store();
        let mut seen = std::collections::HashSet::new();
        let (user, _) = s.register(identity(0), SimTime::EPOCH, &mut rng);
        for _ in 0..100 {
            let t = s.issue(user, SimTime::EPOCH, &mut rng);
            assert!(seen.insert(t.token));
        }
    }
}
