//! PMWare Cloud Instance (PCI).
//!
//! §2.3 of the paper: the cloud instance *"is responsible for storing and
//! managing long-term human mobility patterns, helping mobile service in
//! place/route discovery process, as well as performing advanced analytics
//! and prediction operations"*. The authors ran it as a Django/Apache
//! service on Windows Azure; here it is an in-process server speaking the
//! same REST shape through typed [`api::Request`]/[`api::Response`]
//! values, which exercises routing and token auth without a network. A
//! request and its reply exist only in that typed form; JSON is how a body
//! renders for exports, goldens and error text ([`payload`]).
//!
//! The six endpoint families of §2.3.3 are rows of the route table in
//! [`router`]:
//!
//! | Family | Endpoints |
//! |---|---|
//! | Registration | `POST /api/v1/registration`, `POST /api/v1/token/refresh` |
//! | Places | discover (GCA offload), sync, list, label |
//! | Routes | discover, sync, list (with usage frequency) |
//! | Mobility profiles | sync, fetch by day |
//! | Social contacts | sync, query by place |
//! | Misc | cell-ID geolocation (an OpenCellID stand-in) |
//!
//! plus the analytics/prediction queries of §2.3.2 ([`analytics`],
//! [`predict`]): typical arrival time at a place, next-visit prediction,
//! and visit frequency.
//!
//! The declarative route table in [`router`] is the single source of
//! truth for dispatch, endpoint metric labels, and 404-vs-405 semantics;
//! the endpoint bodies live in small per-family handler modules; and
//! [`CloudInstance::handle`] is one straight-line request path: it
//! resolves the route and validates the caller once, then runs the
//! cross-cutting checks (request metrics, token auth) as plain checks
//! before dispatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod api;
pub mod auth;
mod codec;
pub mod geolocate;
mod handlers;
pub mod instance;
pub mod payload;
pub mod predict;
pub mod profile;
pub mod router;
mod state;
mod storage;
pub mod transport;
pub mod wire;

pub use api::{Method, Request, Response, SpanCtx};
pub use auth::{AuthToken, DeviceIdentity, UserId};
pub use geolocate::CellDatabase;
pub use instance::{CloudInstance, SharedCloud, SHARD_COUNT};
pub use payload::{
    ArrivalBody, DiscoverBody, GeolocateBody, GeolocateSignatureBody, LabelBody, NextVisitBody,
    Payload, PlaceOnlyBody, RegistrationBody, RouteQueryBody, SocialQueryBody, SyncContactsBody,
    SyncPlacesBody, SyncProfileBody, SyncRoutesBody,
};
pub use profile::{ActivitySummary, ContactEntry, MobilityProfile, PlaceEntry, RouteEntry};
pub use router::{Route, RouteAuth, ENDPOINT_LABELS, ROUTES};
pub use storage::StorageConfig;
pub use transport::{
    CloudEndpoint, CloudTransport, FaultKind, FaultPlan, FaultStats, FaultyCloud, ALL_FAULT_KINDS,
    STATUS_BUDGET_EXHAUSTED, STATUS_INJECTED_ERROR, STATUS_TIMEOUT,
};
