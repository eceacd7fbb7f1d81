//! # eml-net — networked serving front end
//!
//! A threaded TCP front end over the [`eml_serve`] multi-tenant
//! executor, reproducing the deployment shape of the DATE 2020
//! resource-management work: embedded inference served to untrusted
//! peers on a shared network, where the scarce resources are not only
//! the accelerator's cores but the server's threads, memory and queue
//! slots — all of which a misbehaving client can attack.
//!
//! Three layers, each independently testable:
//!
//! - [`frame`] — the length-prefixed wire codec. A frame is
//!   `[u32 LE payload length][u8 tag][payload]`; the hard payload cap
//!   is enforced from the header **before** any allocation.
//! - [`admission`] — per-client token-bucket rate limiting plus a
//!   cumulative misbehaviour score with exponential-backoff bans and
//!   decay-based rehabilitation, in a bounded client registry.
//! - [`server`] / [`client`] — the threaded [`NetServer`] (one accept
//!   loop, supervised per-connection threads that pipeline through a
//!   bounded, in-order reply window, graceful
//!   drain-and-shutdown reusing the executor's typed `AppStopped`
//!   semantics) and a small blocking [`NetClient`] for tests, examples
//!   and tooling.
//!
//! Every refusal is **typed on the wire**: serving-layer failures map
//! through [`eml_serve::ServeError::wire_code`] (codes `1..=31`,
//! stable), protocol and admission conditions own `32..` — see
//! [`WireStatus`]. Nothing is dropped silently and nothing panics the
//! server.
//!
//! ## Threat model
//!
//! What the admission scorer **catches**:
//!
//! - **Oversize frames** — a header declaring a payload above the cap
//!   costs the server 5 bytes of buffer and earns a heavy score hit;
//!   the declared payload is never allocated.
//! - **Slowloris stalls** — a started frame must complete within the
//!   read deadline; ticked reads mean a half-sent frame cannot pin a
//!   connection thread, and the stall is scored.
//! - **Open-window-and-stall readers** — a client that keeps a
//!   connection's reply window full but never reads its replies holds
//!   at most that window (32 requests) in the executor; once its socket
//!   buffers fill, the reply write times out, the stall is scored like
//!   a stalled half-frame and the connection is closed, so it cannot pin
//!   a connection thread either.
//! - **Floods** — requests past the token bucket's sustained rate are
//!   refused `RateLimited` and scored, so a sustained flood walks the
//!   client into a ban even though each refusal is cheap.
//! - **Protocol garbage** — unknown tags and unparseable payloads are
//!   scored; repeated probing is indistinguishable from abuse and
//!   treated as such.
//! - **Recidivism** — ban windows double per repeat offence (capped),
//!   and the score decays during good behaviour, so a one-off mistake
//!   rehabilitates while a persistent abuser faces growing exile.
//!
//! What it deliberately does **not** catch:
//!
//! - **Identity rotation.** A client's durable identity is its
//!   IP-scoped Hello id (`ip#id`); pre-Hello, the per-connection peer
//!   address stands in. An adversary minting a fresh id per connection
//!   gets a fresh score each time — per-identity scoring bounds the
//!   *rate* of abuse, it does not stop a determined sybil. Stopping
//!   that requires authenticated identities, out of scope here.
//! - **Distributed floods.** Scoring is per-client; many IPs each
//!   staying under their own bucket can still saturate the executor in
//!   aggregate. The bounded queues and deadline shedding of
//!   [`eml_serve`] are the back-stop: overload degrades into typed
//!   `QueueFull`/`DeadlineExpired` rejections, never into unbounded
//!   memory or latency.
//! - **Authentication and confidentiality.** The protocol is
//!   plaintext with self-asserted identities; it defends the server's
//!   resources, not the traffic's secrecy or the clients' identity
//!   claims.
//! - **Well-formed but wrong requests.** A request for an unknown app
//!   or with a mismatched sample shape is a *typed serving error*, not
//!   a scored violation — honest version skew must not walk a client
//!   into a ban.
//!
//! ## Example
//!
//! See `examples/server.rs` for a full walkthrough: a server over two
//! registered DNNs, a well-behaved client completing inferences, and a
//! hostile client scoring its way into a ban.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod frame;
pub mod server;
mod status;

pub use admission::{Admission, AdmissionConfig, Gate, Violation};
pub use client::{ClientError, NetClient, RemoteCompletion};
pub use frame::{Frame, FrameError};
pub use server::{NetConfig, NetServer, NetStatsSnapshot};
pub use status::WireStatus;
