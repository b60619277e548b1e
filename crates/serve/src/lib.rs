//! `neusight-serve`: a zero-dependency HTTP prediction service.
//!
//! Turns NeuSight's memoized [`predict_graph`] into a long-lived service:
//! one process loads the MLPs and tile database once, then answers
//! `POST /v1/predict` queries (model × GPU × batch size × train/infer) in
//! microseconds from the warm cache — the interactive capacity-planning
//! shape described by Habitat and the ROADMAP's production north star.
//!
//! Everything is `std`-only (TCP, threads, and raw epoll syscalls),
//! matching the repo's vendored-offline constraint; serving needs Linux.
//! The moving parts, one module each:
//!
//! - [`http`] — a small, strict HTTP/1.1 server codec (keep-alive,
//!   bounded head/body, `Content-Length` bodies only).
//! - [`queue`] — the bounded admission queue; a full queue means `429`,
//!   never a stalled socket.
//! - [`dispatch`] — the micro-batching dispatcher; concurrent requests
//!   coalesce into one [`NeuSight::predict_plan_batch`] call, i.e. one
//!   MLP forward per `(GPU, op family)`.
//! - [`service`] — request/response types and the model/GPU/graph
//!   resolution + prediction logic, shared by the server and direct
//!   in-process callers.
//! - [`server`] — configuration, routing, admission, graceful drain.
//! - `reactor` — the epoll event loop: one thread multiplexing every
//!   connection and upstream exchange behind a small `Service` trait,
//!   which serve and the router both implement; `sys` (epoll, eventfd,
//!   non-blocking connect) and `timer` (a hashed timer wheel) sit
//!   underneath. Linux only.
//! - [`signal`] — SIGTERM/SIGINT → atomic flag, no external crates.
//! - [`client`] — a blocking keep-alive client for loadgen, tests, and
//!   the router's probes, plus the response decoder the reactor's
//!   upstream exchanges share with it.
//!
//! ```no_run
//! use neusight_serve::{ServeConfig, Server};
//! # fn demo(ns: neusight_core::NeuSight) -> std::io::Result<()> {
//! let server = Server::bind(ServeConfig::default(), ns)?;
//! println!("listening on http://{}", server.local_addr());
//! server.run() // returns after SIGTERM + graceful drain
//! # }
//! ```
//!
//! [`predict_graph`]: neusight_core::NeuSight::predict_graph
//! [`NeuSight::predict_plan_batch`]: neusight_core::NeuSight::predict_plan_batch

pub mod client;
pub mod deadline;
pub mod dispatch;
pub mod http;
pub mod lifecycle;
pub mod model;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod service;
pub mod signal;
mod sys;
mod timer;

pub use client::{Client, ClientResponse};
pub use lifecycle::{
    golden_mape, golden_ops, golden_sanity, LifecycleConfig, ReloadOutcome, ReloadRequest,
};
pub use model::{ModelEpoch, ModelHandle};
pub use queue::{BoundedQueue, QueueFull};
pub use server::{RunningServer, ServeConfig, Server, ServerHandle};
pub use service::{PredictRequest, PredictResponse, PredictService, ServeError};
