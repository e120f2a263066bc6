//! The system under test, assembled as `examples/serve_http.rs` does: a
//! token database built from a feed, the service on the system clock,
//! the gateway in front, and (for the wire workloads) the HTTP server.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cryptext_common::SystemClock;
use cryptext_core::lookup::LookupParams;
use cryptext_core::normalize::NormalizeParams;
use cryptext_core::perturb::PerturbParams;
use cryptext_core::service::{ApiToken, CryptextService, ServiceConfig};
use cryptext_core::{CrypText, TokenDatabase};
use cryptext_gateway::{Gateway, GatewayConfig, Request, RouteOutput};
use cryptext_http::{HttpConfig, HttpServer, ServeReport, ShutdownHandle};

use crate::inputs::{Feed, Op, Route};

/// Requests per token per minute: far above what two closed-loop clients
/// can offer, so the limiter runs on every request and refuses none.
const RATE_LIMIT_PER_MINUTE: u32 = 1_000_000_000;

/// The parameters every request uses (the HTTP routes' defaults).
pub fn lookup_params() -> LookupParams {
    LookupParams::paper_default()
}

pub fn normalize_params() -> NormalizeParams {
    NormalizeParams::default()
}

pub fn perturb_params() -> PerturbParams {
    PerturbParams::with_ratio(1.0)
}

/// The gateway request for one op.
pub fn request(op: &Op) -> Request {
    match op.route {
        Route::Lookup => Request::lookup(op.input.clone(), lookup_params()),
        Route::Normalize => Request::normalize(op.input.clone(), normalize_params()),
        Route::Perturb => Request::perturb(op.input.clone(), perturb_params()),
    }
}

/// A lexicon-seeded database over `feed`, with its clean sentences as the
/// language model's training text.
pub fn build_db(feed: &Feed) -> TokenDatabase {
    let mut db = TokenDatabase::with_lexicon();
    for (text, clean) in feed.texts.iter().zip(&feed.clean) {
        db.ingest_text(text);
        db.record_clean_sentence(clean);
    }
    db
}

/// Service plus gateway plus one issued API token.
pub struct System {
    pub service: Arc<CryptextService>,
    pub gateway: Arc<Gateway>,
    pub token: ApiToken,
}

impl System {
    pub fn assemble(db: TokenDatabase) -> System {
        let config = ServiceConfig {
            rate_limit_per_minute: RATE_LIMIT_PER_MINUTE,
            ..ServiceConfig::default()
        };
        let service = Arc::new(CryptextService::new(
            CrypText::new(db),
            config,
            Arc::new(SystemClock),
        ));
        let token = service.issue_token("perfbench");
        let gateway = Arc::new(Gateway::new(Arc::clone(&service), GatewayConfig::default()));
        System {
            service,
            gateway,
            token,
        }
    }

    /// The route's output computed by the service directly, skipping the
    /// gateway (and its authorization charge).
    pub fn direct(&self, op: &Op) -> cryptext_common::Result<RouteOutput> {
        let svc = &self.service;
        Ok(match op.route {
            Route::Lookup => RouteOutput::Lookup(svc.look_up_prechecked(
                &op.input,
                lookup_params(),
                &mut || None,
            )?),
            Route::Normalize => {
                RouteOutput::Normalize(svc.normalize_prechecked(&op.input, normalize_params())?)
            }
            Route::Perturb => {
                RouteOutput::Perturb(svc.perturb_prechecked(&op.input, perturb_params())?)
            }
        })
    }
}

/// An HTTP server over a system's gateway, serving on a loopback port
/// from its own thread until [`Server::stop`].
pub struct Server {
    pub addr: std::net::SocketAddr,
    handle: ShutdownHandle,
    thread: JoinHandle<ServeReport>,
}

impl Server {
    pub fn bind(system: &System) -> std::io::Result<HttpServer> {
        HttpServer::bind(
            Arc::clone(&system.gateway),
            HttpConfig::default(),
            "127.0.0.1:0",
        )
        .map_err(|e| std::io::Error::other(e.to_string()))
    }

    pub fn start(server: HttpServer) -> std::io::Result<Server> {
        let addr = server
            .local_addr()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Server {
            addr,
            handle,
            thread,
        })
    }

    /// Drain and join the serving thread. Close client connections first.
    pub fn stop(self) -> ServeReport {
        self.handle.shutdown();
        self.thread
            .join()
            .expect("the serving thread does not panic")
    }
}

/// One timed set-up: the database built from `feed`, the service and
/// gateway assembled, and the HTTP listener bound when `wire` is set.
pub fn timed_setup(feed: &Feed, wire: bool) -> (System, Option<HttpServer>, f64) {
    let start = Instant::now();
    let system = System::assemble(build_db(feed));
    let server = wire.then(|| Server::bind(&system).expect("bind a loopback port"));
    (system, server, start.elapsed().as_secs_f64())
}
