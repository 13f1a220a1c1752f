//! The TCP server: one accept loop, one handler thread per connection,
//! every connection holding its own epoch-pinned [`ReadHandle`] plus a
//! clone of the shared [`WriteHandle`]. It serves a [`Pipeline`] of
//! either topology — [`zeroer_stream::StreamPipeline`] (dedup) or
//! [`zeroer_stream::LinkPipeline`] (linkage) — through the same
//! [`SplitPipeline`]; resolve and ingest requests carry a `side`
//! exactly when the pipeline is linkage.
//!
//! Resolve requests refresh the connection's read handle (an `Arc`
//! swap) and answer entirely on the read path — they never enter the
//! admission queue and never block on the writer. Ingest requests block
//! on the write path (admission order = application order, so
//! decisions stay bit-identical to a sequential replay). Admin requests
//! go to the writer too, which is what makes `stats`/`snapshot`
//! quiescent-consistent: they observe a queue point, not a torn state.
//!
//! Request latencies are recorded per verb under `serve.*` (see the
//! crate README for the catalog) when the underlying pipeline has
//! metrics enabled.

use crate::protocol::{error_response, read_frame, write_frame};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use zeroer_core::json::Json;
use zeroer_obs::json::{Arr, Obj};
use zeroer_obs::{Counter, Histogram, Stopwatch};
use zeroer_stream::{
    Dedup, Pipeline, ReadHandle, ResolveOutcome, Side, SplitPipeline, Topology, WriteHandle,
};
use zeroer_tabular::{Record, Value};

/// The `serve.*` metric handles, resolved once per server.
#[derive(Clone, Copy)]
struct ServeMeters {
    connections: &'static Counter,
    requests: &'static Counter,
    errors: &'static Counter,
    resolve: &'static Histogram,
    ingest: &'static Histogram,
    admin: &'static Histogram,
}

impl ServeMeters {
    fn from_flag(on: bool) -> Option<Self> {
        on.then(|| ServeMeters {
            connections: zeroer_obs::counter("serve.connections"),
            requests: zeroer_obs::counter("serve.requests"),
            errors: zeroer_obs::counter("serve.errors"),
            resolve: zeroer_obs::histogram("serve.resolve.ns"),
            ingest: zeroer_obs::histogram("serve.ingest.ns"),
            admin: zeroer_obs::histogram("serve.admin.ns"),
        })
    }
}

/// A bound-but-not-yet-serving resolution server over a split
/// pipeline.
pub struct Server<T: Topology = Dedup> {
    listener: TcpListener,
    split: SplitPipeline<T>,
    meters: Option<ServeMeters>,
    stop: Arc<AtomicBool>,
}

impl<T: Topology> Server<T> {
    /// Splits `pipeline` into its read/write halves (ingest
    /// micro-batches applied with `writer_threads` workers) and binds
    /// `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind(pipeline: Pipeline<T>, addr: &str, writer_threads: usize) -> std::io::Result<Self> {
        let meters = ServeMeters::from_flag(pipeline.options().metrics);
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            split: SplitPipeline::with_threads(pipeline, writer_threads),
            meters,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the real port when bound with port 0).
    ///
    /// # Panics
    /// Panics if the OS cannot report the local address of a freshly
    /// bound listener (which indicates a broken socket layer).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener reports its address")
    }

    /// Serves until an admin `shutdown` request arrives, then drains:
    /// open connections are shut down, handler threads joined, the
    /// admission queue closed and drained, and the pipeline — including
    /// everything ingested over the wire — handed back.
    pub fn run(self) -> Pipeline<T> {
        let addr = self.local_addr();
        let mut handlers = Vec::new();
        // Clones of accepted sockets, kept so shutdown can unblock
        // handler threads parked in a read.
        let open: Arc<std::sync::Mutex<Vec<TcpStream>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        for incoming in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Small request/response frames: disable Nagle so replies
            // are not held hostage to delayed ACKs.
            let _ = stream.set_nodelay(true);
            if let Ok(clone) = stream.try_clone() {
                open.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
            }
            let conn = Connection {
                reads: self.split.read_handle(),
                writes: self.split.write_handle(),
                meters: self.meters,
                stop: Arc::clone(&self.stop),
                poke: addr,
            };
            handlers.push(std::thread::spawn(move || conn.serve(stream)));
        }
        for s in open.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        for h in handlers {
            let _ = h.join();
        }
        self.split.shutdown()
    }
}

/// Per-connection state: a private read handle, a shared write handle.
struct Connection<T: Topology> {
    reads: ReadHandle<T>,
    writes: WriteHandle<T>,
    meters: Option<ServeMeters>,
    stop: Arc<AtomicBool>,
    poke: SocketAddr,
}

impl<T: Topology> Connection<T> {
    fn serve(mut self, stream: TcpStream) {
        if let Some(m) = self.meters {
            m.connections.incr();
        }
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        });
        let mut writer = stream;
        loop {
            let request = match read_frame(&mut reader) {
                Ok(Some(text)) => text,
                Ok(None) | Err(_) => return,
            };
            let (response, stopping) = self.handle(&request);
            if write_frame(&mut writer, &response).is_err() {
                return;
            }
            if stopping {
                // Reply delivered; now stop the accept loop. The
                // self-connect unblocks `TcpListener::incoming`, which
                // re-checks the flag before handling it.
                self.stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(self.poke);
                return;
            }
        }
    }

    /// Dispatches one request; returns the response and whether this
    /// request asked the server to stop.
    fn handle(&mut self, request: &str) -> (String, bool) {
        if let Some(m) = self.meters {
            m.requests.incr();
        }
        let parsed = match Json::parse(request) {
            Ok(v) => v,
            Err(e) => return (self.fail(format!("malformed request JSON: {e}")), false),
        };
        let op = match parsed.get("op").and_then(Json::as_str) {
            Some(op) => op,
            None => return (self.fail("request carries no \"op\"".into()), false),
        };
        let sw = Stopwatch::new(self.meters.is_some());
        let (result, meter) = match op {
            "resolve" => (self.resolve(&parsed), self.meters.map(|m| m.resolve)),
            "ingest" => (self.ingest(&parsed), self.meters.map(|m| m.ingest)),
            "admin" => (self.admin(&parsed), self.meters.map(|m| m.admin)),
            other => return (self.fail(format!("unknown op {other:?}")), false),
        };
        let reply = result.unwrap_or_else(|e| (self.fail(e.to_string()), false));
        if let Some(h) = meter {
            sw.total(h);
        }
        reply
    }

    fn fail(&self, message: String) -> String {
        if let Some(m) = self.meters {
            m.errors.incr();
        }
        error_response(&message)
    }

    fn resolve(&mut self, request: &Json) -> Handled {
        let side = parse_side(request)?;
        let values = parse_values(request.get("values"))?;
        self.reads.refresh();
        let out = self.reads.resolve_side(&Record::new(0, values), side)?;
        Ok((render_resolution(&out), false))
    }

    fn ingest(&mut self, request: &Json) -> Handled {
        let side = parse_side(request)?;
        let records = request
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("ingest request carries no \"records\" array")?;
        let mut batch = Vec::with_capacity(records.len());
        for (i, rec) in records.iter().enumerate() {
            let id = rec
                .get("id")
                .and_then(Json::as_usize)
                .and_then(|id| u32::try_from(id).ok())
                .ok_or_else(|| format!("record {i} carries no valid \"id\""))?;
            let values = parse_values(rec.get("values")).map_err(|e| format!("record {i}: {e}"))?;
            batch.push(Record::new(id, values));
        }
        let mut arr = Arr::new();
        for out in &self.writes.ingest_side(batch, side)? {
            let mut o = Obj::new();
            o.u64("index", out.index as u64);
            o.u64("candidates", out.candidates as u64);
            o.u64("cluster", out.cluster as u64);
            o.bool("new_entity", out.is_new_entity());
            o.raw("matches", &render_matches(&out.matches));
            arr.raw(&o.finish());
        }
        let mut o = Obj::new();
        o.bool("ok", true);
        o.raw("outcomes", &arr.finish());
        Ok((o.finish(), false))
    }

    fn admin(&mut self, request: &Json) -> Handled {
        let cmd = request
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("admin request carries no \"cmd\"")?;
        let mut o = Obj::new();
        o.bool("ok", true);
        match cmd {
            "ping" => o.bool("pong", true),
            "stats" => o.str("stats", &self.writes.stats()?),
            "compact" => {
                let report = self.writes.compact()?;
                o.u64("epoch", report.epoch)
                    .u64("bytes_reclaimed", report.bytes_reclaimed() as u64)
            }
            "refresh" => {
                let report = self.writes.refresh()?;
                o.u64("records", report.records as u64)
                    .u64("pairs", report.pairs as u64)
                    .u64("em_iterations", report.em_iterations as u64)
                    .f64("divergence", report.divergence)
                    .u64("generation", report.generation)
            }
            "snapshot" => o.raw("snapshot", &self.writes.snapshot_json()?),
            "shutdown" => return Ok((o.bool("stopping", true).finish(), true)),
            other => return Err(format!("unknown admin cmd {other:?}").into()),
        };
        Ok((o.finish(), false))
    }
}

/// A verb's response and whether it asked the server to stop, or the
/// failure message [`Connection::fail`] turns into an error response.
type Handled = Result<(String, bool), Box<dyn std::error::Error>>;

/// Parses a request's optional `side`: absent, `"left"` or `"right"`.
/// Whether the pipeline wants one is the pipeline's call.
fn parse_side(request: &Json) -> Result<Option<Side>, String> {
    match request.get("side") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some("left") => Ok(Some(Side::Left)),
            Some("right") => Ok(Some(Side::Right)),
            _ => Err(format!("side must be \"left\" or \"right\", got {v:?}")),
        },
    }
}

/// Parses a request's `values` array, preserving each entry's variant:
/// JSON strings become [`Value::Str`] verbatim (never re-parsed — the
/// text must derive the same tokens it does in-process), integral JSON
/// numbers become [`Value::Int`], other numbers [`Value::Float`], and
/// `null` stays null.
fn parse_values(values: Option<&Json>) -> Result<Vec<Value>, String> {
    let items = values
        .and_then(Json::as_arr)
        .ok_or_else(|| "request carries no \"values\" array".to_string())?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        match item {
            Json::Null => out.push(Value::Null),
            Json::Str(s) => out.push(Value::Str(s.clone())),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e18 => {
                out.push(Value::Int(*n as i64));
            }
            Json::Num(n) => out.push(Value::Float(*n)),
            other => {
                return Err(format!(
                    "values[{i}] must be a string, number or null, got {other:?}"
                ))
            }
        }
    }
    Ok(out)
}

fn render_matches(matches: &[(usize, f64)]) -> String {
    let mut arr = Arr::new();
    for &(index, p) in matches {
        let mut o = Obj::new();
        o.u64("index", index as u64);
        o.f64("p", p);
        arr.raw(&o.finish());
    }
    arr.finish()
}

/// Renders a [`ResolveOutcome`] as the resolve response body.
fn render_resolution(out: &ResolveOutcome) -> String {
    let mut o = Obj::new();
    o.bool("ok", true);
    o.u64("epoch", out.epoch);
    o.u64("candidates", out.candidates as u64);
    match out.cluster {
        Some(c) => o.u64("cluster", c as u64),
        None => o.raw("cluster", "null"),
    };
    o.raw("matches", &render_matches(&out.matches));
    o.finish()
}
