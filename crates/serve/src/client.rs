//! A small synchronous client for the serve protocol, used by the CLI
//! smoke path, the e2e tests, and `bench_serve`'s load generator.

use crate::protocol::{admin_request, ingest_request, read_frame, resolve_request, write_frame};
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use zeroer_core::json::Json;
use zeroer_stream::Side;
use zeroer_tabular::{Record, Value};

/// A resolve response, parsed back into the shape of
/// [`zeroer_stream::ResolveOutcome`]. Posteriors round-trip through the
/// wire's shortest-round-trip formatting, so they compare bit-equal
/// (`f64::to_bits`) with in-process resolution.
#[derive(Debug, Clone)]
pub struct WireResolution {
    /// Epoch of the server-side view that answered.
    pub epoch: u64,
    /// Candidates the blocking probe produced.
    pub candidates: usize,
    /// Cluster representative, or `None` for a would-be new entity.
    pub cluster: Option<usize>,
    /// `(record index, posterior)` matches, sorted by descending
    /// posterior.
    pub matches: Vec<(usize, f64)>,
}

/// One ingest outcome, parsed back from the wire.
#[derive(Debug, Clone)]
pub struct WireIngest {
    /// Index the record was stored at.
    pub index: usize,
    /// Candidates its blocking probe produced.
    pub candidates: usize,
    /// Cluster representative after the merge.
    pub cluster: usize,
    /// Whether it minted a new entity.
    pub new_entity: bool,
    /// `(record index, posterior)` matches, sorted by descending
    /// posterior.
    pub matches: Vec<(usize, f64)>,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn schema_err(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Pulls the server's error message out of an `"ok": false` response.
fn check_ok(response: &Json) -> io::Result<()> {
    match response.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        Some(false) => Err(schema_err(format!(
            "server error: {}",
            response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("(no message)")
        ))),
        None => Err(schema_err("response carries no \"ok\"")),
    }
}

fn parse_matches(response: &Json) -> io::Result<Vec<(usize, f64)>> {
    let items = response
        .get("matches")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("response carries no \"matches\" array"))?;
    items
        .iter()
        .map(|m| {
            let index = m
                .get("index")
                .and_then(Json::as_usize)
                .ok_or_else(|| schema_err("match carries no \"index\""))?;
            let p = m
                .get("p")
                .and_then(Json::as_f64)
                .ok_or_else(|| schema_err("match carries no \"p\""))?;
            Ok((index, p))
        })
        .collect()
}

fn field_usize(v: &Json, key: &str) -> io::Result<usize> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| schema_err(format!("response carries no {key:?}")))
}

fn parse_resolution(response: &Json) -> io::Result<WireResolution> {
    Ok(WireResolution {
        epoch: field_usize(response, "epoch")? as u64,
        candidates: field_usize(response, "candidates")?,
        cluster: match response
            .require("cluster")
            .map_err(|e| schema_err(e.to_string()))?
        {
            Json::Null => None,
            v => Some(
                v.as_usize()
                    .ok_or_else(|| schema_err("non-integer cluster"))?,
            ),
        },
        matches: parse_matches(response)?,
    })
}

fn parse_outcomes(response: &Json) -> io::Result<Vec<WireIngest>> {
    let outcomes = response
        .get("outcomes")
        .and_then(Json::as_arr)
        .ok_or_else(|| schema_err("response carries no \"outcomes\" array"))?;
    outcomes
        .iter()
        .map(|o| {
            Ok(WireIngest {
                index: field_usize(o, "index")?,
                candidates: field_usize(o, "candidates")?,
                cluster: field_usize(o, "cluster")?,
                new_entity: o
                    .get("new_entity")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| schema_err("outcome carries no \"new_entity\""))?,
                matches: parse_matches(o)?,
            })
        })
        .collect()
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    /// Fails when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response frames are small; without TCP_NODELAY each
        // round-trip stalls on Nagle + delayed-ACK (~40 ms).
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// One raw request/response round-trip with a pre-rendered request.
    ///
    /// # Errors
    /// Fails on I/O errors or when the server closes the connection.
    pub fn call_raw(&mut self, request: &str) -> io::Result<String> {
        write_frame(&mut self.writer, request)?;
        read_frame(&mut self.reader)?
            .ok_or_else(|| schema_err("server closed the connection mid-request"))
    }

    fn call(&mut self, request: &str) -> io::Result<Json> {
        let text = self.call_raw(request)?;
        let parsed =
            Json::parse(&text).map_err(|e| schema_err(format!("malformed response JSON: {e}")))?;
        check_ok(&parsed)?;
        Ok(parsed)
    }

    /// Resolves one record's values on the server's read path.
    ///
    /// # Errors
    /// Fails on I/O errors or a server-side error response (including a
    /// linkage server, which requires a side).
    pub fn resolve(&mut self, values: &[Value]) -> io::Result<WireResolution> {
        let response = self.call(&resolve_request(values, None))?;
        parse_resolution(&response)
    }

    /// Resolves one side-tagged record against a linkage server: the
    /// record is blocked against the opposite side's index and scored
    /// with the frozen cross model.
    ///
    /// # Errors
    /// Fails on I/O errors or a server-side error response (including
    /// sending a side to a dedup server, which rejects it).
    pub fn resolve_side(&mut self, values: &[Value], side: Side) -> io::Result<WireResolution> {
        let response = self.call(&resolve_request(values, Some(side.name())))?;
        parse_resolution(&response)
    }

    /// Ingests a batch of records through the server's write path.
    ///
    /// # Errors
    /// Fails on I/O errors or a server-side error response (e.g. arity
    /// mismatch — the whole batch is rejected, nothing applied).
    pub fn ingest(&mut self, records: &[Record]) -> io::Result<Vec<WireIngest>> {
        let response = self.call(&ingest_request(records, None))?;
        parse_outcomes(&response)
    }

    /// Ingests a same-side batch through a linkage server's write path.
    ///
    /// # Errors
    /// Fails like [`Client::ingest`], or when the server is dedup.
    pub fn ingest_side(&mut self, records: &[Record], side: Side) -> io::Result<Vec<WireIngest>> {
        let response = self.call(&ingest_request(records, Some(side.name())))?;
        parse_outcomes(&response)
    }

    /// Sends one admin command and returns the parsed response object.
    ///
    /// # Errors
    /// Fails on I/O errors or a server-side error response.
    pub fn admin(&mut self, cmd: &str) -> io::Result<Json> {
        self.call(&admin_request(cmd))
    }
}
