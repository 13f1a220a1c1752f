//! Wire protocol of `zeroer serve`: length-prefixed JSON frames.
//!
//! One frame = a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Requests and responses are single JSON objects;
//! a connection carries any number of request/response round-trips in
//! order. The JSON dialect is the workspace's own
//! ([`zeroer_core::json`] to read, [`zeroer_obs::json`] to write) — no
//! network or serialization dependencies.
//!
//! ## Requests
//!
//! | verb | shape |
//! |---|---|
//! | resolve | `{"op":"resolve","values":["golden dragon","new york"]}` |
//! | ingest  | `{"op":"ingest","records":[{"id":7,"values":[...]}, …]}` |
//! | admin   | `{"op":"admin","cmd":"ping"\|"stats"\|"compact"\|"refresh"\|"snapshot"\|"shutdown"}` |
//!
//! Resolve and ingest carry `"side":"left"|"right"` exactly when the
//! served pipeline is linkage (the record is blocked against the
//! *opposite* side's index); a linkage server answers a missing or junk
//! side with an error, and so does a dedup server given a side.
//! `admin refresh` re-fits the model over the writer's live records and
//! swaps the serving snapshot, answering
//! `{"ok":true,"records":N,"pairs":P,"em_iterations":I,"divergence":D,"generation":G}`.
//!
//! `values` entries preserve the [`zeroer_tabular::Value`] variant:
//! strings travel as JSON strings **verbatim** (never re-parsed, so
//! `"3.50"` stays the text `3.50` and derives the same tokens it does
//! in-process), integers as JSON integers, floats as JSON numbers in
//! shortest round-trip form (bit-identical after parsing), and nulls as
//! `null`. An integral JSON number becomes [`zeroer_tabular::Value::Int`]
//! — that conflates `Float(3.0)` with `Int(3)`, which is harmless
//! because both derive the text `3` and the number `3.0`.
//!
//! ## Responses
//!
//! Every response carries `"ok"`. Failures are
//! `{"ok":false,"error":"…"}`. Successes:
//!
//! * resolve → `{"ok":true,"epoch":E,"candidates":N,"cluster":C|null,`
//!   `"matches":[{"index":I,"p":P},…]}` — posteriors use shortest
//!   round-trip formatting, so the `f64` a client parses back is
//!   bit-identical to the one the server scored.
//! * ingest → `{"ok":true,"outcomes":[{"index":I,"candidates":N,`
//!   `"cluster":C,"new_entity":B,"matches":[…]},…]}`, one outcome per
//!   submitted record, in order.
//! * admin → verb-specific: `ping` echoes `{"pong":true}`, `stats`
//!   carries the CLI-identical `--stats` text, `compact` reports
//!   `{"epoch":E,"bytes_reclaimed":B}`, `snapshot` embeds the full
//!   pipeline snapshot JSON, `shutdown` acknowledges with
//!   `{"stopping":true}` before the server begins draining.

use std::io::{self, Read, Write};
use zeroer_obs::json::{Arr, Obj};
use zeroer_tabular::{Record, Value};

/// Maximum accepted frame payload (16 MiB) — a sanity bound against
/// garbage length prefixes, far above any real request.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Writes one frame: big-endian `u32` length, then the payload.
///
/// # Errors
/// Fails on I/O errors, or when the payload exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                bytes.len()
            ),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
/// Fails on I/O errors, a length prefix beyond [`MAX_FRAME`], an EOF
/// inside a frame, or a payload that is not UTF-8.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Renders one record's values as a JSON array that preserves each
/// [`Value`]'s variant: strings verbatim, integers and floats as JSON
/// numbers (shortest round-trip for floats), nulls as `null`.
fn values_json(values: &[Value]) -> String {
    let mut arr = Arr::new();
    for v in values {
        match v {
            Value::Str(s) => arr.raw(&format!("\"{}\"", zeroer_obs::json::escape(s))),
            Value::Int(i) => arr.raw(&i.to_string()),
            Value::Float(f) => arr.raw(&zeroer_obs::json::f64_value(*f)),
            Value::Null => arr.raw("null"),
        };
    }
    arr.finish()
}

/// Builds a resolve request for one record's values. `side` — the
/// record's table, `"left"` or `"right"` — goes exactly to a linkage
/// server, which resolves the record against the opposite side.
pub fn resolve_request(values: &[Value], side: Option<&str>) -> String {
    request("resolve", side, "values", &values_json(values))
}

/// Builds an ingest request for a batch of records, side-tagged like
/// [`resolve_request`] (a linkage batch is same-side).
pub fn ingest_request(records: &[Record], side: Option<&str>) -> String {
    let mut arr = Arr::new();
    for r in records {
        let mut o = Obj::new();
        o.u64("id", u64::from(r.id));
        o.raw("values", &values_json(&r.values));
        arr.raw(&o.finish());
    }
    request("ingest", side, "records", &arr.finish())
}

/// `{"op":op[,"side":side],key:payload}`.
fn request(op: &str, side: Option<&str>, key: &str, payload: &str) -> String {
    let mut o = Obj::new();
    o.str("op", op);
    if let Some(side) = side {
        o.str("side", side);
    }
    o.raw(key, payload);
    o.finish()
}

/// Builds an admin request for one command verb.
pub fn admin_request(cmd: &str) -> String {
    let mut o = Obj::new();
    o.str("op", "admin");
    o.str("cmd", cmd);
    o.finish()
}

/// Builds the uniform failure response.
pub fn error_response(message: &str) -> String {
    let mut o = Obj::new();
    o.bool("ok", false);
    o.str("error", message);
    o.finish()
}
