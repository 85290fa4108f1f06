//! The framed wire protocol.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! frame   := length:u32le payload
//! payload := opcode:u8 body            (length = |payload|, 1 ..= MAX_FRAME)
//! str     := len:u32le utf8-bytes
//! value   := tag:u8 (0 null | 1 int:u64le | 2 float-bits:u64le | 3 str)
//! ```
//!
//! All integers are little-endian; floats travel as raw IEEE-754 bits so
//! encode∘decode is the identity on every value including NaNs — a
//! requirement for the byte-identical transcript gates. The decoder is
//! total: any byte sequence either decodes to a message or to a typed
//! [`ProtocolError`]; it never panics and never reads past the declared
//! length (the fuzz suite in `tests/protocol.rs` holds it to that).

use std::fmt;

/// FNV-1a over a byte slice — the transcript hash the load harness and the
/// CLI print for byte-identity checks (the checkpoint store's checksum).
pub use snails_core::checkpoint::fnv1a;

/// Hard cap on a frame's payload length (1 MiB). A peer announcing more is
/// either corrupt or hostile; the connection is closed after a typed error.
pub const MAX_FRAME: usize = 1 << 20;

/// Rows beyond this cap are dropped from a [`Response::Rows`] body (the
/// `total_rows` field still reports the full count). Rows that would take
/// the payload past [`MAX_FRAME`] are dropped too
/// ([`crate::tenant::rows_response`]).
pub const MAX_RESPONSE_ROWS: usize = 256;

// Request opcodes.
const OP_PING: u8 = 0x01;
const OP_SQL: u8 = 0x02;
const OP_ASK: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
// Response opcodes.
const OP_PONG: u8 = 0x81;
const OP_ROWS: u8 = 0x82;
const OP_ANSWER: u8 = 0x83;
const OP_STATS_REPORT: u8 = 0x84;
const OP_ERR: u8 = 0x85;
const OP_GOODBYE: u8 = 0x86;

/// A decoding failure. Typed so transports can answer with a precise error
/// frame before closing, and so tests can assert the *reason* a corrupt
/// frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// More bytes are needed (stream decoders treat this as "keep reading";
    /// at end-of-input it means the peer hung up mid-frame).
    Incomplete,
    /// The frame header declared a zero-length payload.
    ZeroLength,
    /// The frame header declared a payload above [`MAX_FRAME`].
    Oversized {
        /// The declared payload length.
        declared: u32,
    },
    /// The payload's first byte is not a known opcode.
    UnknownOpcode(u8),
    /// The payload ended before its body did.
    Truncated,
    /// The payload decoded fully but bytes were left over.
    TrailingBytes,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A value field carried an unknown type tag.
    BadValueTag(u8),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Incomplete => write!(f, "incomplete frame"),
            ProtocolError::ZeroLength => write!(f, "zero-length frame"),
            ProtocolError::Oversized { declared } => {
                write!(f, "oversized frame ({declared} > {MAX_FRAME} bytes)")
            }
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtocolError::Truncated => write!(f, "truncated payload"),
            ProtocolError::TrailingBytes => write!(f, "trailing bytes after payload"),
            ProtocolError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtocolError::BadValueTag(t) => write!(f, "unknown value tag {t}"),
        }
    }
}

/// A typed service-level error, carried inside a [`Response::Err`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full; the request was shed, not queued.
    Overloaded {
        /// The configured queue depth that was hit.
        depth: u32,
    },
    /// The server is draining: it finishes in-flight work but admits
    /// nothing new.
    Draining,
    /// No tenant by that name.
    UnknownTenant,
    /// The tenant has no database by that name.
    UnknownDatabase,
    /// No question with that id (or the tenant's database carries no
    /// question set to ask against).
    UnknownQuestion,
    /// The request was well-framed but semantically invalid.
    BadRequest,
    /// The engine rejected the statement (parse, binding, type, or budget).
    Engine(String),
    /// An injected transient fault (timeout / rate limit); the named kind
    /// is [`snails_llm::FaultKind::name`]. Retryable by the client.
    Transient(String),
    /// The request handler panicked and was isolated.
    Internal,
    /// The peer's frame failed to decode; sent before closing.
    Protocol(String),
}

impl ServeError {
    /// Stable discriminant used on the wire.
    fn code(&self) -> u8 {
        match self {
            ServeError::Overloaded { .. } => 0,
            ServeError::Draining => 1,
            ServeError::UnknownTenant => 2,
            ServeError::UnknownDatabase => 3,
            ServeError::UnknownQuestion => 4,
            ServeError::BadRequest => 5,
            ServeError::Engine(_) => 6,
            ServeError::Transient(_) => 7,
            ServeError::Internal => 8,
            ServeError::Protocol(_) => 9,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth } => write!(f, "overloaded (queue depth {depth})"),
            ServeError::Draining => write!(f, "draining"),
            ServeError::UnknownTenant => write!(f, "unknown tenant"),
            ServeError::UnknownDatabase => write!(f, "unknown database"),
            ServeError::UnknownQuestion => write!(f, "unknown question"),
            ServeError::BadRequest => write!(f, "bad request"),
            ServeError::Engine(m) => write!(f, "engine: {m}"),
            ServeError::Transient(k) => write!(f, "transient fault: {k}"),
            ServeError::Internal => write!(f, "internal error"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

/// A value cell in a [`Response::Rows`] body — the engine's
/// [`snails_engine::Value`] flattened to its wire shape.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float (travels as raw bits; NaN-safe).
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl From<&snails_engine::Value> for WireValue {
    fn from(v: &snails_engine::Value) -> WireValue {
        match v {
            snails_engine::Value::Null => WireValue::Null,
            snails_engine::Value::Int(i) => WireValue::Int(*i),
            snails_engine::Value::Float(x) => WireValue::Float(*x),
            snails_engine::Value::Str(s) => WireValue::Str(s.to_string()),
        }
    }
}

/// A client request.
///
/// `tag` is an opaque client-chosen correlation id echoed on the matching
/// response. The load harness packs `client_id << 32 | seq` into it, which
/// doubles as the transport-invariant per-request fault seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Correlation id.
        tag: u64,
    },
    /// Execute SQL against one tenant database.
    Sql {
        /// Correlation id.
        tag: u64,
        /// Tenant namespace.
        tenant: String,
        /// Database name within the tenant.
        database: String,
        /// The statement.
        sql: String,
    },
    /// Run the full NL-to-SQL pipeline on a gold question.
    Ask {
        /// Correlation id.
        tag: u64,
        /// Tenant namespace.
        tenant: String,
        /// Database name within the tenant.
        database: String,
        /// Gold question id (1-based, per database).
        question_id: u32,
        /// Index into [`snails_llm::ModelKind::ALL`].
        model: u8,
    },
    /// Snapshot per-tenant counters.
    Stats,
    /// Drain in-flight work, answer [`Response::Goodbye`], stop accepting.
    Shutdown,
}

impl Request {
    /// The request's correlation id (0 for control requests).
    pub fn tag(&self) -> u64 {
        match self {
            Request::Ping { tag }
            | Request::Sql { tag, .. }
            | Request::Ask { tag, .. } => *tag,
            Request::Stats | Request::Shutdown => 0,
        }
    }

    /// The tenant this request addresses, if any.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Sql { tenant, .. } | Request::Ask { tenant, .. } => Some(tenant),
            _ => None,
        }
    }
}

/// Per-tenant counter snapshot carried by [`Response::StatsReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Requests dispatched to this tenant (admitted, not shed).
    pub requests: u64,
    /// Requests answered without a typed error.
    pub ok: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Requests shed at admission that addressed this tenant.
    pub shed: u64,
    /// Tenant plan-cache hits.
    pub cache_hits: u64,
    /// Tenant plan-cache misses.
    pub cache_misses: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Echoed correlation id.
        tag: u64,
    },
    /// Result set for [`Request::Sql`].
    Rows {
        /// Echoed correlation id.
        tag: u64,
        /// Full row count (rows beyond [`MAX_RESPONSE_ROWS`] are elided).
        total_rows: u64,
        /// Column names.
        columns: Vec<String>,
        /// Row data (at most [`MAX_RESPONSE_ROWS`]).
        rows: Vec<Vec<WireValue>>,
    },
    /// Pipeline outcome for [`Request::Ask`].
    Answer {
        /// Echoed correlation id.
        tag: u64,
        /// The denaturalized (native-namespace) SQL, when the pipeline
        /// reached execution; empty otherwise.
        sql: String,
        /// Whether the raw model output parsed.
        parse_ok: bool,
        /// Result set-superset match.
        set_matched: bool,
        /// Final execution correctness.
        exec_correct: bool,
        /// Schema-linking recall in per-mille (0..=1000), or `u16::MAX`
        /// when the output was unparseable. Fixed-point keeps the frame
        /// float-free and the transcript byte-stable.
        recall_permille: u16,
    },
    /// Answer to [`Request::Stats`].
    StatsReport {
        /// Per-tenant counters, in tenant-name order.
        tenants: Vec<TenantStats>,
    },
    /// Typed failure for any request.
    Err {
        /// Echoed correlation id (0 when the request never decoded).
        tag: u64,
        /// The failure.
        error: ServeError,
    },
    /// Answer to [`Request::Shutdown`], sent after the drain completes.
    Goodbye {
        /// Responses delivered over the server's lifetime.
        responses: u64,
    },
}

impl Response {
    /// The response's correlation id (0 for control responses).
    pub fn tag(&self) -> u64 {
        match self {
            Response::Pong { tag }
            | Response::Rows { tag, .. }
            | Response::Answer { tag, .. }
            | Response::Err { tag, .. } => *tag,
            Response::StatsReport { .. } | Response::Goodbye { .. } => 0,
        }
    }

    /// True when this response carries a [`ServeError`].
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Err { .. })
    }
}

/// Either side of the conversation, as decoded from a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A client-to-server frame.
    Request(Request),
    /// A server-to-client frame.
    Response(Response),
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &WireValue) {
    match v {
        WireValue::Null => out.push(0),
        WireValue::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        WireValue::Float(x) => {
            out.push(2);
            put_u64(out, x.to_bits());
        }
        WireValue::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
    }
}

fn encode_payload_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Ping { tag } => {
            out.push(OP_PING);
            put_u64(out, *tag);
        }
        Request::Sql { tag, tenant, database, sql } => {
            out.push(OP_SQL);
            put_u64(out, *tag);
            put_str(out, tenant);
            put_str(out, database);
            put_str(out, sql);
        }
        Request::Ask { tag, tenant, database, question_id, model } => {
            out.push(OP_ASK);
            put_u64(out, *tag);
            put_str(out, tenant);
            put_str(out, database);
            put_u32(out, *question_id);
            out.push(*model);
        }
        Request::Stats => out.push(OP_STATS),
        Request::Shutdown => out.push(OP_SHUTDOWN),
    }
}

fn encode_payload_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Pong { tag } => {
            out.push(OP_PONG);
            put_u64(out, *tag);
        }
        Response::Rows { tag, total_rows, columns, rows } => {
            out.push(OP_ROWS);
            put_u64(out, *tag);
            put_u64(out, *total_rows);
            put_u32(out, columns.len() as u32);
            for c in columns {
                put_str(out, c);
            }
            put_u32(out, rows.len() as u32);
            for row in rows {
                put_u32(out, row.len() as u32);
                for v in row {
                    put_value(out, v);
                }
            }
        }
        Response::Answer { tag, sql, parse_ok, set_matched, exec_correct, recall_permille } => {
            out.push(OP_ANSWER);
            put_u64(out, *tag);
            put_str(out, sql);
            out.push(u8::from(*parse_ok));
            out.push(u8::from(*set_matched));
            out.push(u8::from(*exec_correct));
            out.extend_from_slice(&recall_permille.to_le_bytes());
        }
        Response::StatsReport { tenants } => {
            out.push(OP_STATS_REPORT);
            put_u32(out, tenants.len() as u32);
            for t in tenants {
                put_str(out, &t.tenant);
                put_u64(out, t.requests);
                put_u64(out, t.ok);
                put_u64(out, t.errors);
                put_u64(out, t.shed);
                put_u64(out, t.cache_hits);
                put_u64(out, t.cache_misses);
            }
        }
        Response::Err { tag, error } => {
            out.push(OP_ERR);
            put_u64(out, *tag);
            out.push(error.code());
            match error {
                ServeError::Overloaded { depth } => put_u32(out, *depth),
                ServeError::Engine(m) | ServeError::Transient(m) | ServeError::Protocol(m) => {
                    put_str(out, m)
                }
                _ => {}
            }
        }
        Response::Goodbye { responses } => {
            out.push(OP_GOODBYE);
            put_u64(out, *responses);
        }
    }
}

/// Payload bytes of a [`Response::Rows`] frame before its first row: the
/// opcode, tag, total, column names and row count.
pub(crate) fn rows_header_len(columns: &[String]) -> usize {
    1 + 8 + 8 + 4 + columns.iter().map(|c| 4 + c.len()).sum::<usize>() + 4
}

/// Payload bytes one engine row adds to a [`Response::Rows`] frame, counted
/// without converting it to [`WireValue`]s.
pub(crate) fn row_len(row: &[snails_engine::Value]) -> usize {
    use snails_engine::Value;
    let value_len = |v: &Value| match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
    };
    4 + row.iter().map(value_len).sum::<usize>()
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME);
    let mut out = Vec::with_capacity(4 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Encode one request as a complete frame (header + payload).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_payload_request(req, &mut payload);
    frame(payload)
}

/// Encode one response as a complete frame (header + payload).
///
/// Every response the server can construct fits in [`MAX_FRAME`]: row
/// bodies stop at [`MAX_RESPONSE_ROWS`] rows or before the row that would
/// pass [`MAX_FRAME`], and error strings are short.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_payload_response(resp, &mut payload);
    frame(payload)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over one payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn str(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn value(&mut self) -> Result<WireValue, ProtocolError> {
        match self.u8()? {
            0 => Ok(WireValue::Null),
            1 => Ok(WireValue::Int(self.u64()? as i64)),
            2 => Ok(WireValue::Float(f64::from_bits(self.u64()?))),
            3 => Ok(WireValue::Str(self.str()?)),
            t => Err(ProtocolError::BadValueTag(t)),
        }
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes)
        }
    }
}

/// Decode one payload (the bytes *after* the length header).
pub fn decode_payload(payload: &[u8]) -> Result<Message, ProtocolError> {
    let mut r = Reader::new(payload);
    let op = r.u8()?;
    let msg = match op {
        OP_PING => Message::Request(Request::Ping { tag: r.u64()? }),
        OP_SQL => Message::Request(Request::Sql {
            tag: r.u64()?,
            tenant: r.str()?,
            database: r.str()?,
            sql: r.str()?,
        }),
        OP_ASK => Message::Request(Request::Ask {
            tag: r.u64()?,
            tenant: r.str()?,
            database: r.str()?,
            question_id: r.u32()?,
            model: r.u8()?,
        }),
        OP_STATS => Message::Request(Request::Stats),
        OP_SHUTDOWN => Message::Request(Request::Shutdown),
        OP_PONG => Message::Response(Response::Pong { tag: r.u64()? }),
        OP_ROWS => {
            let tag = r.u64()?;
            let total_rows = r.u64()?;
            let ncols = r.u32()? as usize;
            if ncols > MAX_FRAME {
                return Err(ProtocolError::Truncated);
            }
            let mut columns = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                columns.push(r.str()?);
            }
            let nrows = r.u32()? as usize;
            if nrows > MAX_FRAME {
                return Err(ProtocolError::Truncated);
            }
            let mut rows = Vec::with_capacity(nrows.min(1024));
            for _ in 0..nrows {
                let arity = r.u32()? as usize;
                if arity > MAX_FRAME {
                    return Err(ProtocolError::Truncated);
                }
                let mut row = Vec::with_capacity(arity.min(1024));
                for _ in 0..arity {
                    row.push(r.value()?);
                }
                rows.push(row);
            }
            Message::Response(Response::Rows { tag, total_rows, columns, rows })
        }
        OP_ANSWER => Message::Response(Response::Answer {
            tag: r.u64()?,
            sql: r.str()?,
            parse_ok: r.u8()? != 0,
            set_matched: r.u8()? != 0,
            exec_correct: r.u8()? != 0,
            recall_permille: r.u16()?,
        }),
        OP_STATS_REPORT => {
            let n = r.u32()? as usize;
            if n > MAX_FRAME {
                return Err(ProtocolError::Truncated);
            }
            let mut tenants = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                tenants.push(TenantStats {
                    tenant: r.str()?,
                    requests: r.u64()?,
                    ok: r.u64()?,
                    errors: r.u64()?,
                    shed: r.u64()?,
                    cache_hits: r.u64()?,
                    cache_misses: r.u64()?,
                });
            }
            Message::Response(Response::StatsReport { tenants })
        }
        OP_ERR => {
            let tag = r.u64()?;
            let code = r.u8()?;
            let error = match code {
                0 => ServeError::Overloaded { depth: r.u32()? },
                1 => ServeError::Draining,
                2 => ServeError::UnknownTenant,
                3 => ServeError::UnknownDatabase,
                4 => ServeError::UnknownQuestion,
                5 => ServeError::BadRequest,
                6 => ServeError::Engine(r.str()?),
                7 => ServeError::Transient(r.str()?),
                8 => ServeError::Internal,
                9 => ServeError::Protocol(r.str()?),
                t => return Err(ProtocolError::BadValueTag(t)),
            };
            Message::Response(Response::Err { tag, error })
        }
        OP_GOODBYE => Message::Response(Response::Goodbye { responses: r.u64()? }),
        op => return Err(ProtocolError::UnknownOpcode(op)),
    };
    r.finish()?;
    Ok(msg)
}

/// Incremental frame decoder for a byte stream.
///
/// Feed arbitrary chunks with [`FrameReader::extend`]; pull complete
/// messages with [`FrameReader::next_message`]. A header or payload split
/// across chunks is reassembled; a malformed frame surfaces as a typed
/// error and poisons the stream (framing can't be trusted past the first
/// bad frame, so the transport closes the connection).
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    poisoned: bool,
}

impl FrameReader {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Append raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next complete message.
    ///
    /// * `Ok(Some(msg))` — one frame was consumed;
    /// * `Ok(None)` — the buffer holds no complete frame yet;
    /// * `Err(e)` — the stream is malformed; the caller should send a
    ///   [`ServeError::Protocol`] frame and close. Subsequent calls keep
    ///   returning the error.
    pub fn next_message(&mut self) -> Result<Option<Message>, ProtocolError> {
        if self.poisoned {
            return Err(ProtocolError::Truncated);
        }
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if declared == 0 {
            self.poisoned = true;
            return Err(ProtocolError::ZeroLength);
        }
        if declared as usize > MAX_FRAME {
            self.poisoned = true;
            return Err(ProtocolError::Oversized { declared });
        }
        let total = 4 + declared as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let result = decode_payload(&self.buf[4..total]);
        match result {
            Ok(msg) => {
                self.buf.drain(..total);
                Ok(Some(msg))
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}
