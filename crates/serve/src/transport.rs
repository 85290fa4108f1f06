//! Transports: in-process tickets and framed unix sockets.
//!
//! Both speak the same [`crate::protocol`] messages against the same
//! [`Server`]; the in-process transport skips the byte layer (the load
//! harness re-encodes responses when it builds transcripts, so byte
//! identity across transports is still asserted end to end), while the
//! unix transport runs the full frame → decode → submit → encode path.
//!
//! Shutdown is a protocol message, not a signal: a [`Request::Shutdown`]
//! frame makes the transport drain the server, answer
//! [`Response::Goodbye`], and close — so tests and scripts can stop a
//! server deterministically over its own wire.
//!
//! Every socket wait blocks until its event arrives: the listener blocks
//! in `accept`, connections block in `read`, and writes block in
//! `write_all`. Stopping wakes the listener with one connect to its own
//! path, and an idle connection's read times out every [`POLL_INTERVAL`]
//! only to re-check the stop flag.

use crate::protocol::{
    encode_response, FrameReader, Message, Request, Response, ServeError,
};
use crate::server::Server;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

struct TicketInner {
    slot: Mutex<Option<Response>>,
    cv: Condvar,
}

/// A pending in-process response: filled exactly once by the server's
/// reply callback.
#[derive(Clone)]
pub struct Ticket(Arc<TicketInner>);

impl Ticket {
    fn new() -> Ticket {
        Ticket(Arc::new(TicketInner { slot: Mutex::new(None), cv: Condvar::new() }))
    }

    fn complete(&self, resp: Response) {
        let mut slot = self.0.slot.lock().unwrap();
        debug_assert!(slot.is_none(), "a reply fires exactly once");
        *slot = Some(resp);
        self.0.cv.notify_all();
    }

    /// Take the response if it has arrived (non-blocking).
    pub fn try_take(&self) -> Option<Response> {
        self.0.slot.lock().unwrap().take()
    }

    /// Block until the response arrives.
    pub fn wait(&self) -> Response {
        let mut slot = self.0.slot.lock().unwrap();
        loop {
            if let Some(resp) = slot.take() {
                return resp;
            }
            slot = self.0.cv.wait(slot).unwrap();
        }
    }
}

/// An in-process client over a shared [`Server`].
#[derive(Clone)]
pub struct InProcClient {
    server: Arc<Server>,
}

impl InProcClient {
    /// Client over `server`.
    pub fn new(server: Arc<Server>) -> InProcClient {
        InProcClient { server }
    }

    /// Submit without blocking; the [`Ticket`] resolves when the server
    /// answers (immediately, for shed/refused requests).
    pub fn call_async(&self, request: Request) -> Ticket {
        let ticket = Ticket::new();
        let completer = ticket.clone();
        self.server.submit(request, Box::new(move |resp| completer.complete(resp)));
        ticket
    }

    /// Submit and block for the response. In serial mode this deadlocks
    /// on a queued request unless another thread runs the server's
    /// batches — use [`InProcClient::call_async`] plus
    /// [`Server::poll_batch`] there.
    pub fn call(&self, request: Request) -> Response {
        self.call_async(request).wait()
    }
}

// ---------------------------------------------------------------------------
// Unix-socket transport
// ---------------------------------------------------------------------------

/// How long a connection's blocking read waits before it re-checks the
/// stop flag. Arriving bytes end the read at once, so this bounds only how
/// long an idle connection outlives a stop, not how long a request waits.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// The stop flag a listener shares with its connections, plus the socket
/// path that wakes the listener out of its blocking `accept`.
struct Stop {
    flag: AtomicBool,
    path: PathBuf,
}

impl Stop {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Set the flag, then wake the listener with one connect to its own
    /// path: `accept` returns that connection, sees the flag, and stops.
    /// Only the call that sets the flag connects. Returns false when that
    /// connect failed (the socket file is gone), so nothing can wake the
    /// listener.
    fn halt(&self) -> bool {
        self.flag.swap(true, Ordering::SeqCst) || UnixStream::connect(&self.path).is_ok()
    }
}

/// A unix-socket front end over a [`Server`].
///
/// The listener thread accepts connections; each connection gets a reader
/// thread that decodes frames, submits requests, and writes response
/// frames back (writes are serialized per connection — replies fire from
/// worker threads). A malformed frame answers a typed
/// [`ServeError::Protocol`] frame and closes the connection. A
/// [`Request::Shutdown`] drains the server, answers
/// [`Response::Goodbye`], and stops the listener.
pub struct UnixServer {
    stop: Arc<Stop>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl UnixServer {
    /// Bind `path` (removing any stale socket file) and start accepting.
    /// The socket file must stay in place while the server runs: stopping
    /// connects to it.
    pub fn bind(path: &Path, server: Arc<Server>) -> std::io::Result<UnixServer> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let stop = Arc::new(Stop { flag: AtomicBool::new(false), path: path.to_owned() });
        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::spawn(move || {
            let mut conn_handles = Vec::new();
            for stream in listener.incoming() {
                // After a stop, what `accept` returned is the wake connect
                // (or a client that raced it): drop it and stop.
                if accept_stop.is_set() {
                    break;
                }
                let Ok(stream) = stream else { break };
                let server = Arc::clone(&server);
                let stop = Arc::clone(&accept_stop);
                conn_handles.push(std::thread::spawn(move || {
                    connection_loop(stream, &server, &stop);
                }));
            }
            drop(listener);
            for h in conn_handles {
                let _ = h.join();
            }
        });
        Ok(UnixServer { stop, accept_handle: Some(accept_handle) })
    }

    /// True once a shutdown frame (or [`UnixServer::stop`]) has landed.
    pub fn stopped(&self) -> bool {
        self.stop.is_set()
    }

    /// Stop the listener and join it. The listener wakes at once;
    /// connections see the stop within [`POLL_INTERVAL`] and close. If the
    /// socket file was removed under a running listener, nothing can wake
    /// it, so it is left blocked instead of joined.
    pub fn stop(&mut self) {
        let woke = self.stop.halt();
        if let Some(h) = self.accept_handle.take() {
            if woke {
                let _ = h.join();
            }
        }
    }

    /// Block until a shutdown frame stops the listener.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for UnixServer {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_file(&self.stop.path);
    }
}

/// One connection: read frames, dispatch, write response frames.
fn connection_loop(stream: UnixStream, server: &Arc<Server>, stop: &Stop) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    // Replies fire on worker threads; writes go through one shared,
    // poisoning-tolerant writer so response frames never interleave.
    let writer = Arc::new(Mutex::new(stream.try_clone().ok()));
    let mut stream = stream;
    loop {
        if stop.is_set() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer hung up
            Ok(n) => reader.extend(&buf[..n]),
            // The read timed out (WouldBlock) or a signal cut it short:
            // loop round to re-check the stop flag.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                continue
            }
            Err(_) => return,
        }
        loop {
            match reader.next_message() {
                Ok(Some(Message::Request(Request::Shutdown))) => {
                    // Drain first so Goodbye truthfully reports the final
                    // response count. Stop the listener before the reply
                    // goes out, so a client that has read its Goodbye
                    // always finds the listener stopped.
                    server.drain();
                    let resp = Response::Goodbye { responses: server.responses_delivered() };
                    stop.halt();
                    write_frame(&writer, &resp);
                    return;
                }
                Ok(Some(Message::Request(request))) => {
                    let writer = Arc::clone(&writer);
                    server.submit(
                        request,
                        Box::new(move |resp| write_frame(&writer, &resp)),
                    );
                }
                Ok(Some(Message::Response(_))) => {
                    // A client must not send response opcodes.
                    let resp = Response::Err {
                        tag: 0,
                        error: ServeError::Protocol("unexpected response opcode".to_owned()),
                    };
                    write_frame(&writer, &resp);
                    return;
                }
                Ok(None) => break, // need more bytes
                Err(e) => {
                    let resp = Response::Err {
                        tag: 0,
                        error: ServeError::Protocol(e.to_string()),
                    };
                    write_frame(&writer, &resp);
                    return;
                }
            }
        }
    }
}

/// Write one response frame with a blocking `write_all`; a frame larger
/// than the socket buffer blocks until the peer reads. A failed write
/// means the peer is gone: the stream is dropped so later replies on the
/// connection are no-ops.
fn write_frame(writer: &Mutex<Option<UnixStream>>, resp: &Response) {
    let bytes = encode_response(resp);
    let mut guard = writer.lock().unwrap();
    if let Some(stream) = guard.as_mut() {
        if stream.write_all(&bytes).is_err() {
            *guard = None;
        }
    }
}

/// A blocking unix-socket client speaking one frame at a time.
pub struct UnixClient {
    stream: UnixStream,
    reader: FrameReader,
    buf: [u8; 16 * 1024],
}

impl UnixClient {
    /// Connect to a listening [`UnixServer`].
    pub fn connect(path: &Path) -> std::io::Result<UnixClient> {
        let stream = UnixStream::connect(path)?;
        Ok(UnixClient { stream, reader: FrameReader::new(), buf: [0u8; 16 * 1024] })
    }

    /// Send raw bytes (the fuzz corpus uses this to deliver garbage).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Send one request frame.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        self.stream.write_all(&crate::protocol::encode_request(request))
    }

    /// Block until the next well-formed response frame arrives. Returns
    /// `None` on clean close; protocol errors from the server arrive as
    /// typed [`Response::Err`] frames like any other response.
    pub fn recv(&mut self) -> std::io::Result<Option<Response>> {
        loop {
            match self.reader.next_message() {
                Ok(Some(Message::Response(resp))) => return Ok(Some(resp)),
                Ok(Some(Message::Request(_))) => {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        "server sent a request opcode",
                    ))
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
                }
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Ok(None),
                Ok(n) => self.reader.extend(&self.buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, request: &Request) -> std::io::Result<Response> {
        self.send(request)?;
        self.recv()?.ok_or_else(|| {
            std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed before response")
        })
    }
}
