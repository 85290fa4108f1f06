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

    /// Submit and block for the response. In serial mode this would
    /// deadlock on a queued request (nothing polls) — use
    /// [`InProcClient::call_async`] plus [`Server::poll_batch`] there.
    pub fn call(&self, request: Request) -> Response {
        self.call_async(request).wait()
    }
}

// ---------------------------------------------------------------------------
// Unix-socket transport
// ---------------------------------------------------------------------------

/// How often blocked socket loops wake to re-check stop/drain conditions.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

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
    path: PathBuf,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl UnixServer {
    /// Bind `path` (removing any stale socket file) and start accepting.
    pub fn bind(path: &Path, server: Arc<Server>) -> std::io::Result<UnixServer> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::spawn(move || {
            let mut conn_handles = Vec::new();
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let server = Arc::clone(&server);
                        let stop = Arc::clone(&accept_stop);
                        conn_handles.push(std::thread::spawn(move || {
                            connection_loop(stream, &server, &stop);
                        }));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(_) => break,
                }
            }
            for h in conn_handles {
                let _ = h.join();
            }
        });
        Ok(UnixServer { path: path.to_owned(), stop, accept_handle: Some(accept_handle) })
    }

    /// True once a shutdown frame (or [`UnixServer::stop`]) has landed.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Ask the listener to stop, then join it (connections see the flag at
    /// their next poll tick).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
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
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One connection: read frames, dispatch, write response frames.
fn connection_loop(stream: UnixStream, server: &Arc<Server>, stop: &Arc<AtomicBool>) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 16 * 1024];
    // Replies fire on worker threads; writes go through one shared,
    // poisoning-tolerant writer so response frames never interleave.
    let writer = Arc::new(Mutex::new(stream.try_clone().ok()));
    let mut stream = stream;
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // peer hung up
            Ok(n) => reader.extend(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
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
                    stop.store(true, Ordering::Relaxed);
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

fn write_frame(writer: &Arc<Mutex<Option<UnixStream>>>, resp: &Response) {
    let bytes = encode_response(resp);
    let mut guard = writer.lock().unwrap();
    if let Some(stream) = guard.as_mut() {
        // Blocking write despite the nonblocking socket: retry WouldBlock
        // (response frames are small; the buffer drains fast).
        let mut written = 0;
        while written < bytes.len() {
            match stream.write(&bytes[written..]) {
                Ok(n) => written += n,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        || e.kind() == ErrorKind::Interrupted =>
                {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(_) => {
                    // Peer gone: drop the stream so later replies no-op.
                    *guard = None;
                    return;
                }
            }
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
                Ok(n) => {
                    let chunk = self.buf[..n].to_vec();
                    self.reader.extend(&chunk);
                }
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
