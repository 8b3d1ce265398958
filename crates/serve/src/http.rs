//! HTTP/1.1 framing and the one transport every IRMA daemon serves on.
//!
//! Hand-rolled on `std::net` — the workspace builds offline, so no
//! hyper/axum. One request per connection (`Connection: close`), bodies
//! framed by `Content-Length` only.
//!
//! * **Framing** — [`read_head`] reads one request head, capped at
//!   [`MAX_REQUEST_HEAD`]; [`write_response`] writes one response;
//!   [`write_too_large`] answers an oversized head with `431` and drains
//!   the surplus so the close is not a reset.
//! * **Transport** — [`Transport`] knows no routes. An accept loop feeds
//!   a bounded queue that a fixed worker pool drains ([`Limits`]). A
//!   worker reads the head, calls the handler and writes its [`Reply`].
//!   A full queue is answered `503` with `Retry-After` by a capped pool
//!   of short-lived rejector threads; past that cap connections are
//!   dropped, so load never spawns unbounded threads. A handler panic
//!   costs one `500`, never a worker. Shutdown stops accepting, drains
//!   the queue and joins every thread. `irma serve` runs the analyze app
//!   on it ([`crate::Server`]); `irma watch --listen` runs a GET-only
//!   `/metrics` + `/healthz` handler.
//! * **Helpers** a POST API needs on top: bounded body reads, query
//!   strings with percent-decoding, JSON error bodies.
//!
//! The transport counts into the [`Metrics`] it is given:
//! `serve.requests`, `serve.responses_{2xx,4xx,5xx}`,
//! `serve.dropped_connections` (early close, stall, mid-body hang-up),
//! `serve.rejected_head` (431), `serve.rejected_queue` (503) and
//! `serve.worker_panics`.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

pub use irma_obs::json_escape;
use irma_obs::Metrics;

/// Largest request head (request line + headers) the server reads.
pub const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// A parsed HTTP/1.1 request head: request line plus headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target (path plus optional query string), as sent.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// Case-insensitive header lookup (first match wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path with any query string stripped.
    pub fn route(&self) -> &str {
        self.path.split('?').next().unwrap_or("")
    }

    /// The query string (without the `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.path.split_once('?').map(|(_, q)| q)
    }
}

/// Why [`read_head`] could not produce a [`RequestHead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadError {
    /// The head exceeded [`MAX_REQUEST_HEAD`] before the blank line —
    /// answer `431 Request Header Fields Too Large`.
    TooLarge,
    /// The client closed (or stalled past the deadline) mid-head — just
    /// drop the connection.
    Closed,
}

/// Reads one bounded request head from `reader`.
///
/// Distinguishes cap exhaustion ([`HeadError::TooLarge`]) from an early
/// close ([`HeadError::Closed`]): when a `read_line` comes back empty or
/// unterminated *and* the [`MAX_REQUEST_HEAD`] budget is spent, the head
/// was truncated by the cap, not by the client. Callers must answer the
/// former with `431` — silently closing leaves the unread bytes to turn
/// the close into a TCP reset. Body bytes already pulled into `reader`'s
/// buffer stay there for the caller to consume.
pub fn read_head<R: BufRead>(reader: &mut R) -> Result<RequestHead, HeadError> {
    let mut head = reader.take(MAX_REQUEST_HEAD as u64);
    let cut_short = |head: &io::Take<&mut R>| {
        if head.limit() == 0 {
            HeadError::TooLarge
        } else {
            HeadError::Closed
        }
    };
    let mut request_line = String::new();
    match head.read_line(&mut request_line) {
        Ok(0) | Err(_) => return Err(HeadError::Closed),
        Ok(_) if !request_line.ends_with('\n') => return Err(cut_short(&head)),
        Ok(_) => {}
    }
    let mut headers = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        match head.read_line(&mut line) {
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) if !line.ends_with('\n') => return Err(cut_short(&head)),
            Ok(_) => {
                if let Some((name, value)) = line.split_once(':') {
                    headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                }
            }
            Err(_) => return Err(HeadError::Closed),
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    Ok(RequestHead {
        method,
        path,
        headers,
    })
}

/// Writes one `Connection: close` HTTP/1.1 response with Content-Length.
///
/// `extra_headers` are emitted verbatim after Content-Type (e.g.
/// `("Retry-After", "1".to_string())`). Write errors are swallowed: the
/// peer may already be gone, and one response is all it was getting.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()));
}

/// Answers `431 Request Header Fields Too Large` for a head that blew
/// the [`MAX_REQUEST_HEAD`] cap.
///
/// The client's surplus bytes are still queued in our receive buffer;
/// closing with them unread sends a TCP reset that can clobber the
/// response in flight. So after writing the 431, drain the remainder —
/// bounded by 64 KiB and a short deadline, so a client that streams
/// forever still earns its reset.
pub fn write_too_large(stream: &mut TcpStream) {
    write_response(
        stream,
        431,
        "Request Header Fields Too Large",
        "text/plain",
        &[],
        "request head exceeds 8 KiB\n",
    );
    let previous = stream.read_timeout().ok().flatten();
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                drained += n;
                if drained >= 64 * 1024 {
                    break;
                }
            }
        }
    }
    let _ = stream.set_read_timeout(previous);
}

/// One computed response, ready for [`write_response`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Reason phrase for the status line.
    pub reason: &'static str,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Headers after `Content-Type` (`Retry-After`, `Allow`, ...).
    pub headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: String,
}

impl Reply {
    /// A reply with no extra headers.
    pub fn new(
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: String,
    ) -> Reply {
        Reply {
            status,
            reason,
            content_type,
            headers: Vec::new(),
            body,
        }
    }

    /// An `application/json` reply.
    pub fn json(status: u16, reason: &'static str, body: String) -> Reply {
        Reply::new(status, reason, "application/json", body)
    }

    /// A JSON error reply (see [`json_error`]).
    pub fn error(status: u16, reason: &'static str, message: &str, stage: &str) -> Reply {
        Reply::json(status, reason, json_error(message, stage))
    }

    /// Adds one header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Reply {
        self.headers.push((name, value.into()));
        self
    }

    fn write_to(&self, stream: &mut TcpStream) {
        write_response(
            stream,
            self.status,
            self.reason,
            self.content_type,
            &self.headers,
            &self.body,
        );
    }
}

/// A request handler: the parsed head and a reader positioned at the
/// body. `None` means the client vanished mid-request; the connection is
/// dropped without a response. Handlers run on worker threads, so they
/// must be `Send + Sync`.
pub type Handler = dyn Fn(&RequestHead, &mut dyn BufRead) -> Option<Reply> + Send + Sync;

/// Capacity limits of a [`Transport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Worker threads; each serves one connection at a time.
    pub workers: usize,
    /// Accepted connections waiting for a worker; past this a connection
    /// gets 503. Also caps the concurrent rejector threads.
    pub queue_depth: usize,
    /// Per-connection read and write deadline (slow-loris bound).
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            workers: 2,
            queue_depth: 32,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// A transport's connection queue and in-flight count. A handler that
/// reports load (a `/healthz` body, gauges) keeps an `Arc` of the value
/// it passed to [`Transport::start`].
#[derive(Debug, Default)]
pub struct Load {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    active: AtomicUsize,
}

impl Load {
    /// Connections queued or being handled.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Connections waiting in the queue.
    pub fn queued(&self) -> usize {
        self.queue.lock().map(|q| q.len()).unwrap_or(0)
    }

    /// Writes both counts to the `serve.active_connections` and
    /// `serve.queue_depth` gauges; a handler calls it when it answers a
    /// metrics scrape.
    pub fn record_gauges(&self, metrics: &Metrics) {
        metrics.gauge("serve.active_connections", self.active() as f64);
        metrics.gauge("serve.queue_depth", self.queued() as f64);
    }
}

/// State shared by the accept loop, the workers and the rejectors.
struct State {
    limits: Limits,
    metrics: Metrics,
    load: Arc<Load>,
    handler: Box<Handler>,
    shutdown: AtomicBool,
    rejecting: AtomicUsize,
}

/// A running HTTP server: accept loop, bounded queue, worker pool.
/// Dropping it (or calling [`Transport::shutdown`]) stops accepting,
/// drains queued connections, and joins every thread.
pub struct Transport {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Transport {
    /// Binds `addr` (port 0 for an ephemeral port; read it back with
    /// [`Transport::local_addr`]) and serves `handler` within `limits`.
    ///
    /// Fails if binding fails or a thread cannot be spawned; in the
    /// latter case the threads already started are stopped and joined.
    pub fn start<A, H>(
        addr: A,
        limits: Limits,
        metrics: Metrics,
        load: Arc<Load>,
        handler: H,
    ) -> io::Result<Transport>
    where
        A: ToSocketAddrs,
        H: Fn(&RequestHead, &mut dyn BufRead) -> Option<Reply> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(State {
            limits,
            metrics,
            load,
            handler: Box::new(handler),
            shutdown: AtomicBool::new(false),
            rejecting: AtomicUsize::new(0),
        });
        // On an early return, dropping `transport` shuts down and joins
        // whatever already started.
        let mut transport = Transport {
            addr: listener.local_addr()?,
            state,
            accept: None,
            workers: Vec::new(),
        };
        for i in 0..limits.workers.max(1) {
            let state = Arc::clone(&transport.state);
            let worker = thread::Builder::new()
                .name(format!("irma-serve-worker-{i}"))
                .spawn(move || worker_loop(&state))?;
            transport.workers.push(worker);
        }
        let state = Arc::clone(&transport.state);
        let accept = thread::Builder::new()
            .name("irma-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &state))?;
        transport.accept = Some(accept);
        Ok(transport)
    }

    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains queued connections, joins all threads.
    pub fn shutdown(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if self.state.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(accept) = self.accept.take() {
            // Poke the blocking accept() awake so the loop observes the
            // flag; if that fails the loop is already dying.
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
        self.state.load.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.finish();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(state.limits.read_timeout));
        let _ = stream.set_write_timeout(Some(state.limits.read_timeout));
        let Ok(mut queue) = state.load.queue.lock() else {
            break;
        };
        if queue.len() >= state.limits.queue_depth {
            drop(queue);
            state.metrics.incr("serve.rejected_queue", 1);
            // Reject on a short-lived thread so a slow writer cannot
            // stall the accept loop — but cap those threads too.
            if state.rejecting.load(Ordering::Acquire) < state.limits.queue_depth {
                state.rejecting.fetch_add(1, Ordering::AcqRel);
                let for_thread = Arc::clone(state);
                let spawned = thread::Builder::new()
                    .name("irma-serve-reject".to_string())
                    .spawn(move || {
                        reject(stream);
                        for_thread.rejecting.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    state.rejecting.fetch_sub(1, Ordering::AcqRel);
                }
            }
            // Past the rejector cap the connection is silently dropped:
            // under that much pressure even writing 503s is load.
            continue;
        }
        state.load.active.fetch_add(1, Ordering::AcqRel);
        queue.push_back(stream);
        drop(queue);
        state.load.ready.notify_one();
    }
}

/// Over-capacity path (queue full): drain the head, answer 503 with
/// `Retry-After`, close. The head must be read first, or the unread
/// bytes turn the close into a TCP reset and the client never sees the
/// 503. Oversized heads still earn their 431.
fn reject(mut stream: TcpStream) {
    match read_head(&mut BufReader::new(&stream)) {
        Ok(_) => Reply::error(503, "Service Unavailable", "request queue is full", "serve")
            .with_header("Retry-After", "1")
            .write_to(&mut stream),
        Err(HeadError::TooLarge) => write_too_large(&mut stream),
        Err(HeadError::Closed) => {}
    }
}

fn worker_loop(state: &State) {
    loop {
        let mut stream = {
            let Ok(mut queue) = state.load.queue.lock() else {
                return;
            };
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                // Drain-then-exit: the queue-empty check runs before the
                // shutdown check, so queued connections are served first.
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let Ok((guard, _)) = state
                    .load
                    .ready
                    .wait_timeout(queue, Duration::from_millis(100))
                else {
                    return;
                };
                queue = guard;
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_connection(state, &mut stream)));
        if outcome.is_err() {
            state.metrics.incr("serve.worker_panics", 1);
            Reply::error(
                500,
                "Internal Server Error",
                "request handler panicked; the panic was contained",
                "serve",
            )
            .write_to(&mut stream);
        }
        state.load.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Serves one connection: head, handler, response. An early close or a
/// stalled read just drops the connection; an oversized head gets 431 so
/// the close is clean on both sides.
fn serve_connection(state: &State, stream: &mut TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let head = match read_head(&mut reader) {
        Ok(head) => head,
        Err(HeadError::TooLarge) => {
            state.metrics.incr("serve.rejected_head", 1);
            write_too_large(stream);
            return;
        }
        Err(HeadError::Closed) => {
            state.metrics.incr("serve.dropped_connections", 1);
            return;
        }
    };
    state.metrics.incr("serve.requests", 1);
    let Some(reply) = (state.handler)(&head, &mut reader) else {
        // Mid-body disconnect or stall: nobody left to answer.
        state.metrics.incr("serve.dropped_connections", 1);
        return;
    };
    let class = match reply.status {
        200..=299 => "serve.responses_2xx",
        400..=499 => "serve.responses_4xx",
        _ => "serve.responses_5xx",
    };
    state.metrics.incr(class, 1);
    reply.write_to(stream);
}

/// Decodes `%XX` escapes and `+`-for-space in a URL component. Invalid
/// escapes pass through verbatim (a garbled request earns a 400 later,
/// not a panic here).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    std::str::from_utf8(pair)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            byte => {
                out.push(byte);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses a query string (`a=1&b=x%20y`) into decoded key/value pairs.
/// Keys without `=` get an empty value.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// First value for `key` in parsed query pairs.
pub fn query_get<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Renders a `{"error": ..., "stage": ...}` JSON body.
pub fn json_error(message: &str, stage: &str) -> String {
    format!(
        "{{\"error\":\"{}\",\"stage\":\"{}\"}}\n",
        json_escape(message),
        json_escape(stage)
    )
}

/// Reads exactly `len` body bytes. `Err` means the client disconnected
/// or stalled past the socket deadline mid-body — the caller drops the
/// connection (there is nobody left to answer).
pub fn read_body<R: BufRead + ?Sized>(reader: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn percent_decoding_roundtrips() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("SM%20Util%20%3D%200%25"), "SM Util = 0%");
        // Invalid escapes pass through rather than panicking.
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn query_parsing_decodes_pairs() {
        let pairs = parse_query("trace=pai&keyword=State%3DFailed&flag");
        assert_eq!(query_get(&pairs, "trace"), Some("pai"));
        assert_eq!(query_get(&pairs, "keyword"), Some("State=Failed"));
        assert_eq!(query_get(&pairs, "flag"), Some(""));
        assert_eq!(query_get(&pairs, "missing"), None);
    }

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn read_head_distinguishes_truncation_from_early_close() {
        // Clean head parses with lowercased header names.
        let mut ok =
            Cursor::new(b"POST /v1/x?q=1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc".to_vec());
        let head = read_head(&mut ok).expect("clean head");
        assert_eq!(head.method, "POST");
        assert_eq!(head.route(), "/v1/x");
        assert_eq!(head.query(), Some("q=1"));
        assert_eq!(head.header("content-length"), Some("3"));
        assert_eq!(head.header("Content-Length"), Some("3"));
        // Body bytes stay in the reader for the caller.
        let mut body = String::new();
        ok.read_to_string(&mut body).unwrap();
        assert_eq!(body, "abc");
        // EOF before the blank line, under the cap: early close.
        let mut closed = Cursor::new(b"GET / HTTP/1.1\r\nHost: x\r\n".to_vec());
        assert_eq!(read_head(&mut closed), Err(HeadError::Closed));
        // Cap spent before the blank line: truncation.
        let mut big = Vec::from(&b"GET / HTTP/1.1\r\nX-Pad: "[..]);
        big.resize(MAX_REQUEST_HEAD + 64, b'a');
        assert_eq!(read_head(&mut Cursor::new(big)), Err(HeadError::TooLarge));
    }

    /// The shape of the `irma watch --listen` handler: GET-only
    /// `/metrics` and `/healthz`, 404 for any other route.
    fn get_only(head: &RequestHead, _body: &mut dyn BufRead) -> Option<Reply> {
        let reply = match head.route() {
            "/metrics" => Reply::new(
                200,
                "OK",
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                "# TYPE irma_up gauge\nirma_up 1\n# EOF\n".to_string(),
            ),
            "/healthz" => Reply::json(200, "OK", "{\"status\":\"ok\"}".to_string()),
            _ => return Some(Reply::error(404, "Not Found", "unknown route", "test")),
        };
        if head.method != "GET" {
            return Some(
                Reply::error(405, "Method Not Allowed", "use GET", "test")
                    .with_header("Allow", "GET"),
            );
        }
        Some(reply)
    }

    fn start() -> Transport {
        Transport::start(
            "127.0.0.1:0",
            Limits::default(),
            Metrics::disabled(),
            Arc::default(),
            get_only,
        )
        .expect("bind")
    }

    fn request(addr: SocketAddr, head: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(head.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn serves_metrics_and_healthz() {
        let server = start();
        let addr = server.local_addr();
        let metrics = request(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(
            metrics.contains("application/openmetrics-text"),
            "{metrics}"
        );
        assert!(metrics.ends_with("# EOF\n"), "{metrics}");
        let health = request(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        // Query strings are ignored for routing.
        let q = request(addr, "GET /metrics?window=5 HTTP/1.1\r\n\r\n");
        assert!(q.starts_with("HTTP/1.1 200 OK\r\n"), "{q}");
    }

    #[test]
    fn scrape_records_the_occupancy_gauges() {
        // A handler with no gauges of its own exports the transport's
        // through its `Load`.
        let metrics = Metrics::enabled();
        let scraped = metrics.clone();
        let load = Arc::new(Load::default());
        let counted = Arc::clone(&load);
        let server = Transport::start(
            "127.0.0.1:0",
            Limits::default(),
            metrics,
            load,
            move |_: &RequestHead, _: &mut dyn BufRead| {
                counted.record_gauges(&scraped);
                let body = scraped.snapshot().to_openmetrics();
                Some(Reply::new(200, "OK", "text/plain", body))
            },
        )
        .expect("bind");
        let exposition = request(server.local_addr(), "GET /metrics HTTP/1.1\r\n\r\n");
        // The scrape's own connection is the one in flight.
        assert!(
            exposition.contains("\nirma_serve_active_connections 1.0\n"),
            "{exposition}"
        );
        assert!(
            exposition.contains("\nirma_serve_queue_depth 0.0\n"),
            "{exposition}"
        );
    }

    #[test]
    fn unknown_path_is_404_and_non_get_is_405() {
        let server = start();
        let addr = server.local_addr();
        let missing = request(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let post = request(addr, "POST /metrics HTTP/1.1\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        assert!(post.contains("\r\nAllow: GET\r\n"), "{post}");
    }

    /// Polls `done` for up to 5 s.
    fn wait_until(done: impl Fn() -> bool) {
        for _ in 0..500 {
            if done() {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        panic!("transport never reached the expected load");
    }

    #[test]
    fn over_capacity_connections_get_503_and_recover() {
        let limits = Limits {
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_millis(200),
        };
        let load = Arc::new(Load::default());
        let server = Transport::start(
            "127.0.0.1:0",
            limits,
            Metrics::disabled(),
            Arc::clone(&load),
            get_only,
        )
        .expect("bind");
        let addr = server.local_addr();
        // Slow-loris clients: connect, send nothing. They occupy every
        // worker first, then fill the queue.
        let mut idle = Vec::new();
        for held in 1..=limits.workers + limits.queue_depth {
            idle.push(TcpStream::connect(addr).expect("idle connect"));
            wait_until(|| {
                load.active() == held && load.queued() == held.saturating_sub(limits.workers)
            });
        }
        let rejected = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(rejected.starts_with("HTTP/1.1 503"), "{rejected}");
        assert!(rejected.contains("\r\nRetry-After: 1\r\n"), "{rejected}");
        // The read deadline evicts the idlers one after the other; then
        // requests flow again.
        wait_until(|| load.active() == 0);
        let served = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(served.starts_with("HTTP/1.1 200"), "{served}");
        drop(idle);
    }

    #[test]
    fn oversized_header_gets_431_not_a_reset() {
        let server = start();
        let addr = server.local_addr();
        // A single header value larger than the whole 8 KiB head cap:
        // the old reader treated cap exhaustion as a clean end-of-head
        // and answered 200 while unread bytes were still in flight.
        let huge = format!(
            "GET /metrics HTTP/1.1\r\nX-Padding: {}\r\n\r\n",
            "a".repeat(MAX_REQUEST_HEAD)
        );
        let response = request(addr, &huge);
        assert!(response.starts_with("HTTP/1.1 431"), "{response}");
        // The worker is released and normal requests still flow.
        let served = request(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(served.starts_with("HTTP/1.1 200"), "{served}");
    }

    #[test]
    fn drop_stops_the_listener() {
        let server = start();
        let addr = server.local_addr();
        drop(server);
        // The port is released (or at least no longer accepts + serves).
        let refused = TcpStream::connect(addr)
            .map(|mut s| {
                let _ = s.write_all(b"GET /metrics HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                s.read_to_string(&mut buf).map(|_| buf).unwrap_or_default()
            })
            .unwrap_or_default();
        assert!(
            !refused.contains("200 OK"),
            "server still serving: {refused}"
        );
    }
}
