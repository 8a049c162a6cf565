//! The poll(2) reactor both network front ends run on: the
//! `hetmem-serve` core ([`crate::serve`]) and the `hetmem-fleet`
//! router ([`crate::fleet`]).
//!
//! Std-only — the only FFI is `poll(2)` itself (declared here, no libc
//! crate). One detached thread owns a nonblocking listener, a wake
//! pipe, and one [`Conn`] per accepted socket, each with a read buffer
//! (bytes → lines) and a write buffer (responses waiting for the socket
//! to accept them). The loop drives one front end's in-flight
//! [`Table`] through two entry points: a complete request line
//! ([`Table::line`]), and a finished background job
//! ([`Table::completion`]). Everything else lives here, and calls the
//! table's [`Exec`] directly for the rest:
//!
//! * **Completions.** Work handed to another thread carries a [`Sink`]
//!   minted by [`Completions::sink`]. Delivering it pushes the reply
//!   onto the loop's channel and wakes the loop through the pipe;
//!   dropping it undelivered (the worker panicked) delivers the sink's
//!   fallback instead, so every submitted request completes exactly
//!   once. Many requests per connection may be in flight at once
//!   (pipelining); responses go out in completion order.
//! * **Backpressure** is structural: a line arriving while its
//!   connection holds `conn_buffer` bytes of unflushed responses is
//!   handed to the table marked `shed` (answered `overloaded`), and
//!   past 4× that the loop stops reading from the connection until it
//!   drains. A slow reader degrades; it never wedges the loop.
//! * **Timeouts.** An idle connection (nothing in flight, nothing to
//!   write) past `read_timeout` is closed, as is one whose writer has
//!   stalled past `write_timeout`.
//! * **Drain.** Once [`Exec::draining`] turns true — a front end
//!   wakes the loop for it through its [`Reactor::waker`] — the loop
//!   accepts the backlog one last time, so a client whose handshake
//!   already finished gets the front end's draining answer instead of a
//!   reset, and then drops the listener. Every accepted request still
//!   gets its response bytes flushed; then [`Exec::drained`] runs, so
//!   a waiter on a [`DrainGate`] can return. The loop itself lingers to
//!   answer connections a client still holds open, and exits once they
//!   close.

use std::collections::HashMap;
use std::ffi::{c_int, c_ulong};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::front::{Exec, Reply, Table};

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until an fd is ready or `timeout_ms` passes. Errors
/// (EINTR included) read as "nothing ready"; the loop just re-polls.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) {
    // SAFETY: `fds` is a live, correctly-repr(C) slice for the call's
    // duration, and poll(2) writes only to `revents` within it.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms);
    }
}

/// Saturating microseconds.
pub(crate) fn us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The drain handshake: a front end's `wait()` blocks here until its
/// [`Exec::drained`] marks the gate.
#[derive(Default)]
pub(crate) struct DrainGate {
    flushed: Mutex<bool>,
    cv: Condvar,
}

impl DrainGate {
    pub(crate) fn mark(&self) {
        let mut flushed = self.flushed.lock().unwrap_or_else(|e| e.into_inner());
        *flushed = true;
        self.cv.notify_all();
    }

    pub(crate) fn wait(&self) {
        let mut flushed = self.flushed.lock().unwrap_or_else(|e| e.into_inner());
        while !*flushed {
            flushed = self.cv.wait(flushed).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Wakes the poll loop from another thread by writing one byte into
/// the loop's wake pipe. Infallible by design: if the pipe is full the
/// loop is already scheduled to wake.
#[derive(Clone)]
pub(crate) struct Waker(Arc<UnixStream>);

impl Waker {
    pub(crate) fn wake(&self) {
        let _ = (&*self.0).write(&[1u8]);
    }
}

/// The reply path of one submitted job: [`Sink::deliver`] hands the
/// reply to the loop, keyed by the job's completion token, and wakes
/// it. Dropping the sink undelivered delivers its fallback, so the job
/// completes exactly once either way.
pub(crate) struct Sink<R> {
    tx: mpsc::Sender<(u64, R)>,
    token: u64,
    waker: Waker,
    /// Sent on drop; `None` once a reply went out.
    fallback: Option<R>,
}

impl<R> Sink<R> {
    pub(crate) fn deliver(mut self, reply: R) {
        self.fallback = None;
        self.send(reply);
    }

    fn send(&self, reply: R) {
        let _ = self.tx.send((self.token, reply));
        self.waker.wake();
    }
}

impl<R> Drop for Sink<R> {
    fn drop(&mut self) {
        if let Some(reply) = self.fallback.take() {
            self.send(reply);
        }
    }
}

/// Mints completion tokens and the [`Sink`]s that answer them.
pub(crate) struct Completions<R> {
    tx: mpsc::Sender<(u64, R)>,
    waker: Waker,
    next_token: u64,
}

impl<R> Completions<R> {
    pub(crate) fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// A sink for `token` that delivers `fallback` if dropped unsent.
    pub(crate) fn sink(&self, token: u64, fallback: R) -> Sink<R> {
        Sink {
            tx: self.tx.clone(),
            token,
            waker: self.waker.clone(),
            fallback: Some(fallback),
        }
    }
}

/// One accepted connection's state machine.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet split into complete request lines.
    rbuf: Vec<u8>,
    /// Encoded responses the socket hasn't accepted yet; `wpos` marks
    /// how far the kernel has taken them.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests handed off whose completions haven't been delivered
    /// to this connection yet.
    pub(crate) inflight: usize,
    /// No more reads; flush what's pending, wait out `inflight`, drop.
    pub(crate) closing: bool,
    /// A response was torn on this connection ([`Conn::tear`]); the
    /// front end must append nothing after it, so a torn line is never
    /// followed by more bytes.
    pub(crate) poisoned: bool,
    /// Write failed hard (reset/EPIPE): drop without flushing.
    pub(crate) dead: bool,
    last_read: Instant,
    /// End of the previous request line — a front end measures its
    /// per-line read phase (socket wait plus client think time) from
    /// here.
    pub(crate) last_line_done: Instant,
    /// Last time the socket accepted response bytes.
    last_write_ok: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        let now = Instant::now();
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            closing: false,
            poisoned: false,
            dead: false,
            last_read: now,
            last_line_done: now,
            last_write_ok: now,
        }
    }

    /// Unflushed response bytes — the backpressure signal.
    pub(crate) fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Queues one encoded response. Once the front end is draining the
    /// connection closes after its responses flush.
    pub(crate) fn queue(&mut self, out: &str, draining: bool) {
        self.wbuf.extend_from_slice(out.as_bytes());
        if draining {
            self.closing = true;
        }
    }

    /// Queues a response prefix and poisons the connection.
    pub(crate) fn tear(&mut self, prefix: &[u8]) {
        self.wbuf.extend_from_slice(prefix);
        self.poisoned = true;
    }

    /// Splits the next complete request line (newline included) out of
    /// the read buffer.
    fn next_line(&mut self) -> Option<String> {
        let pos = self.rbuf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Writes as much buffered response data as the socket will take,
    /// reporting each accepted write's duration to `wrote`.
    fn flush(&mut self, wrote: impl Fn(u64)) {
        while self.pending() > 0 {
            let write_start = Instant::now();
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    wrote(us(write_start.elapsed()));
                    self.wpos += n;
                    self.last_write_ok = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        // Reclaim flushed space: all of it when caught up, else only
        // once the dead prefix is big enough to be worth the memmove.
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

/// The per-connection limits a front end configures.
pub(crate) struct Limits {
    /// Unflushed response bytes past which lines are `shed`; reads
    /// pause at 4× this.
    pub(crate) conn_buffer: usize,
    /// An idle connection past this is closed.
    pub(crate) read_timeout: Duration,
    /// A connection whose writer stalls past this is closed.
    pub(crate) write_timeout: Duration,
}

/// A poll loop bound to its listener but not yet running, so a front
/// end can keep its [`Waker`] (to announce a drain) before the loop
/// starts.
pub(crate) struct Reactor {
    listener: TcpListener,
    waker: Waker,
    wake_rx: UnixStream,
}

impl Reactor {
    /// # Errors
    ///
    /// Socket setup failures.
    pub(crate) fn new(listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Reactor {
            listener,
            waker: Waker(Arc::new(wake_tx)),
            wake_rx,
        })
    }

    /// Wakes the loop from any thread, e.g. to observe a drain at once.
    pub(crate) fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Starts the loop on a detached thread named `name`, serving the
    /// listener through `table`.
    ///
    /// # Errors
    ///
    /// Thread spawn failures.
    pub(crate) fn spawn<E: Exec>(
        self,
        name: &str,
        limits: Limits,
        table: Table<E>,
    ) -> io::Result<()> {
        let (tx, rx) = mpsc::channel();
        let done = Completions {
            tx,
            waker: self.waker,
            next_token: 1,
        };
        let (listener, wake_rx) = (self.listener, self.wake_rx);
        thread::Builder::new()
            .name(name.to_string())
            .spawn(move || run(listener, &limits, table, done, rx, wake_rx))?;
        Ok(())
    }
}

/// Runs [`Exec::drained`] when the loop exits for any reason (a
/// panic included), so a waiter can never hang on a dead loop.
struct DrainedOnExit<E: Exec>(Table<E>);

impl<E: Exec> Drop for DrainedOnExit<E> {
    fn drop(&mut self) {
        self.0.exec.drained();
    }
}

fn run<E: Exec>(
    listener: TcpListener,
    limits: &Limits,
    table: Table<E>,
    mut done: Completions<Reply<E>>,
    replies: mpsc::Receiver<(u64, Reply<E>)>,
    wake_rx: UnixStream,
) {
    let mut exit = DrainedOnExit(table);
    let t = &mut exit.0;
    let mut listener = Some(listener);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 1;
    let mut drain_marked = false;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut wake_scratch = [0u8; 256];
    let read_cap = limits.conn_buffer.saturating_mul(4);
    loop {
        let draining = t.exec.draining();
        if draining {
            // Serve the connections whose handshake already finished,
            // then refuse new ones; everything accepted still drains.
            if let Some(l) = listener.take() {
                accept(&l, t, &mut conns, &mut next_conn);
            }
            if conns.is_empty() && t.idle() {
                return;
            }
        }

        // Build the interest set: wake pipe, listener, and each
        // connection's read/write interests.
        let mut fds = Vec::with_capacity(2 + conns.len());
        fds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        if let Some(l) = &listener {
            fds.push(PollFd {
                fd: l.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        let mut polled: Vec<u64> = Vec::with_capacity(conns.len());
        for (&id, c) in &conns {
            let mut events = 0i16;
            // Reads pause entirely once the backlog passes 4× the shed
            // threshold: past that point even `overloaded` responses
            // would grow the buffer without bound.
            if !c.closing && c.pending() < read_cap {
                events |= POLLIN;
            }
            if c.pending() > 0 {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                polled.push(id);
            }
        }
        poll_fds(&mut fds, 200);

        // Drain the wake pipe (level-triggered: one byte left behind
        // would spin the loop).
        while matches!((&wake_rx).read(&mut wake_scratch), Ok(n) if n > 0) {}

        while let Ok((token, reply)) = replies.try_recv() {
            t.completion(&mut conns, token, reply);
        }

        if let Some(l) = &listener {
            accept(l, t, &mut conns, &mut next_conn);
        }

        // Readable connections: pull bytes, split lines, dispatch.
        let conn_fds_start = fds.len() - polled.len();
        for (pfd, &id) in fds[conn_fds_start..].iter().zip(&polled) {
            if pfd.revents == 0 || pfd.revents == POLLOUT {
                continue; // nothing, or write-ready only: flushed below
            }
            let Some(c) = conns.get_mut(&id) else {
                continue;
            };
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        c.closing = true;
                        break;
                    }
                    Ok(n) => {
                        c.last_read = Instant::now();
                        c.rbuf.extend_from_slice(&chunk[..n]);
                        if c.pending() >= read_cap {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            while let Some(line) = c.next_line() {
                let shed = c.pending() >= limits.conn_buffer;
                t.line(c, id, &line, shed, &mut done);
            }
        }

        // Line handling may have queued completions synchronously (a
        // full work queue answers through the sink at once); fold them
        // in before flushing so their bytes ride this pass.
        while let Ok((token, reply)) = replies.try_recv() {
            t.completion(&mut conns, token, reply);
        }

        for c in conns.values_mut() {
            c.flush(|us| t.exec.wrote(us));
        }

        // Close what's finished, time out what's stalled.
        let now = Instant::now();
        conns.retain(|_, c| {
            if c.dead {
                return false;
            }
            if c.closing && c.pending() == 0 && c.inflight == 0 {
                return false;
            }
            if c.inflight == 0
                && c.pending() == 0
                && now.saturating_duration_since(c.last_read) > limits.read_timeout
            {
                return false; // idle past the read timeout
            }
            if c.pending() > 0
                && now.saturating_duration_since(c.last_write_ok) > limits.write_timeout
            {
                return false; // writer stalled past the write timeout
            }
            true
        });

        // The drain handshake: every accepted request has its response
        // bytes flushed and no new connection can arrive.
        if !drain_marked && draining && t.idle() && conns.values().all(|c| c.pending() == 0) {
            t.exec.drained();
            drain_marked = true;
        }
    }
}

/// Accepts every connection waiting in the listener's backlog.
fn accept<E: Exec>(
    listener: &TcpListener,
    t: &Table<E>,
    conns: &mut HashMap<u64, Conn>,
    next_conn: &mut u64,
) {
    while let Ok((stream, _)) = listener.accept() {
        if t.exec.refuse_accept() {
            // The peer sees EOF before any response and retries.
            drop(stream);
            continue;
        }
        stream.set_nodelay(true).ok();
        if stream.set_nonblocking(true).is_ok() {
            conns.insert(*next_conn, Conn::new(stream));
            *next_conn += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completions plus their receiving end and the wake pipe's read
    /// side (kept open so waking never hits a closed pipe).
    fn completions() -> (Completions<u32>, mpsc::Receiver<(u64, u32)>, UnixStream) {
        let (wake_tx, wake_rx) = UnixStream::pair().unwrap();
        wake_tx.set_nonblocking(true).unwrap();
        let (tx, rx) = mpsc::channel();
        let done = Completions {
            tx,
            waker: Waker(Arc::new(wake_tx)),
            next_token: 1,
        };
        (done, rx, wake_rx)
    }

    #[test]
    fn dropped_sink_delivers_its_fallback_once() {
        let (mut done, rx, _wake) = completions();
        let token = done.token();
        drop(done.sink(token, 7));
        assert_eq!(rx.try_recv(), Ok((token, 7)));
        drop(done);
        assert!(rx.try_recv().is_err(), "the fallback went out twice");
    }

    #[test]
    fn delivered_sink_never_delivers_again() {
        let (mut done, rx, _wake) = completions();
        let (a, b) = (done.token(), done.token());
        assert_ne!(a, b);
        done.sink(a, 0).deliver(42);
        done.sink(b, 0).deliver(43);
        drop(done);
        let got: Vec<_> = rx.iter().collect();
        assert_eq!(got, [(a, 42), (b, 43)]);
    }
}
