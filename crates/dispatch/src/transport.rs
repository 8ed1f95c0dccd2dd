//! Transport abstraction for the dispatch protocol: framed NDJSON
//! channels over stdio pipes or TCP sockets, the reconnect backoff
//! schedule, and the deterministic network fault injector.
//!
//! The protocol layer ([`crate::pool`], [`crate::net`],
//! [`crate::worker`]) never touches a raw socket or pipe directly: it
//! writes whole frames through a [`FrameSink`] and reads them through a
//! [`LineSource`]. The two stdio halves block forever (a pipe cannot go
//! half-open — the OS delivers EOF the moment the peer dies), while the
//! TCP halves poll with a read timeout so the caller can check
//! heartbeat liveness deadlines between frames. That polling is what
//! makes half-open connections — the failure mode pipes never have —
//! detectable at all.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The write half of a framed NDJSON channel: one protocol message per
/// call, flushed eagerly (frames double as liveness signals, so they
/// must never sit in a buffer).
pub trait FrameSink {
    /// Sends one frame (`line` carries no trailing newline).
    fn send(&mut self, line: &str) -> io::Result<()>;
    /// Closes the write half, EOF-ing the peer's read loop. Sends after
    /// a close fail.
    fn close(&mut self);
}

/// [`FrameSink`] over any owned writer — a worker's stdout, a child's
/// stdin pipe. Closing drops the writer (for a pipe, that is the EOF).
pub struct WriteSink<W: Write>(Option<W>);

impl<W: Write> WriteSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        Self(Some(writer))
    }
}

impl<W: Write> FrameSink for WriteSink<W> {
    fn send(&mut self, line: &str) -> io::Result<()> {
        let w = self
            .0
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "sink closed"))?;
        writeln!(w, "{line}")?;
        w.flush()
    }

    fn close(&mut self) {
        self.0 = None;
    }
}

/// [`FrameSink`] over a shared TCP stream. Writes are serialised
/// through a mutex so a heartbeat thread and a serve loop can share one
/// socket without interleaving bytes mid-frame; the sink is `Clone` for
/// exactly that purpose. Closing shuts the socket down in both
/// directions (every protocol exchange this crate runs is dead once
/// either direction is).
#[derive(Clone)]
pub struct TcpSink(Arc<Mutex<Option<TcpStream>>>);

impl TcpSink {
    /// Wraps (the write half of) `stream`.
    #[must_use]
    pub fn new(stream: TcpStream) -> Self {
        Self(Arc::new(Mutex::new(Some(stream))))
    }
}

impl FrameSink for TcpSink {
    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut guard = self
            .0
            .lock()
            .map_err(|_| io::Error::other("sink mutex poisoned"))?;
        let stream = guard
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "sink closed"))?;
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        stream.write_all(buf.as_bytes())?;
        stream.flush()
    }

    fn close(&mut self) {
        if let Ok(mut guard) = self.0.lock() {
            if let Some(stream) = guard.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// One read step of a framed channel.
pub enum NextLine {
    /// A complete frame (trailing newline stripped).
    Line(String),
    /// The peer closed the channel.
    Eof,
    /// No frame arrived within the poll interval (TCP only): the caller
    /// checks its liveness deadlines and polls again. A blocking stdio
    /// source never returns this.
    Idle,
}

/// The read half of a framed NDJSON channel.
pub trait LineSource {
    /// Reads the next frame, EOF, or — on a polling transport — an idle
    /// tick.
    fn next_line(&mut self) -> io::Result<NextLine>;
}

/// The longest frame any [`LineSource`] accepts, newline excluded. The
/// largest committed plan is about 16 KB and a result payload about
/// 1 KB, so this leaves three orders of magnitude of headroom while
/// bounding what a peer can make us buffer (the coordinator reads a
/// `hello` before checking its token).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// The one line reader under every [`LineSource`]: reads at most one
/// byte past [`MAX_FRAME`] into `partial`, which persists across calls
/// so a frame split across polls is never dropped on a timeout. A
/// longer frame is released and reads as an
/// [`io::ErrorKind::InvalidData`] error; a read timeout is an
/// [`NextLine::Idle`] tick.
fn read_frame<R: Read>(reader: &mut BufReader<R>, partial: &mut String) -> io::Result<NextLine> {
    let room = (MAX_FRAME + 1).saturating_sub(partial.len()) as u64;
    match reader.take(room).read_line(partial) {
        Ok(0) => Ok(NextLine::Eof),
        Ok(_) if partial.ends_with('\n') => {
            partial.truncate(partial.trim_end().len());
            Ok(NextLine::Line(std::mem::take(partial)))
        }
        Ok(_) if partial.len() > MAX_FRAME => {
            *partial = String::new();
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame exceeds the {MAX_FRAME}-byte cap"),
            ))
        }
        // No newline and under the cap: EOF mid-frame.
        Ok(_) => Ok(NextLine::Eof),
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Ok(NextLine::Idle)
        }
        Err(e) => Err(e),
    }
}

/// Blocking [`LineSource`] over any reader (stdin, a pipe). Never
/// returns [`NextLine::Idle`].
pub struct BlockingSource<R: Read> {
    reader: BufReader<R>,
    partial: String,
}

impl<R: Read> BlockingSource<R> {
    /// Wraps `reader`.
    pub fn new(reader: R) -> Self {
        Self { reader: BufReader::new(reader), partial: String::new() }
    }
}

impl<R: Read> LineSource for BlockingSource<R> {
    fn next_line(&mut self) -> io::Result<NextLine> {
        read_frame(&mut self.reader, &mut self.partial)
    }
}

/// Polling [`LineSource`] over a TCP stream: a read timeout turns a
/// silent link into periodic [`NextLine::Idle`] ticks so the caller can
/// enforce a liveness deadline. A read error (an oversized frame
/// included) shuts the connection down.
pub struct TcpSource {
    reader: BufReader<TcpStream>,
    partial: String,
}

impl TcpSource {
    /// Wraps (the read half of) `stream`, polling at `poll` granularity.
    pub fn new(stream: TcpStream, poll: Duration) -> io::Result<Self> {
        stream.set_read_timeout(Some(poll.max(Duration::from_millis(1))))?;
        Ok(Self { reader: BufReader::new(stream), partial: String::new() })
    }
}

impl LineSource for TcpSource {
    fn next_line(&mut self) -> io::Result<NextLine> {
        let next = read_frame(&mut self.reader, &mut self.partial);
        if next.is_err() {
            let _ = self.reader.get_ref().shutdown(Shutdown::Both);
        }
        next
    }
}

// ----- reconnect backoff ------------------------------------------------

/// The reconnect schedule: exponential backoff with deterministic
/// jitter and a capped attempt budget.
///
/// Attempt `n` (0-based) waits `base * 2^n`, clamped to `cap`, then
/// jittered into the upper half of that window — `[d/2, d]` — by a hash
/// of `(seed, n)`. The jitter spreads a fleet of workers that all lost
/// the same coordinator across time instead of having them reconnect in
/// lock-step, while any one worker's schedule stays reproducible from
/// its seed. Once `max_attempts` delays have been spent, [`Backoff::delay`]
/// returns `None` and the caller gives up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    /// First delay; doubled every attempt.
    pub base: Duration,
    /// Ceiling applied to the exponential delay before jitter.
    pub cap: Duration,
    /// Delays granted before `delay` returns `None`.
    pub max_attempts: u32,
    /// Jitter seed (a worker typically uses its pid).
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(200),
            cap: Duration::from_secs(15),
            max_attempts: 10,
            seed: 0x0005_DEEC_E66D,
        }
    }
}

impl Backoff {
    /// The pause before reconnect `attempt` (0-based), or `None` once
    /// the attempt budget is spent.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Option<Duration> {
        if attempt >= self.max_attempts {
            return None;
        }
        let doubled = self.base.saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        let capped = doubled.min(self.cap).max(Duration::from_millis(1));
        let ns = u64::try_from(capped.as_nanos()).unwrap_or(u64::MAX);
        let half = ns / 2;
        let jitter = splitmix64(self.seed ^ (u64::from(attempt) << 32)) % (half + 1);
        Some(Duration::from_nanos(half + jitter))
    }
}

/// `SplitMix64` finaliser — a cheap, well-mixed hash for jitter (no
/// vendored RNG needed).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ----- network fault injection (tests) ----------------------------------

/// What an injected network fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Close the connection (both directions) and let the worker's
    /// reconnect logic take over.
    Drop,
    /// Stop reading *and* writing with the socket left open — a
    /// half-open link that only the peer's heartbeat liveness deadline
    /// can catch.
    Stall,
    /// Kill the worker process outright (exit 86).
    Exit,
}

/// Deterministic network fault injection for tests, parsed from
/// `RIX_DISPATCH_FAULT`:
///
/// * `net-drop:N` — when this worker receives its `N`th *actionable*
///   frame (`init`/`cell`/`shutdown`; heartbeats are not counted, so a
///   test never races the ping timer), close the connection. One-shot:
///   the reconnected worker serves normally after.
/// * `net-drop:N:repeat` — fire on the `N`th actionable frame of
///   *every* connection (a peer that fails every cell it is handed —
///   the quarantine trigger).
/// * `net-stall:N` — go silent with the socket open (simulated
///   half-open link / network partition).
/// * `net-exit:N` — die on the spot (a mid-cell worker crash).
///
/// Frame numbering starts at 1 with the `init` message, so `:2` fires
/// on the first cell assignment. The legacy process-level specs
/// (`abort:K` / `stall:K`, keyed by worker id) are unrelated and parsed
/// by the executor layer, not here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFault {
    /// What happens.
    pub kind: NetFaultKind,
    /// Fires on the `at`-th actionable frame (1-based).
    pub at: u64,
    /// Fire on every connection instead of once per process.
    pub repeat: bool,
}

impl NetFault {
    /// Parses a `RIX_DISPATCH_FAULT` value; `None` for anything that is
    /// not a network fault spec (including the legacy `abort:K` /
    /// `stall:K` process faults).
    #[must_use]
    pub fn parse(spec: &str) -> Option<Self> {
        let mut parts = spec.split(':');
        let kind = match parts.next()? {
            "net-drop" => NetFaultKind::Drop,
            "net-stall" => NetFaultKind::Stall,
            "net-exit" => NetFaultKind::Exit,
            _ => return None,
        };
        let at: u64 = parts.next()?.parse().ok().filter(|&n| n >= 1)?;
        let repeat = match parts.next() {
            None => false,
            Some("repeat") => true,
            Some(_) => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(Self { kind, at, repeat })
    }

    /// Reads the fault spec from `RIX_DISPATCH_FAULT`.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        std::env::var("RIX_DISPATCH_FAULT").ok().as_deref().and_then(Self::parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_are_exponential_with_bounded_jitter() {
        let b = Backoff {
            base: Duration::from_millis(100),
            cap: Duration::from_secs(60),
            max_attempts: 6,
            seed: 42,
        };
        for attempt in 0..6 {
            let nominal = Duration::from_millis(100 * (1 << attempt));
            let d = b.delay(attempt).expect("within budget");
            assert!(
                d >= nominal / 2 && d <= nominal,
                "attempt {attempt}: {d:?} outside [{:?}, {nominal:?}]",
                nominal / 2
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_varies_across_seeds() {
        let mk = |seed| Backoff { seed, ..Backoff::default() };
        let (a, b) = (mk(1), mk(1));
        assert_eq!(
            (0..10).map(|n| a.delay(n)).collect::<Vec<_>>(),
            (0..10).map(|n| b.delay(n)).collect::<Vec<_>>(),
            "same seed, same schedule"
        );
        let c = mk(2);
        assert!(
            (0..10).any(|n| a.delay(n) != c.delay(n)),
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn backoff_caps_the_exponential() {
        let b = Backoff {
            base: Duration::from_millis(100),
            cap: Duration::from_millis(250),
            max_attempts: 40,
            seed: 7,
        };
        // Attempt 30 would nominally be 100ms * 2^30; the cap bounds it.
        let d = b.delay(30).expect("within budget");
        assert!(d <= Duration::from_millis(250), "{d:?} exceeds the cap");
        assert!(d >= Duration::from_millis(125), "{d:?} under half the cap");
    }

    #[test]
    fn backoff_attempt_budget_is_exact() {
        let b = Backoff { max_attempts: 3, ..Backoff::default() };
        assert!(b.delay(0).is_some());
        assert!(b.delay(2).is_some());
        assert_eq!(b.delay(3), None, "budget spent");
        assert_eq!(b.delay(100), None);
        let none = Backoff { max_attempts: 0, ..Backoff::default() };
        assert_eq!(none.delay(0), None, "zero budget never sleeps");
    }

    #[test]
    fn net_fault_specs_parse_and_reject() {
        assert_eq!(
            NetFault::parse("net-drop:2"),
            Some(NetFault { kind: NetFaultKind::Drop, at: 2, repeat: false })
        );
        assert_eq!(
            NetFault::parse("net-drop:3:repeat"),
            Some(NetFault { kind: NetFaultKind::Drop, at: 3, repeat: true })
        );
        assert_eq!(
            NetFault::parse("net-stall:1"),
            Some(NetFault { kind: NetFaultKind::Stall, at: 1, repeat: false })
        );
        assert_eq!(
            NetFault::parse("net-exit:5"),
            Some(NetFault { kind: NetFaultKind::Exit, at: 5, repeat: false })
        );
        // Legacy process faults and garbage are not network faults.
        for bad in ["abort:1", "stall:0", "net-drop", "net-drop:0", "net-drop:2:always", "net-drop:2:repeat:x", ""] {
            assert_eq!(NetFault::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn write_sink_frames_and_closes() {
        let mut sink = WriteSink::new(Vec::new());
        sink.send("{\"a\":1}").expect("write");
        sink.send("{\"b\":2}").expect("write");
        sink.close();
        assert!(sink.send("{}").is_err(), "closed sink rejects writes");
    }

    #[test]
    fn tcp_source_caps_frames_and_closes() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"{\"ok\":1}\n").expect("first frame");
            // One byte over the cap and no newline: writes fail once the
            // reader shuts the connection, which is the point.
            let chunk = vec![b'x'; 1 << 20];
            let mut sent = 0;
            while sent <= MAX_FRAME && stream.write_all(&chunk).is_ok() {
                sent += chunk.len();
            }
        });
        let (stream, _) = listener.accept().expect("accept");
        let mut src = TcpSource::new(stream, Duration::from_millis(20)).expect("source");
        let mut frames = Vec::new();
        let err = loop {
            match src.next_line() {
                Ok(NextLine::Line(l)) => frames.push(l),
                Ok(NextLine::Idle) => {}
                Ok(NextLine::Eof) => panic!("an oversized frame is not a clean EOF"),
                Err(e) => break e,
            }
        };
        assert_eq!(frames, ["{\"ok\":1}"], "frames under the cap pass");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"), "{err}");
        assert_eq!(src.partial.capacity(), 0, "the oversized frame is released");
        peer.join().expect("peer");
    }

    #[test]
    fn blocking_source_caps_frames() {
        let mut data = vec![b'x'; MAX_FRAME + 1];
        data.push(b'\n');
        let mut src = BlockingSource::new(std::io::Cursor::new(data));
        match src.next_line() {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
            Ok(NextLine::Line(l)) => panic!("an oversized frame passed ({} bytes)", l.len()),
            Ok(_) => panic!("an oversized frame is not EOF or idle"),
        }
        assert_eq!(src.partial.capacity(), 0, "the oversized frame is released");
    }

    #[test]
    fn blocking_source_reads_lines_then_eof() {
        let data = b"{\"a\":1}\n{\"b\":2}\n".to_vec();
        let mut src = BlockingSource::new(std::io::Cursor::new(data));
        match src.next_line().expect("line") {
            NextLine::Line(l) => assert_eq!(l, "{\"a\":1}"),
            _ => panic!("expected a line"),
        }
        match src.next_line().expect("line") {
            NextLine::Line(l) => assert_eq!(l, "{\"b\":2}"),
            _ => panic!("expected a line"),
        }
        assert!(matches!(src.next_line().expect("eof"), NextLine::Eof));
    }
}
