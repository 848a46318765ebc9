//! Load generation over TCP: a closed-loop caller, a pipelined caller with
//! a fixed window of outstanding requests, and an open-loop sender on an
//! arrival schedule.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long a client waits for any one response before giving up, so a
/// wedged server ends the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

use server::json::{self, Value};

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Connect to `addr`.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = connect(addr)?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(256 * 1024, read_half),
            writer: BufWriter::with_capacity(64 * 1024, stream),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self, buf: &mut String) -> Result<(), String> {
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(0) => Err("connection closed by the server".to_string()),
            Ok(_) => {
                if buf.ends_with('\n') {
                    buf.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Whether a complete response line is already buffered.
    fn buffered_line(&self) -> bool {
        self.reader.buffer().contains(&b'\n')
    }

    /// Send one line and wait for its response: the closed-loop caller.
    /// Returns the response and the round trip in microseconds.
    pub fn call(&mut self, line: &str) -> Result<(String, f64), String> {
        let start = Instant::now();
        self.send(line)?;
        self.flush()?;
        let mut response = String::new();
        self.recv(&mut response)?;
        Ok((response, start.elapsed().as_secs_f64() * 1e6))
    }

    /// Send every line at once and collect the responses, matched to the
    /// lines by id (`lines[i]` must carry id `"{prefix}{i}"`).
    pub fn call_all(&mut self, prefix: &str, lines: &[String]) -> Result<Vec<String>, String> {
        for line in lines {
            self.send(line)?;
        }
        self.flush()?;
        let mut out = vec![String::new(); lines.len()];
        let mut buf = String::new();
        for _ in 0..lines.len() {
            self.recv(&mut buf)?;
            let (id, _) = split_id(&buf).ok_or_else(|| format!("response without id: {buf}"))?;
            let index: usize = id
                .strip_prefix(prefix)
                .and_then(|n| n.parse().ok())
                .filter(|&i| i < lines.len())
                .ok_or_else(|| format!("unexpected id {id:?}"))?;
            out[index] = buf.clone();
        }
        Ok(out)
    }
}

/// Fetch the `stats` payload from a server or router.
pub fn fetch_stats(addr: &str) -> Result<Value, String> {
    let mut conn = Conn::open(addr)?;
    let (response, _) = conn.call(r#"{"op":"stats","id":"bench-stats"}"#)?;
    let value = json::parse(&response).map_err(|e| format!("stats response: {e}"))?;
    value
        .get("result")
        .cloned()
        .ok_or_else(|| format!("stats failed: {response}"))
}

/// Split a response line `{"id":"X",REST` into (`X`, `,REST`) — the rest
/// is the byte-exact payload to compare.  `None` when the id is not a
/// leading string field.
pub fn split_id(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    let end = rest.find('"')?;
    Some((&rest[..end], &rest[end + 1..]))
}

/// Whether a response tail (after the id) reports success.
pub fn tail_ok(tail: &str) -> bool {
    tail.starts_with(",\"ok\":true")
}

/// A request template for the pipelined caller: the request line after its
/// id, and the exact response bytes after the id it must get.
#[derive(Clone, Debug)]
pub struct Template {
    /// Request line with the leading `{"id":"…"` removed (starts with `,`).
    pub request_tail: String,
    /// Accepted responses with the leading `{"id":"…"` removed.
    pub response_tails: Vec<String>,
    /// The verb, for per-verb request counts.
    pub verb: &'static str,
}

/// What one pipelined connection observed.
#[derive(Debug, Default)]
pub struct PipeOutcome {
    /// Per-request latency, send to receive, in microseconds.
    pub latencies_us: Vec<f64>,
    /// When each of those responses arrived.
    pub received: Vec<Instant>,
    /// Requests sent.
    pub sent: u64,
    /// Error responses (busy, deadline, …).
    pub failed: u64,
    /// Successful responses whose bytes differ from the expected ones.
    pub wrong: u64,
    /// Requests answered successfully, per verb.
    pub per_verb: std::collections::BTreeMap<&'static str, u64>,
    /// When each successful response arrived.
    pub completions: Vec<Instant>,
}

/// Closed loop with a window: keep `window` requests outstanding on one
/// connection, cycling through `order` (indices into `templates`), each
/// request with the fresh id `"{tag}{seq}"`, until `stop` or until
/// `max_requests` have been sent; then drain.
pub fn pipelined(
    addr: &str,
    tag: &str,
    templates: &[Template],
    order: &[usize],
    window: usize,
    stop: Instant,
    max_requests: usize,
) -> Result<PipeOutcome, String> {
    let mut conn = Conn::open(addr)?;
    let mut out = PipeOutcome::default();
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut which: Vec<usize> = Vec::new();
    let mut outstanding = 0usize;
    let mut cursor = 0usize;
    let mut buf = String::new();
    let mut line = String::new();
    loop {
        let now = Instant::now();
        if now < stop {
            while outstanding < window && sent_at.len() < max_requests {
                let t = order[cursor % order.len()];
                cursor += 1;
                line.clear();
                line.push_str("{\"id\":\"");
                line.push_str(tag);
                line.push_str(&sent_at.len().to_string());
                line.push('"');
                line.push_str(&templates[t].request_tail);
                sent_at.push(Instant::now());
                which.push(t);
                conn.send(&line)?;
                outstanding += 1;
            }
            conn.flush()?;
        }
        if outstanding == 0 {
            break;
        }
        loop {
            conn.recv(&mut buf)?;
            let received = Instant::now();
            let (id, tail) = split_id(&buf).ok_or_else(|| format!("response without id: {buf}"))?;
            let seq: usize = id
                .strip_prefix(tag)
                .and_then(|n| n.parse().ok())
                .filter(|&s| s < sent_at.len())
                .ok_or_else(|| format!("unexpected id {id:?}"))?;
            out.latencies_us
                .push(received.duration_since(sent_at[seq]).as_secs_f64() * 1e6);
            out.received.push(received);
            if !tail_ok(tail) {
                out.failed += 1;
            } else {
                out.completions.push(received);
                *out.per_verb.entry(templates[which[seq]].verb).or_default() += 1;
            }
            if tail_ok(tail)
                && !templates[which[seq]]
                    .response_tails
                    .iter()
                    .any(|r| r == tail)
            {
                out.wrong += 1;
            }
            outstanding -= 1;
            if outstanding == 0 || !conn.buffered_line() {
                break;
            }
        }
    }
    out.sent = sent_at.len() as u64;
    Ok(out)
}

/// One request of an open-loop schedule.
#[derive(Clone, Debug)]
pub struct Scheduled {
    /// When it is due, in microseconds after the schedule starts.
    pub due_us: u64,
    /// The request line (its id ends in `-<index>`, `index` being its
    /// position in the schedule).
    pub line: String,
}

/// What happened to one scheduled request.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// When it was sent, in microseconds after the schedule start.
    pub sent_us: Option<f64>,
    /// When its response arrived, in microseconds after the schedule start.
    pub received_us: Option<f64>,
    /// The response line.
    pub response: String,
}

/// Latency from when a request was due (not when it was sent, so a stalled
/// sender's delay counts against later requests) and how late the
/// generator sent it.  Requests without a response are left out of both.
pub fn due_time_accounting(due_us: &[u64], observed: &[Observed]) -> (Vec<f64>, Vec<f64>) {
    let mut latency = Vec::with_capacity(due_us.len());
    let mut late = Vec::with_capacity(due_us.len());
    for (&due, obs) in due_us.iter().zip(observed) {
        if let (Some(sent), Some(received)) = (obs.sent_us, obs.received_us) {
            latency.push(received - due as f64);
            late.push((sent - due as f64).max(0.0));
        }
    }
    (latency, late)
}

fn index_of(line: &str) -> Option<usize> {
    let (id, _) = split_id(line)?;
    id.rsplit('-').next()?.parse().ok()
}

/// Open loop over `connections` connections: request `i` goes out on
/// connection `i % connections` when due, whatever the server's state;
/// responses are matched back by id.
pub fn open_loop(
    addr: &str,
    connections: usize,
    schedule: &[Scheduled],
) -> Result<Vec<Observed>, String> {
    let mut halves = Vec::with_capacity(connections);
    for _ in 0..connections {
        let stream = connect(addr)?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        halves.push((stream, read_half));
    }
    let start = Instant::now();
    let mut all = vec![Observed::default(); schedule.len()];
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for (c, (stream, read_half)) in halves.into_iter().enumerate() {
            let mine: Vec<usize> = (c..schedule.len()).step_by(connections).collect();
            let expected = mine.len();
            let receiver = scope.spawn(move || receive_all(read_half, expected, start));
            let sender = scope.spawn(move || send_on_schedule(stream, &mine, schedule, start));
            threads.push((sender, receiver));
        }
        for (sender, receiver) in threads {
            for (i, at) in sender.join().expect("sender thread never panics") {
                all[i].sent_us = Some(at);
            }
            for (line, at) in receiver.join().expect("receiver thread never panics") {
                if let Some(obs) = index_of(&line).and_then(|i| all.get_mut(i)) {
                    obs.received_us = Some(at);
                    obs.response = line;
                }
            }
        }
    });
    Ok(all)
}

fn send_on_schedule(
    mut stream: TcpStream,
    mine: &[usize],
    schedule: &[Scheduled],
    start: Instant,
) -> Vec<(usize, f64)> {
    let mut sent = Vec::with_capacity(mine.len());
    let mut line = String::new();
    for &i in mine {
        wait_until(start + Duration::from_micros(schedule[i].due_us));
        let at = start.elapsed().as_secs_f64() * 1e6;
        line.clear();
        line.push_str(&schedule[i].line);
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            break;
        }
        sent.push((i, at));
    }
    sent
}

fn receive_all(read_half: TcpStream, expected: usize, start: Instant) -> Vec<(String, f64)> {
    let mut reader = BufReader::with_capacity(256 * 1024, read_half);
    let mut got = Vec::with_capacity(expected);
    let mut buf = String::new();
    while got.len() < expected {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => got.push((
                buf.trim_end().to_string(),
                start.elapsed().as_secs_f64() * 1e6,
            )),
        }
    }
    got
}

/// Sleep until a millisecond before `deadline`, then spin the rest of the
/// way, so a late wake-up from the sleep does not make the send late.
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(1000);
    let now = Instant::now();
    if deadline > now + SPIN {
        std::thread::sleep(deadline - now - SPIN);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(sent: f64, received: f64) -> Observed {
        Observed {
            sent_us: Some(sent),
            received_us: Some(received),
            response: String::new(),
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due every 100 µs.  The sender stalls 250 µs on the second request,
        // so it and the third go out late; both latencies include the stall.
        let due = [0, 100, 200, 300];
        let observed = [
            obs(0.0, 40.0),
            obs(350.0, 390.0),
            obs(360.0, 400.0),
            obs(300.0, 340.0),
        ];
        let (latency, late) = due_time_accounting(&due, &observed);
        assert_eq!(latency, vec![40.0, 290.0, 200.0, 40.0]);
        assert_eq!(late, vec![0.0, 250.0, 160.0, 0.0]);
    }

    #[test]
    fn unanswered_requests_are_left_out_and_early_sends_are_not_late() {
        let due = [0, 100, 200];
        let observed = [
            obs(0.0, 10.0),
            Observed {
                sent_us: Some(100.0),
                received_us: None,
                response: String::new(),
            },
            obs(199.5, 260.0),
        ];
        let (latency, late) = due_time_accounting(&due, &observed);
        assert_eq!(latency, vec![10.0, 60.0]);
        assert_eq!(late, vec![0.0, 0.0]);
    }

    #[test]
    fn ids_split_off_byte_exactly() {
        let line = r#"{"id":"w0-17","ok":true,"verb":"containment","result":{}}"#;
        let (id, tail) = split_id(line).unwrap();
        assert_eq!(id, "w0-17");
        assert_eq!(tail, r#","ok":true,"verb":"containment","result":{}}"#);
        assert!(tail_ok(tail));
        assert_eq!(index_of(r#"{"id":"t3-00042","ok":false}"#), Some(42));
        assert!(split_id(r#"{"ok":true}"#).is_none());
    }
}
