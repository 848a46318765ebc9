//! Response memo: a bounded cache of complete decision results keyed by
//! the **exact request content**.
//!
//! The structural [`DecisionCache`](nonrec_equivalence::cache::DecisionCache)
//! makes a repeated decision cheap to *decide* — but a warm request still
//! pays to parse both programs, unfold the candidate, and canonicalise
//! every rule before it can so much as look the answer up.  On the wire
//! that re-canonicalisation is pure overhead: two byte-identical requests
//! always reach the same *decision* — verdict, witness, rewrite — because
//! decisions are pure functions of the request (the cache only changes how
//! fast they are answered, never what they answer; the differential
//! suites lock this).  The payloads of two executions are not byte-equal,
//! though: the instrumentation fields `stats.micros`,
//! `containment_cache_hits` and `strategy_decisions` report the run that
//! produced them.  So the memo keeps the **first** payload stored under a
//! key, even when two identical requests in flight both executed and both
//! store, and every later repeat answers those same bytes.
//!
//! So the serving layer memoises at the text level: the first execution of
//! a request stores its `result` payload here, and a byte-identical repeat
//! is answered **on the reader thread** — no worker-pool round trip, no
//! parsing beyond the request frame, no canonicalisation.  This is what
//! lets a pipelined warm client drain at memory speed instead of decision
//! speed (experiment E14's pipelined phases gate the ratio).
//!
//! Soundness boundaries, enforced by [`memo_key`]:
//!
//! * only the pure decision verbs (`containment`, `equivalence`, `bounded`,
//!   `optimize`, `minimize`, `rewrite`) are memoised — never `trace`,
//!   `stats`, `metrics_text`, the admin verbs, or batches (batch items
//!   re-enter the pool individually and carry their own ids);
//! * a request with `"no_cache": true` never touches the memo, matching
//!   the decision layer's own contract for that flag;
//! * the key is the complete debug rendering of the parsed command —
//!   every field that reaches the engine is part of the key, so no two
//!   requests that could differ in outcome can collide;
//! * error responses are not stored (a deadline expiry or resource-limit
//!   abort may succeed on retry with different load).
//!
//! The memo is process-global (like the `DecisionCache` it fronts),
//! bounded to [`MEMO_CAP`] entries with exact least-recently-used
//! eviction, and cleared by the `clear_cache` admin verb so "forget
//! everything" keeps meaning what it says.  Both memos share one store
//! whose lookup, store and eviction run in constant time.
//!
//! In front of it sits a second, even earlier layer — the [`LineMemo`] —
//! which answers *byte-identical request lines* before the JSON frame is
//! parsed at all; see its docs for why that inherits this module's
//! soundness argument.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::json::Value;
use crate::protocol::Command;

/// Maximum number of memoised responses.  Result payloads are single-line
/// JSON values (typically well under a kilobyte; counterexamples a few),
/// so the memo's memory footprint stays in the low megabytes.
pub const MEMO_CAP: usize = 4096;

/// The memo key of a command: `Some` exactly when the command may be
/// memoised (see the module docs for the boundaries).
pub fn memo_key(command: &Command) -> Option<String> {
    let options = match command {
        Command::Containment { options, .. }
        | Command::Equivalence { options, .. }
        | Command::Bounded { options, .. }
        | Command::Optimize { options, .. }
        | Command::Minimize { options, .. }
        | Command::Rewrite { options, .. } => options,
        // `trace` is excluded deliberately: its payload is the *events* of
        // an actual run, and replaying a stored event list would report a
        // run that never happened (a cached repeat legitimately traces as a
        // single cache-hit decision span instead).
        Command::Trace { .. }
        | Command::MetricsText
        | Command::Batch { .. }
        | Command::Stats
        | Command::ClearCache
        | Command::CacheLimits { .. }
        | Command::SaveCache { .. }
        | Command::LoadCache { .. } => return None,
    };
    if !options.use_cache {
        return None;
    }
    // The derived debug rendering covers every field of every decision
    // variant (programs, goal, query, depth, flags, options), so equal keys
    // imply equal engine inputs.
    Some(format!("{command:?}"))
}

/// Link value meaning "no neighbour" in the recency list.
const NIL: usize = usize::MAX;

/// One stored entry, threaded on the recency list by slab index.
struct Node<V> {
    /// Shared with the index map, so each key's bytes are stored once.
    key: Arc<str>,
    value: V,
    /// Neighbour towards the most recently used end.
    newer: usize,
    /// Neighbour towards the least recently used end.
    older: usize,
}

/// Exact LRU over at most [`MEMO_CAP`] entries: a hash index into a slab
/// of nodes that form a doubly linked recency list.  Lookup, store and
/// eviction are all O(1): a hit relinks its node at the newest end, and a
/// store into a full memo reuses the oldest node's slot in place.
struct Lru<V> {
    index: HashMap<Arc<str>, usize>,
    nodes: Vec<Node<V>>,
    newest: usize,
    oldest: usize,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Lru {
            index: HashMap::new(),
            nodes: Vec::new(),
            newest: NIL,
            oldest: NIL,
        }
    }
}

impl<V> Lru<V> {
    fn unlink(&mut self, slot: usize) {
        let Node { newer, older, .. } = self.nodes[slot];
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o].newer = newer,
        }
    }

    fn link_newest(&mut self, slot: usize) {
        self.nodes[slot].newer = NIL;
        self.nodes[slot].older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.nodes[n].newer = slot,
        }
        self.newest = slot;
    }

    fn touch(&mut self, slot: usize) {
        if self.newest != slot {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    /// The value stored under `key`, made the most recently used.
    fn get(&mut self, key: &str) -> Option<&V> {
        let slot = *self.index.get(key)?;
        self.touch(slot);
        Some(&self.nodes[slot].value)
    }

    /// Store `value()` under `key` as the most recently used entry,
    /// evicting the least recently used one when the memo is full.  A key
    /// already present is only refreshed: its first payload is kept (and
    /// `value` never runs), so a repeat answers the same bytes every time
    /// even when two executions of one request raced to store.
    fn insert(&mut self, key: String, value: impl FnOnce() -> V) {
        if let Some(&slot) = self.index.get(key.as_str()) {
            self.touch(slot);
            return;
        }
        // Made before any link changes, so the lists stay consistent (for
        // a later poison-recovered lock) even if it panics.
        let value = value();
        let key: Arc<str> = key.into();
        let slot = if self.nodes.len() < MEMO_CAP {
            self.nodes.push(Node {
                key: key.clone(),
                value,
                newer: NIL,
                older: NIL,
            });
            self.nodes.len() - 1
        } else {
            let slot = self.oldest;
            self.unlink(slot);
            let node = &mut self.nodes[slot];
            self.index.remove(&node.key);
            node.key = key.clone();
            node.value = value;
            slot
        };
        self.link_newest(slot);
        self.index.insert(key, slot);
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn clear(&mut self) {
        *self = Lru::default();
    }
}

/// The one bounded store behind both memos: an [`Lru`] under a mutex.
struct Store<V> {
    inner: Mutex<Lru<V>>,
}

impl<V> Default for Store<V> {
    fn default() -> Self {
        Store {
            inner: Mutex::new(Lru::default()),
        }
    }
}

impl<V: Clone> Store<V> {
    fn lock(&self) -> MutexGuard<'_, Lru<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, key: &str) -> Option<V> {
        self.lock().get(key).cloned()
    }

    fn store(&self, key: String, value: impl FnOnce() -> V) {
        self.lock().insert(key, value);
    }

    fn clear(&self) {
        self.lock().clear();
    }

    fn len(&self) -> usize {
        self.lock().len()
    }
}

/// The bounded text-level result cache.  See the module docs.
#[derive(Default)]
pub struct ResponseMemo {
    store: Store<Value>,
}

impl ResponseMemo {
    /// A fresh, empty memo (tests; the server uses [`ResponseMemo::global`]).
    pub fn new() -> ResponseMemo {
        ResponseMemo::default()
    }

    /// The process-wide memo every connection of every in-process server
    /// shares, mirroring `DecisionCache::global()`.
    pub fn global() -> &'static ResponseMemo {
        static GLOBAL: OnceLock<ResponseMemo> = OnceLock::new();
        GLOBAL.get_or_init(ResponseMemo::new)
    }

    /// Recall the stored result payload for `key`, refreshing its LRU
    /// recency.
    pub fn lookup(&self, key: &str) -> Option<Value> {
        self.store.lookup(key)
    }

    /// Store the result payload of a successfully executed command,
    /// evicting the least-recently-used entry in constant time when the
    /// memo is full.  A key already present keeps its first payload and
    /// only has its recency refreshed.
    pub fn store(&self, key: String, result: &Value) {
        self.store.store(key, || result.clone());
    }

    /// Forget everything (the `clear_cache` admin verb).
    pub fn clear(&self) {
        self.store.clear();
    }

    /// Number of memoised responses (the `stats` verb's gauge).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The raw-line front memo: complete rendered response **lines** keyed by
/// the exact bytes of the request line.
///
/// The [`ResponseMemo`] already spares a repeated decision its
/// canonicalisation — but the reader thread still parses the JSON frame
/// and re-derives the command key on every repeat.  A pipelined warm
/// burst is byte-identical line after byte-identical line, so even that
/// parse is pure overhead.  This memo answers such repeats with a stored
/// response line before the frame is parsed at all.
///
/// Soundness is inherited, not re-argued: a line is stored **only** after
/// that exact line was parsed, proved memoisable by [`memo_key`] (pure
/// decision verb, `use_cache` in force), and answered successfully.  A
/// `stats`, admin, batch, or `no_cache` line can therefore never be in
/// here.  The request `id` is part of the line bytes, so the stored
/// response echoes the right id by construction; the decision a response
/// carries is a pure function of the line, so replaying the first stored
/// response verbatim is exactly what the wire contract promises (only its
/// instrumentation fields describe an earlier run; see the module docs).
/// Error responses are never stored, and the
/// `clear_cache` admin verb clears this memo along with the others.
#[derive(Default)]
pub struct LineMemo {
    store: Store<(&'static str, String)>,
}

impl LineMemo {
    /// A fresh, empty memo (tests; the server uses [`LineMemo::global`]).
    pub fn new() -> LineMemo {
        LineMemo::default()
    }

    /// The process-wide instance, mirroring [`ResponseMemo::global`].
    pub fn global() -> &'static LineMemo {
        static GLOBAL: OnceLock<LineMemo> = OnceLock::new();
        GLOBAL.get_or_init(LineMemo::new)
    }

    /// Recall the stored response line for a request line, refreshing its
    /// LRU recency.  Returns the verb too, so the caller can record the
    /// completion under the right name without parsing anything.
    pub fn lookup(&self, line: &str) -> Option<(&'static str, String)> {
        self.store.lookup(line)
    }

    /// Store the rendered response line of a successfully executed,
    /// memoisable request line.  This runs on the reader thread for every
    /// response-memo hit, not only after a cold decision, which is why the
    /// shared store evicts in constant time.  A line already present keeps
    /// its first response (see [`ResponseMemo::store`]).
    pub fn store(&self, line: String, verb: &'static str, response: String) {
        self.store.store(line, || (verb, response));
    }

    /// Forget everything (the `clear_cache` admin verb).
    pub fn clear(&self) {
        self.store.clear();
    }

    /// Number of memoised response lines (the `stats` verb's gauge).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use rng::rngs::StdRng;
    use rng::{Rng, SeedableRng};
    use std::fmt::Debug;

    fn command_of(text: &str) -> Command {
        let value = crate::json::parse(text).unwrap();
        let Request { command, .. } = parse_request(&value, true).unwrap();
        command
    }

    #[test]
    fn decision_verbs_are_keyed_and_admin_verbs_are_not() {
        let containment = command_of(
            r#"{"op":"containment","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X)."}"#,
        );
        assert!(memo_key(&containment).is_some());
        // The new decision verbs are memoisable like the original four.
        for text in [
            r#"{"op":"minimize","query":"q(X) :- e(X, X)."}"#,
            r#"{"op":"rewrite","program":"p(X) :- e(X, X).","goal":"p"}"#,
        ] {
            assert!(memo_key(&command_of(text)).is_some(), "{text}");
        }
        // The observability and admin surfaces must never be: a memoised
        // `trace` would report a run that never happened, and a memoised
        // `stats`/`metrics_text`/admin response would freeze a live gauge.
        for text in [
            r#"{"op":"stats"}"#,
            r#"{"op":"clear_cache"}"#,
            r#"{"op":"cache_limits"}"#,
            r#"{"op":"save_cache","path":"x.nrdc"}"#,
            r#"{"op":"load_cache"}"#,
            r#"{"op":"batch","requests":[{"op":"stats"}]}"#,
            r#"{"op":"trace","program":"p(X) :- e(X, X).","goal":"p","query":"q(X) :- e(X, X)."}"#,
            r#"{"op":"metrics_text"}"#,
        ] {
            assert_eq!(memo_key(&command_of(text)), None, "{text}");
        }
    }

    #[test]
    fn no_cache_requests_bypass_the_memo() {
        let cached =
            command_of(r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#);
        let uncached = command_of(
            r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2,"options":{"no_cache":true}}"#,
        );
        assert!(memo_key(&cached).is_some());
        assert_eq!(memo_key(&uncached), None);
    }

    #[test]
    fn keys_separate_every_field_that_reaches_the_engine() {
        let base = r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#;
        let variants = [
            r#"{"op":"bounded","program":"p(X) :- e(X, Y).","goal":"p","max_depth":2}"#,
            r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":3}"#,
            r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2,"options":{"max_pairs":7}}"#,
            r#"{"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2,"options":{"strategy":"magic"}}"#,
        ];
        let base_key = memo_key(&command_of(base)).unwrap();
        for variant in variants {
            assert_ne!(
                memo_key(&command_of(variant)).unwrap(),
                base_key,
                "{variant}"
            );
        }
        // The id is correlation, not content: it must NOT split the key.
        let with_id =
            r#"{"id":7,"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#;
        assert_eq!(memo_key(&command_of(with_id)).unwrap(), base_key);
    }

    #[test]
    fn line_memo_recalls_verbatim_and_evicts_lru() {
        let memo = LineMemo::new();
        memo.store(
            r#"{"id":1,"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#
                .into(),
            "bounded",
            r#"{"id": 1, "ok": true}"#.into(),
        );
        // Only the exact bytes hit — a different id is a different line.
        assert_eq!(
            memo.lookup(
                r#"{"id":1,"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#
            ),
            Some(("bounded", r#"{"id": 1, "ok": true}"#.to_string()))
        );
        assert_eq!(
            memo.lookup(
                r#"{"id":2,"op":"bounded","program":"p(X) :- e(X, X).","goal":"p","max_depth":2}"#
            ),
            None
        );
        memo.clear();
        assert!(memo.is_empty());

        let memo = LineMemo::new();
        for i in 0..MEMO_CAP {
            memo.store(format!("line{i}"), "bounded", format!("resp{i}"));
        }
        assert!(memo.lookup("line0").is_some());
        memo.store("overflow".into(), "bounded", "resp".into());
        assert_eq!(memo.len(), MEMO_CAP);
        assert!(memo.lookup("line0").is_some(), "recently used must survive");
        assert!(
            memo.lookup("line1").is_none(),
            "the least recently used entry is the one evicted"
        );
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let memo = ResponseMemo::new();
        for i in 0..MEMO_CAP {
            memo.store(format!("k{i}"), &Value::num(i as f64));
        }
        assert_eq!(memo.len(), MEMO_CAP);
        // Touch k0 so it is the most recently used, then overflow.
        assert!(memo.lookup("k0").is_some());
        memo.store("overflow".into(), &Value::Null);
        assert_eq!(memo.len(), MEMO_CAP);
        assert!(memo.lookup("k0").is_some(), "recently used must survive");
        assert!(
            memo.lookup("k1").is_none(),
            "the least recently used entry is the one evicted"
        );
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn a_repeated_store_keeps_the_first_payload() {
        let memo = ResponseMemo::new();
        memo.store("k".into(), &Value::num(1.0));
        memo.store("k".into(), &Value::num(2.0));
        assert_eq!(memo.lookup("k"), Some(Value::num(1.0)));
        assert_eq!(memo.len(), 1);

        let memo = LineMemo::new();
        memo.store("line".into(), "bounded", "A".into());
        memo.store("line".into(), "bounded", "B".into());
        assert_eq!(memo.lookup("line"), Some(("bounded", "A".to_string())));
        assert_eq!(memo.len(), 1);
    }

    /// The eviction both memos ran before they shared one store: last-use
    /// ticks in a hash map, and a minimum scan over every entry to find
    /// the victim.  It is the reference the differential test below holds
    /// the store to.  A repeated store refreshes recency and keeps the
    /// first payload, as the store does.
    struct MinScanReference<V> {
        entries: HashMap<String, (V, u64)>,
        tick: u64,
    }

    impl<V: Clone> MinScanReference<V> {
        fn new() -> Self {
            MinScanReference {
                entries: HashMap::new(),
                tick: 0,
            }
        }

        fn lookup(&mut self, key: &str) -> Option<V> {
            self.tick += 1;
            let tick = self.tick;
            self.entries.get_mut(key).map(|(value, last_used)| {
                *last_used = tick;
                value.clone()
            })
        }

        fn store(&mut self, key: String, value: V) {
            self.tick += 1;
            let tick = self.tick;
            if self.entries.len() >= MEMO_CAP && !self.entries.contains_key(&key) {
                if let Some(oldest) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(k, _)| k.clone())
                {
                    self.entries.remove(&oldest);
                }
            }
            self.entries
                .entry(key)
                .and_modify(|(_, last_used)| *last_used = tick)
                .or_insert((value, tick));
        }
    }

    /// Counts of what one differential run exercised.
    #[derive(Default)]
    struct Exercised {
        hits: usize,
        misses: usize,
        evictions: usize,
        clears: usize,
    }

    /// Drive a memo (through its four operations) and the reference with
    /// one seeded stream of interleaved stores, lookups and clears over a
    /// key space twice the capacity, and require the same answer from both
    /// after every operation.
    fn differential<V: Clone + PartialEq + Debug>(
        seed: u64,
        lookup: impl Fn(&str) -> Option<V>,
        store: impl Fn(String, V),
        clear: impl Fn(),
        len: impl Fn() -> usize,
        payload: impl Fn(usize) -> V,
    ) -> Exercised {
        const OPS: usize = 30_000;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference = MinScanReference::new();
        let mut seen = Exercised::default();
        for op in 0..OPS {
            let key = format!("key{}", rng.random_range(0..2 * MEMO_CAP));
            match rng.random_range(0..10_000u32) {
                0 => {
                    clear();
                    reference = MinScanReference::new();
                    seen.clears += 1;
                }
                1..=4_999 => {
                    let before = reference.entries.len();
                    let present = reference.entries.contains_key(&key);
                    store(key.clone(), payload(op));
                    reference.store(key, payload(op));
                    if before == MEMO_CAP && !present {
                        seen.evictions += 1;
                    }
                }
                _ => {
                    let expected = reference.lookup(&key);
                    assert_eq!(lookup(&key), expected, "op {op}: lookup of {key}");
                    match expected {
                        Some(_) => seen.hits += 1,
                        None => seen.misses += 1,
                    }
                }
            }
            assert_eq!(len(), reference.entries.len(), "op {op}");
            assert!(len() <= MEMO_CAP, "op {op}");
        }
        seen
    }

    fn assert_all_exercised(seen: &Exercised) {
        assert!(seen.hits > 1_000, "hits {}", seen.hits);
        assert!(seen.misses > 1_000, "misses {}", seen.misses);
        assert!(seen.evictions > 100, "evictions {}", seen.evictions);
        assert!(seen.clears > 0, "no clear was drawn");
    }

    #[test]
    fn response_memo_matches_the_min_scan_reference() {
        let memo = ResponseMemo::new();
        let seen = differential(
            0x6d65_6d6f,
            |key| memo.lookup(key),
            |key, value| memo.store(key, &value),
            || memo.clear(),
            || memo.len(),
            |op| Value::num(op as f64),
        );
        assert_all_exercised(&seen);
    }

    #[test]
    fn line_memo_matches_the_min_scan_reference() {
        const VERBS: [&str; 3] = ["bounded", "containment", "equivalence"];
        let memo = LineMemo::new();
        let seen = differential(
            0x6c69_6e65,
            |line| memo.lookup(line),
            |line, (verb, response)| memo.store(line, verb, response),
            || memo.clear(),
            || memo.len(),
            |op| (VERBS[op % VERBS.len()], format!("resp{op}")),
        );
        assert_all_exercised(&seen);
    }
}
