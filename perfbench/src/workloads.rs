//! The four workloads, their end-to-end metrics, and the traced run that
//! gives the per-layer metrics.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

use cq::Ucq;
use datalog::atom::Pred;
use datalog::parser::parse_program;
use server::json::{self, Value};
use workload::{Pacing, WorkloadSpec};

use crate::check::{self, counterexample_valid, delta, num, require};
use crate::procs::Proc;
use crate::shapes::{self, ColdRequest, ColdStream, Expected, Family};
use crate::stats::{self, Tail};
use crate::trace::{self, Answered, Memos, Tracer};
use crate::wire::{self, Conn, Scheduled, Template};
use crate::{Args, Metric, Report};

/// Fresh processes started per run to time set-up; the last one is measured.
const SETUPS: usize = 7;
/// Worker threads of a directly addressed server.
const WORKERS: &str = "2";
/// Client connections of the open-loop workload.
const ZIPF_CONNECTIONS: usize = 2;
/// Outstanding requests on the warm workloads' one connection.  Enough
/// that the server always has a request to work on, so the run measures
/// its work per request rather than thread wake-ups; one connection, as a
/// second one put more client, server and router threads on the host's 2
/// cores than it has, and the numbers followed the scheduler (README.md).
const WARM_WINDOW: usize = 8;
/// Length of the generated warm stream (its distinct commands are
/// pre-warmed; the stream is cycled with fresh ids).
const WARM_STREAM: usize = 4096;
/// Catalog of the warm stream: 16 program families, zipf 1.0.
const WARM_PROGRAMS: usize = 16;
/// Offered rate of `zipf_mixed`, requests per second.
const ZIPF_RATE: f64 = 50.0;
/// Catalog of `zipf_mixed`: large enough that about a quarter of a
/// twenty-second stream is first occurrences.
const ZIPF_PROGRAMS: usize = 60;
/// Requests per `zipf_mixed` burst.
const ZIPF_BURST: usize = 4;
/// Gap between requests inside a burst, in microseconds.
const ZIPF_GAP_US: u64 = 250;
/// Length of the blocks whose median completion rate is a warm
/// workload's throughput, in seconds.
const RATE_BLOCK_S: f64 = 1.0;
/// Requests replayed in-process by the traced run of a warm workload.
const TRACED_WARM: usize = 2000;
/// Requests of a round-trip coverage pass.
const COVERAGE_PASS: usize = 400;

/// Run the workload named in `args`.
pub fn run(args: &Args) -> Result<Report, String> {
    let bins = Bins {
        serve: args.bin_dir.join("nonrec-serve"),
        route: args.bin_dir.join("nonrec-route"),
    };
    for bin in [&bins.serve, &bins.route] {
        require(bin.is_file(), || format!("{} is not built", bin.display()))?;
    }
    let mut tracer = args.trace.then(Tracer::default);
    let mut report = match args.workload.as_str() {
        "cold_decide" => cold_decide(args, &bins, tracer.as_mut()),
        "warm_unique" => warm(args, &bins, false, tracer.as_mut()),
        "routed_warm" => warm(args, &bins, true, tracer.as_mut()),
        "zipf_mixed" => zipf_mixed(args, &bins, tracer.as_mut()),
        other => Err(format!("unknown workload {other}")),
    }?;
    if let Some(tracer) = &tracer {
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_to(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

struct Bins {
    serve: std::path::PathBuf,
    route: std::path::PathBuf,
}

fn spawn_server(bins: &Bins, workers: &str) -> Result<Proc, String> {
    Proc::spawn(&bins.serve, &["--workers", workers])
}

/// Start a fresh server [`SETUPS`] times, each time running `warm` on it;
/// keep the last.  Returns it, what `warm` produced, and the median set-up
/// time (spawn to ready plus warm-up).
fn setup<T>(
    mut start: impl FnMut() -> Result<Vec<Proc>, String>,
    mut warm: impl FnMut(&[Proc]) -> Result<T, String>,
) -> Result<(Vec<Proc>, T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        let began = Instant::now();
        let procs = start()?;
        let warmed = warm(&procs)?;
        times.push(began.elapsed().as_secs_f64());
        kept = Some((procs, warmed));
    }
    let (procs, warmed) = kept.expect("SETUPS > 0");
    Ok((procs, warmed, stats::median(&times)))
}

/// One fresh-named decision, so the first measured request does not pay
/// for first-touch costs of the process.
fn warm_up_decision(addr: &str, seed: u64, setup_index: usize) -> Result<(), String> {
    let tag = format!("w{seed:x}s{setup_index}");
    let req = shapes::request(Family::BuysEquiv, &tag, "warm-up");
    let (response, _) = Conn::open(addr)?.call(&req.line)?;
    require(
        wire::split_id(&response).is_some_and(|(_, t)| wire::tail_ok(t)),
        || format!("warm-up decision failed: {response}"),
    )
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics shared by every workload.
struct EndToEnd {
    throughput_rps: f64,
    latencies_us: Vec<f64>,
    /// When each latency sample was taken, in seconds into the window.
    sample_times_s: Vec<f64>,
    window_s: f64,
    attempted: u64,
    failed: u64,
    setup_s: f64,
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn tail(&self) -> Tail {
        stats::block_tail(&self.sample_times_s, &self.latencies_us, self.window_s)
    }

    fn p50(&self) -> f64 {
        stats::median(&self.latencies_us)
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn report(self, notes: Vec<String>) -> Report {
        let tail = self.tail();
        let mut notes = notes;
        notes.push(format!(
            "latency_tail_us is p{} with {} of {} samples beyond it; error_rate {}",
            tail.percentile,
            tail.beyond,
            self.latencies_us.len(),
            self.error_rate()
        ));
        Report {
            attempted: self.attempted,
            failed: self.failed,
            metrics: vec![
                m("throughput_rps", self.throughput_rps, "1/s"),
                m("latency_p50_us", self.p50(), "us"),
                m("latency_tail_us", tail.value, "us"),
                m("success_rate", 1.0 - self.error_rate(), "ratio"),
                m("setup_s", self.setup_s, "s"),
                m("peak_rss_mb", self.peak_rss_mb, "MiB"),
            ],
            notes,
        }
    }
}

/// Per-layer values gathered by a traced run; every per-layer metric is
/// reported, 0 where the layer did no work in this workload.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
}

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datalog.parser.parse_us", "us"),
    ("datalog.eval.probes", "count"),
    ("core.cache.key_us", "us"),
    ("core.ptrees_automaton.build_us", "us"),
    ("core.ptrees_automaton.states", "count"),
    ("core.cq_automaton.build_us", "us"),
    ("core.cq_automaton.states", "count"),
    ("core.unfold.unfold_us", "us"),
    ("core.unfold.disjuncts", "count"),
    ("core.cq_in_datalog.check_us", "us"),
    ("core.containment.decide_us.linear_tc", "us"),
    ("core.containment.decide_us.tc_equiv", "us"),
    ("core.containment.decide_us.buys_equiv", "us"),
    ("core.containment.decide_us.buys_bounded", "us"),
    ("core.containment.decide_us.nonlinear_tc", "us"),
    ("core.states_visited_ratio", "ratio"),
    ("core.cache.decision_hit_ratio", "ratio"),
    ("core.cache.evictions", "count"),
    ("automata.tree.union_us", "us"),
    ("automata.tree.containment_us", "us"),
    ("automata.tree.pairs", "count"),
    ("automata.word.containment_us", "us"),
    ("automata.word.pairs", "count"),
    ("server.memo.line_lookup_us", "us"),
    ("server.json.parse_us", "us"),
    ("server.protocol.parse_request_us", "us"),
    ("server.memo.key_us", "us"),
    ("server.memo.lookup_us", "us"),
    ("server.json.render_us", "us"),
    ("server.memo.line_store_us", "us"),
    ("server.memo.store_us", "us"),
    ("server.memo.line_hit_ratio", "ratio"),
    ("server.memo.instrumentation_divergent", "count"),
    ("server.memo.response_hit_ratio", "ratio"),
    ("server.engine.execute_us", "us"),
    ("server.pool.busy_rejected", "count"),
    ("server.pool.deadline_expired", "count"),
    ("server.transport_us", "us"),
    ("router.route_key_us", "us"),
    ("router.added_p50_us", "us"),
    ("router.forwarded_skew", "ratio"),
    ("router.requeued", "count"),
    ("router.busy", "count"),
    ("bench.generator_late_p99_us", "us"),
    ("bench.tail_percentile", "percent"),
    ("bench.tail_samples", "count"),
    ("error_rate", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Whether a larger value of the per-layer metric `name` is better.
pub fn higher_is_better(name: &str) -> bool {
    matches!(
        name,
        "core.states_visited_ratio"
            | "core.cache.decision_hit_ratio"
            | "server.memo.response_hit_ratio"
            | "trace.coverage"
            | "bench.tail_samples"
    )
}

/// Span names whose median per-request self time is a per-layer metric.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("datalog.parser.parse_us", "datalog.parser.parse"),
    ("core.cache.key_us", "core.cache.key"),
    (
        "core.ptrees_automaton.build_us",
        "core.ptrees_automaton.build",
    ),
    ("core.cq_automaton.build_us", "core.cq_automaton.build"),
    ("core.unfold.unfold_us", "core.unfold.unfold"),
    ("core.cq_in_datalog.check_us", "core.cq_in_datalog.check"),
    (
        "core.containment.decide_us.linear_tc",
        "core.containment.decide.linear_tc",
    ),
    (
        "core.containment.decide_us.tc_equiv",
        "core.containment.decide.tc_equiv",
    ),
    (
        "core.containment.decide_us.buys_equiv",
        "core.containment.decide.buys_equiv",
    ),
    (
        "core.containment.decide_us.buys_bounded",
        "core.containment.decide.buys_bounded",
    ),
    (
        "core.containment.decide_us.nonlinear_tc",
        "core.containment.decide.nonlinear_tc",
    ),
    ("automata.tree.union_us", "automata.tree.union"),
    ("automata.tree.containment_us", "automata.tree.containment"),
    ("server.memo.line_lookup_us", "server.memo.line_lookup"),
    ("server.json.parse_us", "server.json.parse"),
    (
        "server.protocol.parse_request_us",
        "server.protocol.parse_request",
    ),
    ("server.memo.key_us", "server.memo.key"),
    ("server.memo.lookup_us", "server.memo.lookup"),
    ("server.json.render_us", "server.json.render"),
    ("server.memo.line_store_us", "server.memo.line_store"),
    ("server.memo.store_us", "server.memo.store"),
    ("server.engine.execute_us", "server.engine.execute"),
    ("router.route_key_us", "router.route_key"),
];

/// Counters whose median per request is a per-layer metric.
const COUNT_METRICS: &[&str] = &[
    "core.ptrees_automaton.states",
    "core.cq_automaton.states",
    "core.unfold.disjuncts",
    "automata.tree.pairs",
    "automata.word.pairs",
];

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Fold the tracer's spans and counters in.
    fn absorb(&mut self, t: &Tracer, answered: &[Answered]) {
        for (metric, span) in SPAN_METRICS {
            self.set(metric, stats::median(&t.self_us_per_request(span)));
        }
        for name in COUNT_METRICS {
            self.set(name, stats::median(&t.counts_per_request(name)));
        }
        self.set(
            "automata.word.containment_us",
            stats::median(&t.counts_per_request("automata.word.containment_us")),
        );
        let checks = t.count_total("datalog.eval.checks");
        if checks > 0.0 {
            self.set(
                "datalog.eval.probes",
                t.count_total("datalog.eval.probes") / checks,
            );
        }
        let states = t.count_total("core.cq_automaton.states");
        if states > 0.0 {
            self.set(
                "core.states_visited_ratio",
                t.count_total("core.explored_pairs") / states,
            );
        }
        if !answered.is_empty() {
            let share = |kind: Answered| {
                answered.iter().filter(|a| **a == kind).count() as f64 / answered.len() as f64
            };
            self.set("server.memo.line_hit_ratio", share(Answered::LineMemo));
            self.set(
                "server.memo.response_hit_ratio",
                share(Answered::ResponseMemo),
            );
        }
    }

    /// The decision-cache and worker-pool counters, from the servers'
    /// `stats` deltas over the measured window.
    fn absorb_stats(&mut self, before: &[Value], after: &[Value]) {
        let hits = total_delta(before, after, &["cache", "hits"]);
        let lookups = hits + total_delta(before, after, &["cache", "misses"]);
        self.set(
            "core.cache.decision_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        self.set(
            "core.cache.evictions",
            total_delta(before, after, &["cache", "evictions"]),
        );
        self.set(
            "server.pool.busy_rejected",
            total_delta(before, after, &["server", "busy_rejected"]),
        );
        self.set(
            "server.pool.deadline_expired",
            total_delta(before, after, &["server", "deadline_expired"]),
        );
    }

    fn into_report(mut self, e2e: &EndToEnd, notes: Vec<String>) -> Report {
        let tail = e2e.tail();
        self.set("bench.tail_percentile", tail.percentile);
        self.set("bench.tail_samples", tail.beyond as f64);
        self.set("error_rate", e2e.error_rate());
        Report {
            attempted: e2e.attempted,
            failed: e2e.failed,
            metrics: PER_LAYER
                .iter()
                .map(|(name, unit)| m(name, self.values.get(name).copied().unwrap_or(0.0), unit))
                .collect(),
            notes,
        }
    }
}

// ---------------------------------------------------------------- cold_decide

fn check_cold_answer(req: &ColdRequest, response: &str) -> Result<(), String> {
    let value = json::parse(response).map_err(|e| format!("bad response: {e}"))?;
    let result = value
        .get("result")
        .ok_or_else(|| format!("error response: {response}"))?;
    let program = parse_program(&req.program).map_err(|e| e.to_string())?;
    let goal = Pred::new(req.goal);
    let wrong = || format!("{:?} answered {response}", req.family);
    match &req.expected {
        Expected::NotContained => {
            require(
                result.get("contained").and_then(Value::as_bool) == Some(false),
                wrong,
            )?;
            let theta = Ucq::parse_checked(&req.other).map_err(|e| e.to_string())?;
            let cex = result.get("counterexample").ok_or_else(wrong)?;
            counterexample_valid(&program, goal, &theta, cex)
        }
        Expected::Verdict(verdict) => {
            require(
                result.get("verdict").and_then(Value::as_str) == Some(verdict),
                wrong,
            )?;
            if let Some(cex) = result.get("counterexample") {
                let candidate = parse_program(&req.other).map_err(|e| e.to_string())?;
                let theta = nonrec_equivalence::unfold_nonrecursive(&candidate, goal, usize::MAX)
                    .map_err(|e| e.to_string())?;
                counterexample_valid(&program, goal, &theta, cex)?;
            }
            Ok(())
        }
        Expected::Bound(bound) => require(
            result.get("bounded").and_then(Value::as_bool) == Some(true)
                && result.get("bound").and_then(Value::as_u64) == Some(*bound as u64),
            wrong,
        ),
    }
}

fn cold_decide(args: &Args, bins: &Bins, tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let mut setup_index = 0;
    let (procs, (), setup_s) = setup(
        || Ok(vec![spawn_server(bins, WORKERS)?]),
        |procs| {
            setup_index += 1;
            warm_up_decision(&procs[0].addr, args.seed, setup_index)
        },
    )?;
    let addr = procs[0].addr.clone();
    let before = wire::fetch_stats(&addr)?;
    let mut conn = Conn::open(&addr)?;
    let mut stream = ColdStream::new(args.seed, 0);
    let mut done: Vec<(ColdRequest, String, f64)> = Vec::new();
    let start = Instant::now();
    // Whole rounds only, so every seed measures the same mix.
    while start.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..shapes::ROUND.len() {
            let req = stream.next_request();
            let (response, micros) = conn.call(&req.line)?;
            done.push((req, response, micros));
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let after = wire::fetch_stats(&addr)?;
    let peak_rss_mb = procs[0].peak_rss_mb();

    let mut failed = 0;
    let mut answered: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (req, response, _) in &done {
        if !wire::split_id(response).is_some_and(|(_, t)| wire::tail_ok(t)) {
            failed += 1;
            continue;
        }
        check_cold_answer(req, response)?;
        *answered.entry(req.verb).or_default() += 1;
    }
    let n = done.len() as f64;
    // Ran as built: nothing was answered from any cache or memo.
    require(
        delta(&before, &after, &["server", "memo_hits"]) == 0.0,
        || "cold_decide requests were answered from the memo".to_string(),
    )?;
    require(delta(&before, &after, &["cache", "hits"]) == 0.0, || {
        "cold_decide requests hit the decision cache".to_string()
    })?;
    require(delta(&before, &after, &["cache", "misses"]) >= n, || {
        "fewer cache misses than cold requests".to_string()
    })?;
    check::verb_counts_match(&before, &after, &answered)?;

    // Closed loop: a round's requests run back to back, so its rate is its
    // request count over the sum of its round trips.
    let round_rates: Vec<f64> = done
        .chunks_exact(shapes::ROUND.len())
        .map(|round| round.len() as f64 / (round.iter().map(|(_, _, us)| us).sum::<f64>() / 1e6))
        .collect();
    let sample_times_s = done
        .iter()
        .scan(0.0, |elapsed, (_, _, us)| {
            *elapsed += us / 1e6;
            Some(*elapsed)
        })
        .collect();
    let e2e = EndToEnd {
        throughput_rps: stats::median(&round_rates),
        latencies_us: done.iter().map(|(_, _, us)| *us).collect(),
        sample_times_s,
        window_s: elapsed_s,
        attempted: done.len() as u64,
        failed,
        setup_s,
        peak_rss_mb,
    };
    let notes = vec![format!(
        "cold_decide: {} requests in {:.2} s, {} rounds",
        done.len(),
        elapsed_s,
        done.len() / shapes::ROUND.len()
    )];
    let Some(t) = tracer else {
        return Ok(e2e.report(notes));
    };
    // Traced run: replay the last two rounds in-process, decomposed (the
    // first requests of a fresh process also pay first-touch costs).
    let replayed = &done[done.len().saturating_sub(2 * shapes::ROUND.len())..];
    let memos = Memos::default();
    let mut answered = Vec::new();
    for (i, (req, _, _)) in replayed.iter().enumerate() {
        t.begin_request(i as u64);
        let (how, command) = trace::server_path(t, &memos, &req.line);
        answered.push(how);
        if let Some(command) = command {
            trace::decompose(t, &command, Some(req.family.name()));
        }
    }
    let requests: BTreeSet<u64> = (0..replayed.len() as u64).collect();
    let wire_us: f64 = replayed.iter().map(|(_, _, us)| us).sum();
    let mut layers = Layers::default();
    layers.absorb_stats(&[before], &[after]);
    layers.absorb(t, &answered);
    layers.set("trace.coverage", t.top_level_us(&requests) / wire_us);
    Ok(layers.into_report(&e2e, notes))
}

// -------------------------------------------------------- warm_unique / routed_warm

/// A seeded zipf stream from `workload::generate`, split into distinct
/// request templates and the order they occur in.
fn zipf_stream(seed: u64) -> (Vec<String>, Vec<&'static str>, Vec<usize>) {
    let spec = WorkloadSpec {
        requests: WARM_STREAM,
        programs: WARM_PROGRAMS,
        ..WorkloadSpec::default()
    };
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut tails = Vec::new();
    let mut verbs = Vec::new();
    let mut order = Vec::with_capacity(WARM_STREAM);
    for req in workload::generate(&spec, seed) {
        let (_, tail) = wire::split_id(&req.line).expect("generated lines lead with their id");
        let next = tails.len();
        let i = *index.entry(tail.to_string()).or_insert(next);
        if i == next {
            tails.push(tail.to_string());
            verbs.push(verb_of(tail));
        }
        order.push(i);
    }
    (tails, verbs, order)
}

fn verb_of(request_tail: &str) -> &'static str {
    let op = request_tail
        .split("\"op\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("");
    check::DECISION_VERBS
        .iter()
        .copied()
        .find(|v| *v == op)
        .unwrap_or("containment")
}

/// Requests in flight at once while pre-warming (below the server's
/// default queue of 64, so nothing is refused).
const PREWARM_CHUNK: usize = 32;

/// Send every distinct command once to each server and keep the answers as
/// the exact bytes every later repeat must get.  A router round-robins
/// program-less requests, so each shard is pre-warmed directly and either
/// shard's answer is accepted.
fn prewarm(
    servers: &[Proc],
    tails: &[String],
    verbs: &[&'static str],
) -> Result<Vec<Template>, String> {
    let mut templates: Vec<Template> = tails
        .iter()
        .zip(verbs)
        .map(|(tail, &verb)| Template {
            request_tail: tail.clone(),
            response_tails: Vec::new(),
            verb,
        })
        .collect();
    // The servers are independent, so pre-warm them concurrently.
    let answers: Vec<Result<Vec<String>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = servers
            .iter()
            .map(|server| {
                let templates = &templates;
                scope.spawn(move || -> Result<Vec<String>, String> {
                    let mut conn = Conn::open(&server.addr)?;
                    let mut answers = Vec::with_capacity(templates.len());
                    for chunk in templates.chunks(PREWARM_CHUNK) {
                        let lines: Vec<String> = chunk
                            .iter()
                            .enumerate()
                            .map(|(i, t)| format!("{{\"id\":\"p{i}\"{}", t.request_tail))
                            .collect();
                        answers.extend(conn.call_all("p", &lines)?);
                    }
                    Ok(answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pre-warm thread never panics"))
            .collect()
    });
    for server_answers in answers {
        for (template, response) in templates.iter_mut().zip(server_answers?) {
            let (_, answer) = wire::split_id(&response).ok_or("pre-warm answer without id")?;
            require(wire::tail_ok(answer), || {
                format!("pre-warm failed: {response}")
            })?;
            if !template.response_tails.iter().any(|a| a == answer) {
                template.response_tails.push(answer.to_string());
            }
        }
    }
    Ok(templates)
}

/// Start the serving tier: one server, or a router over two single-worker
/// shards.  The address clients use is the last process's.
fn start_tier(bins: &Bins, routed: bool) -> Result<Vec<Proc>, String> {
    if !routed {
        return Ok(vec![spawn_server(bins, WORKERS)?]);
    }
    let shards = vec![spawn_server(bins, "1")?, spawn_server(bins, "1")?];
    let mut args: Vec<&str> = Vec::new();
    for shard in &shards {
        args.push("--backend");
        args.push(&shard.addr);
    }
    let router = Proc::spawn(&bins.route, &args)?;
    let mut procs = shards;
    procs.push(router);
    Ok(procs)
}

struct WarmRun {
    latencies_us: Vec<f64>,
    received_s: Vec<f64>,
    completions_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    per_verb: BTreeMap<&'static str, u64>,
}

/// Drive `addr` from one connection with [`WARM_WINDOW`] requests in
/// flight for `seconds` or `max_requests`, whichever ends first; ids are
/// `"{tag}{seq}"`.
fn drive_warm(
    addr: &str,
    tag: &str,
    templates: &[Template],
    order: &[usize],
    seconds: f64,
    max_requests: usize,
) -> Result<WarmRun, String> {
    let start = Instant::now();
    let stop = start + std::time::Duration::from_secs_f64(seconds);
    let outcome = wire::pipelined(addr, tag, templates, order, WARM_WINDOW, stop, max_requests)?;
    require(outcome.wrong == 0, || {
        format!(
            "{} warm answers differ from the pre-warmed bytes",
            outcome.wrong
        )
    })?;
    require(outcome.latencies_us.len() as u64 == outcome.sent, || {
        "responses missing".to_string()
    })?;
    let since_start = |times: &[Instant]| -> Vec<f64> {
        times
            .iter()
            .map(|t| t.duration_since(start).as_secs_f64())
            .collect()
    };
    Ok(WarmRun {
        received_s: since_start(&outcome.received),
        completions_s: since_start(&outcome.completions),
        latencies_us: outcome.latencies_us,
        attempted: outcome.sent,
        failed: outcome.failed,
        per_verb: outcome.per_verb,
    })
}

/// Requests sent before a warm workload's window opens: three times the
/// line memo's capacity, so that each routed shard, which gets about half
/// of them, fills its own too.  Every fresh-id request stores its line in
/// that memo, and the first [`server::memo::MEMO_CAP`] stores do not yet
/// evict, so until the memo is full the server runs faster than it will
/// for the rest of the run.
const FILL_REQUESTS: usize = 3 * server::memo::MEMO_CAP;

/// Bring the line memo of the tier at `addr` to its steady state (full and
/// evicting) with [`FILL_REQUESTS`] requests of the stream, untimed.
fn fill_line_memo(addr: &str, templates: &[Template], order: &[usize]) -> Result<(), String> {
    let fill = drive_warm(addr, "f-", templates, order, 60.0, FILL_REQUESTS)?;
    require(fill.failed == 0, || {
        format!(
            "{} requests failed while filling the line memo",
            fill.failed
        )
    })
}

/// The router's counters between two of its `stats` payloads: how unevenly
/// it spread requests over the shards, and how many it requeued or was
/// refused.
fn set_router_layers(layers: &mut Layers, before: &Value, after: &Value) {
    let forwarded = per_shard(before, after, "forwarded");
    let mean = forwarded.iter().sum::<f64>() / forwarded.len().max(1) as f64;
    let max = forwarded.iter().copied().fold(0.0, f64::max);
    layers.set(
        "router.forwarded_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    let sum = |key: &str| -> f64 { per_shard(before, after, key).iter().sum() };
    layers.set("router.requeued", sum("requeued"));
    layers.set("router.busy", sum("busy"));
}

/// Drive a fresh tier (routed or direct) with the warm stream for
/// `seconds`, set up as the measured run is.  Returns its median client
/// latency and, for a routed tier, the router's `stats` before and after.
fn comparison_run(
    bins: &Bins,
    tails: &[String],
    verbs: &[&'static str],
    order: &[usize],
    routed: bool,
    seconds: f64,
) -> Result<(f64, Option<(Value, Value)>), String> {
    let procs = start_tier(bins, routed)?;
    let templates = prewarm(&procs[..procs.len() - usize::from(routed)], tails, verbs)?;
    let addr = &procs[procs.len() - 1].addr;
    fill_line_memo(addr, &templates, order)?;
    let router_before = if routed {
        Some(wire::fetch_stats(addr)?)
    } else {
        None
    };
    let run = drive_warm(addr, "w-", &templates, order, seconds, usize::MAX)?;
    let router = match router_before {
        Some(before) => Some((before, wire::fetch_stats(addr)?)),
        None => None,
    };
    Ok((stats::median(&run.latencies_us), router))
}

/// Each server's `stats` payload.
fn server_stats(procs: &[Proc]) -> Result<Vec<Value>, String> {
    procs.iter().map(|p| wire::fetch_stats(&p.addr)).collect()
}

fn total_delta(before: &[Value], after: &[Value], path: &[&str]) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| delta(b, a, path))
        .sum()
}

/// Count-weighted mean of the servers' per-verb p50 (histogram bucket upper
/// bounds) over the decision verbs.
fn server_p50_us(stats: &[Value]) -> f64 {
    let (mut weighted, mut count) = (0.0, 0.0);
    for s in stats {
        for verb in check::DECISION_VERBS {
            let n = num(s, &["verbs", verb, "count"]);
            weighted += n * num(s, &["verbs", verb, "p50_micros"]);
            count += n;
        }
    }
    if count > 0.0 {
        weighted / count
    } else {
        0.0
    }
}

/// A router's per-shard counter deltas.
fn per_shard(before: &Value, after: &Value, key: &str) -> Vec<f64> {
    let shards = |v: &Value| {
        v.get("shards")
            .and_then(Value::as_arr)
            .map(<[Value]>::to_vec)
            .unwrap_or_default()
    };
    shards(before)
        .iter()
        .zip(&shards(after))
        .map(|(b, a)| delta(b, a, &[key]))
        .collect()
}

fn warm(
    args: &Args,
    bins: &Bins,
    routed: bool,
    tracer: Option<&mut Tracer>,
) -> Result<Report, String> {
    let (tails, verbs, order) = zipf_stream(args.seed);
    let (procs, templates, setup_s) = setup(
        || start_tier(bins, routed),
        |procs| prewarm(&procs[..procs.len() - usize::from(routed)], &tails, &verbs),
    )?;
    let servers = &procs[..procs.len() - usize::from(routed)];
    let addr = procs[procs.len() - 1].addr.clone();
    fill_line_memo(&addr, &templates, &order)?;
    let before = server_stats(servers)?;
    let router_before = if routed {
        Some(wire::fetch_stats(&addr)?)
    } else {
        None
    };
    let run = drive_warm(&addr, "w-", &templates, &order, args.seconds, usize::MAX)?;
    let after = server_stats(servers)?;
    let router_after = if routed {
        Some(wire::fetch_stats(&addr)?)
    } else {
        None
    };
    let peak_rss_mb: f64 = procs.iter().map(Proc::peak_rss_mb).sum();

    // Ran as built: every request was a response-memo hit and nothing was
    // decided.  Line-memo hits are impossible by construction (every id is
    // fresh) and would echo a stale id, which `drive_warm` rejects.
    let sent = run.attempted as f64;
    let memo_hits = total_delta(&before, &after, &["server", "memo_hits"]);
    require(memo_hits == sent - run.failed as f64, || {
        format!("{memo_hits} memo hits for {sent} warm requests")
    })?;
    require(
        total_delta(&before, &after, &["cache", "misses"]) == 0.0,
        || "warm requests reached the decision engine".to_string(),
    )?;
    for verb in check::DECISION_VERBS {
        let counted = total_delta(&before, &after, &["verbs", verb, "count"]);
        let expected = run.per_verb.get(verb).copied().unwrap_or(0) as f64;
        require(counted == expected, || {
            format!("stats counted {counted} `{verb}` requests, {expected} were answered")
        })?;
    }
    let mut notes = vec![format!(
        "{}: {} distinct commands, {} requests",
        args.workload,
        templates.len(),
        run.attempted
    )];
    if let (Some(b), Some(a)) = (&router_before, &router_after) {
        let forwarded: f64 = per_shard(b, a, "forwarded").iter().sum();
        require(forwarded == sent, || {
            format!("router forwarded {forwarded} requests, the benchmark sent {sent}")
        })?;
        notes.push(format!("router forwarded {forwarded}"));
    }
    let client_p50 = stats::median(&run.latencies_us);
    let e2e = EndToEnd {
        throughput_rps: stats::median_block_rate(&run.completions_s, RATE_BLOCK_S, args.seconds),
        latencies_us: run.latencies_us,
        sample_times_s: run.received_s,
        window_s: args.seconds,
        attempted: run.attempted,
        failed: run.failed,
        setup_s,
        peak_rss_mb,
    };
    let Some(t) = tracer else {
        return Ok(e2e.report(notes));
    };
    let mut layers = Layers::default();
    layers.absorb_stats(&before, &after);
    layers.set("server.transport_us", client_p50 - server_p50_us(&after));
    if let (Some(b), Some(a)) = (&router_before, &router_after) {
        set_router_layers(&mut layers, b, a);
    }
    // Unloaded round trips over the first requests of the stream, for the
    // coverage denominator (the tier is warm, like the in-process memo).
    let pass: Vec<String> = order
        .iter()
        .take(COVERAGE_PASS)
        .enumerate()
        .map(|(i, &tpl)| format!("{{\"id\":\"rt{i}\"{}", templates[tpl].request_tail))
        .collect();
    let mut conn = Conn::open(&addr)?;
    let mut wire_us = 0.0;
    for line in &pass {
        wire_us += conn.call(line)?.1;
    }
    drop(conn);
    drop(procs);
    // The router's added latency: the same stream through the other tier
    // (straight to one two-worker server when this run was routed, through
    // the router otherwise), same seed.
    let (other_p50, other_router) =
        comparison_run(bins, &tails, &verbs, &order, !routed, args.seconds / 2.0)?;
    let (routed_p50, direct_p50) = if routed {
        (client_p50, other_p50)
    } else {
        (other_p50, client_p50)
    };
    layers.set("router.added_p50_us", routed_p50 - direct_p50);
    if let Some((b, a)) = &other_router {
        set_router_layers(&mut layers, b, a);
    }
    // In-process replay: fill private memos with every distinct command and
    // then the line memo with fresh-id lines (untraced, like the pre-warm
    // and the fill), then replay the stream with fresh ids along the
    // server's path.
    let memos = Memos::default();
    let mut prefill = Tracer::default();
    for (i, tpl) in templates.iter().enumerate() {
        trace::server_path(
            &mut prefill,
            &memos,
            &format!("{{\"id\":\"p{i}\"{}", tpl.request_tail),
        );
    }
    for i in 0..FILL_REQUESTS {
        let template = &templates[order[i % order.len()]];
        trace::server_path(
            &mut prefill,
            &memos,
            &format!("{{\"id\":\"f{i}\"{}", template.request_tail),
        );
    }
    let mut answered = Vec::with_capacity(TRACED_WARM);
    for i in 0..TRACED_WARM {
        let template = &templates[order[i % order.len()]];
        let line = format!("{{\"id\":\"rt{i}\"{}", template.request_tail);
        t.begin_request(i as u64);
        let (how, _) = if routed {
            // The router re-renders the request with its own id, and the
            // shard's answer with the client's.
            let forwarded = trace::router_path(t, &line, i as u64).unwrap_or_else(|| line.clone());
            let answered = trace::server_path(t, &memos, &forwarded);
            t.span("router.json.response", |_| {
                json::parse(&format!("{{\"id\":1{}", template.response_tails[0]))
                    .map(|v| v.render())
                    .ok()
            });
            answered
        } else {
            trace::server_path(t, &memos, &line)
        };
        answered.push(how);
    }
    if !routed {
        // The router's own work on the same requests, under request ids
        // past the replay's so that coverage counts the direct path only.
        for i in 0..TRACED_WARM {
            let template = &templates[order[i % order.len()]];
            let line = format!("{{\"id\":\"rt{i}\"{}", template.request_tail);
            t.begin_request((TRACED_WARM + i) as u64);
            trace::router_path(t, &line, i as u64);
        }
    }
    let replayed: BTreeSet<u64> = (0..COVERAGE_PASS as u64).collect();
    layers.absorb(t, &answered);
    layers.set("trace.coverage", t.top_level_us(&replayed) / wire_us);
    Ok(layers.into_report(&e2e, notes))
}

// ----------------------------------------------------------------- zipf_mixed

/// The open-loop schedule: `workload::generate` with bursts of
/// [`ZIPF_BURST`] and lulls sized for [`ZIPF_RATE`].
fn zipf_schedule(seed: u64, seconds: f64) -> Vec<Scheduled> {
    let requests = (ZIPF_RATE * seconds).round().max(1.0) as usize;
    let period_us = ZIPF_BURST as f64 * 1e6 / ZIPF_RATE;
    let burst_us = (ZIPF_BURST - 1) as f64 * ZIPF_GAP_US as f64;
    let spec = WorkloadSpec {
        requests,
        tenants: 4,
        programs: ZIPF_PROGRAMS,
        pacing: Pacing {
            burst_len: ZIPF_BURST,
            gap_micros: ZIPF_GAP_US,
            lull_micros: (period_us - burst_us).round() as u64,
        },
        ..WorkloadSpec::default()
    };
    workload::generate(&spec, seed)
        .into_iter()
        .map(|r| Scheduled {
            due_us: r.offset_micros,
            line: r.line,
        })
        .collect()
}

fn zipf_mixed(args: &Args, bins: &Bins, tracer: Option<&mut Tracer>) -> Result<Report, String> {
    let schedule = zipf_schedule(args.seed, args.seconds);
    let mut setup_index = 0;
    let (procs, (), setup_s) = setup(
        || Ok(vec![spawn_server(bins, WORKERS)?]),
        |procs| {
            setup_index += 1;
            warm_up_decision(&procs[0].addr, args.seed, setup_index)
        },
    )?;
    let addr = procs[0].addr.clone();
    let before = wire::fetch_stats(&addr)?;
    let observed = wire::open_loop(&addr, ZIPF_CONNECTIONS, &schedule)?;
    let after = wire::fetch_stats(&addr)?;
    let peak_rss_mb = procs[0].peak_rss_mb();
    drop(procs);

    // Every repeat of a command must get the same answer.  Repeats of one
    // command that were in flight together are both computed, and the
    // result then carries two different wall-clock `micros` (and possibly
    // cache-hit counts); those repeats are compared without the
    // instrumentation fields and counted, everything else byte for byte.
    let mut answers: HashMap<&str, &str> = HashMap::new();
    let mut instrumentation_only = 0;
    let mut failed = 0;
    let mut answered: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, obs) in schedule.iter().zip(&observed) {
        let (_, request) = wire::split_id(&s.line).expect("generated lines lead with their id");
        let answer = wire::split_id(&obs.response).map(|(_, tail)| tail);
        match answer {
            Some(tail) if wire::tail_ok(tail) => {
                *answered.entry(verb_of(request)).or_default() += 1;
                let first = *answers.entry(request).or_insert(tail);
                if first != tail {
                    let stripped = check::without_instrumentation(first);
                    require(
                        stripped.is_some() && stripped == check::without_instrumentation(tail),
                        || format!("a repeated command got a different answer:\n{first}\n{tail}"),
                    )?;
                    instrumentation_only += 1;
                }
            }
            _ => failed += 1,
        }
    }
    check::verb_counts_match(&before, &after, &answered)?;
    let (latency, late) = wire::due_time_accounting(
        &schedule.iter().map(|s| s.due_us).collect::<Vec<_>>(),
        &observed,
    );
    require(!latency.is_empty(), || {
        "no request was answered".to_string()
    })?;
    let first_due = schedule.first().map_or(0, |s| s.due_us) as f64;
    let last = observed
        .iter()
        .filter_map(|o| o.received_us)
        .fold(first_due, f64::max);
    let misses = answers.len();
    let e2e = EndToEnd {
        throughput_rps: (schedule.len() as u64 - failed) as f64 / ((last - first_due) / 1e6),
        latencies_us: latency,
        sample_times_s: schedule
            .iter()
            .zip(&observed)
            .filter(|(_, o)| o.sent_us.is_some() && o.received_us.is_some())
            .map(|(s, _)| s.due_us as f64 / 1e6)
            .collect(),
        window_s: args.seconds,
        attempted: schedule.len() as u64,
        failed,
        setup_s,
        peak_rss_mb,
    };
    let notes = vec![format!(
        "zipf_mixed: {} requests offered at {ZIPF_RATE} rps, {misses} distinct commands ({:.1}% first occurrences), \
         {instrumentation_only} repeats differing only in instrumentation fields",
        schedule.len(),
        100.0 * misses as f64 / schedule.len() as f64
    )];
    let Some(t) = tracer else {
        return Ok(e2e.report(notes));
    };
    let mut layers = Layers::default();
    layers.set(
        "server.memo.instrumentation_divergent",
        instrumentation_only as f64,
    );
    layers.absorb_stats(&[before], &[after]);
    layers.set(
        "bench.generator_late_p99_us",
        stats::percentile_sorted(&sorted(late), 9900),
    );
    // Coverage: unloaded round trips over the first requests on a fresh
    // server, against the same requests replayed in-process from empty memos.
    let pass = &schedule[..COVERAGE_PASS.min(schedule.len())];
    let fresh = spawn_server(bins, WORKERS)?;
    let mut conn = Conn::open(&fresh.addr)?;
    let mut wire_us = 0.0;
    for s in pass {
        wire_us += conn.call(&s.line)?.1;
    }
    drop(conn);
    drop(fresh);
    let memos = Memos::default();
    let mut answered = Vec::with_capacity(pass.len());
    for (i, s) in pass.iter().enumerate() {
        t.begin_request(i as u64);
        let (how, command) = trace::server_path(t, &memos, &s.line);
        answered.push(how);
        if let Some(command) = command {
            trace::decompose(t, &command, None);
        }
    }
    layers.absorb(t, &answered);
    let requests: BTreeSet<u64> = (0..pass.len() as u64).collect();
    layers.set("trace.coverage", t.top_level_us(&requests) / wire_us);
    Ok(layers.into_report(&e2e, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_schedules_repeat_per_seed_and_differ_across_seeds() {
        let lines = |seed| {
            zipf_schedule(seed, 2.0)
                .into_iter()
                .map(|s| s.line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(5), lines(5));
        assert_ne!(lines(5), lines(6));
    }

    #[test]
    fn zipf_schedule_offers_the_configured_rate() {
        let schedule = zipf_schedule(1, 10.0);
        assert_eq!(schedule.len(), 500);
        let span_s = schedule.last().unwrap().due_us as f64 / 1e6;
        assert!((span_s - 10.0).abs() < 0.1, "{span_s}");
    }

    #[test]
    fn warm_streams_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(zipf_stream(3), zipf_stream(3));
        assert_ne!(zipf_stream(3).2, zipf_stream(4).2);
        let (tails, verbs, order) = zipf_stream(3);
        assert_eq!(tails.len(), verbs.len());
        assert_eq!(order.len(), WARM_STREAM);
        assert!(order.iter().all(|&i| i < tails.len()));
    }
}
