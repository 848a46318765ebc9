//! The traced run: spans recorded in memory around calls into each layer's
//! public functions, made in the order the server makes them, and written
//! out when the run ends.  Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use automata::tree::ops::union as tree_union;
use automata::tree::TreeAutomaton;
use cq::Ucq;
use datalog::atom::{Atom, Pred};
use datalog::eval::{evaluate_goal_with, resolve_auto_strategy, EvalOptions};
use datalog::parser::parse_program;
use datalog::program::Program;
use datalog::term::Term;
use nonrec_equivalence::cache::DecisionKey;
use nonrec_equivalence::containment::{
    datalog_contained_in_ucq_with, DecisionOptions, DecisionPath,
};
use nonrec_equivalence::cq_automaton::CqAutomaton;
use nonrec_equivalence::labels::ProofLabel;
use nonrec_equivalence::ptrees_automaton::PtreesAutomaton;
use nonrec_equivalence::unfold::{expansions_up_to_depth_limited, unfold_nonrecursive};
use nonrec_equivalence::ProgramKey;
use server::engine::{self, DEFAULT_MAX_PAIRS, DEFAULT_MAX_UNFOLD};
use server::json::{self, Value};
use server::memo::{memo_key, LineMemo, ResponseMemo};
use server::protocol::{ok_response, parse_request, request_id, Command};

/// Root span of the stage decomposition of a cold request.  It re-runs the
/// decision stage by stage after the server path, so it is excluded from
/// the coverage sum.
pub const DECOMPOSE: &str = "decompose";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `server.json.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
}

/// In-memory span recorder plus per-request counters.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    counts: BTreeMap<(&'static str, u64), f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Attribute the following spans and counts to request `id`.
    pub fn begin_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        self.spans[index].start_ns = self.now_ns();
        let out = std::hint::black_box(f(self));
        self.spans[index].end_ns = self.now_ns();
        self.stack.pop();
        out
    }

    /// Add `value` to the current request's counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry((name, self.request)).or_default() += value;
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap here).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Per request that has a span called `name`: the summed self time of
    /// those spans, in microseconds.
    pub fn self_us_per_request(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per: BTreeMap<u64, f64> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            if span.name == name {
                *per.entry(span.request).or_default() += ns as f64 / 1e3;
            }
        }
        per.into_values().collect()
    }

    /// Per request that recorded counter `name`: its value.
    pub fn counts_per_request(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .collect()
    }

    /// Sum of a counter over all requests.
    pub fn count_total(&self, name: &str) -> f64 {
        self.counts_per_request(name).iter().sum()
    }

    /// Sum, over the given requests, of their top-level spans (the server
    /// path), in microseconds.
    pub fn top_level_us(&self, requests: &std::collections::BTreeSet<u64>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name != DECOMPOSE && requests.contains(&s.request))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Write every span, one JSON object per line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// The memos an in-process replay runs against, private to the replay.
#[derive(Default)]
pub struct Memos {
    /// The command-keyed response memo.
    pub response: ResponseMemo,
    /// The raw-line memo.
    pub line: LineMemo,
}

/// How the server path answered a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answered {
    /// From the raw-line memo.
    LineMemo,
    /// From the response memo.
    ResponseMemo,
    /// By the decision engine.
    Engine,
    /// Not at all (a malformed line or a failed decision).
    Failed,
}

/// Replay one request line along the server's path: line memo, frame
/// parse, request parse, memo key, response-memo lookup, then either the
/// rendered hit or engine execution, render and memo stores.  Returns the
/// parsed command when the engine ran, for the stage decomposition.
pub fn server_path(t: &mut Tracer, memos: &Memos, line: &str) -> (Answered, Option<Command>) {
    if t.span("server.memo.line_lookup", |_| memos.line.lookup(line))
        .is_some()
    {
        return (Answered::LineMemo, None);
    }
    let Ok(value) = t.span("server.json.parse", |_| json::parse(line)) else {
        return (Answered::Failed, None);
    };
    let Ok(request) = t.span("server.protocol.parse_request", |_| {
        let _ = request_id(&value);
        parse_request(&value, true)
    }) else {
        return (Answered::Failed, None);
    };
    let verb = request.command.verb();
    let key = t.span("server.memo.key", |_| memo_key(&request.command));
    if let Some(key) = &key {
        if let Some(result) = t.span("server.memo.lookup", |_| memos.response.lookup(key)) {
            let rendered = t.span("server.json.render", |_| {
                ok_response(&request.id, verb, result).render()
            });
            t.span("server.memo.line_store", |_| {
                memos.line.store(line.to_string(), verb, rendered)
            });
            return (Answered::ResponseMemo, None);
        }
    }
    let Ok(result) = t.span("server.engine.execute", |_| {
        engine::execute(&request.command)
    }) else {
        return (Answered::Failed, None);
    };
    let rendered = t.span("server.json.render", |_| {
        ok_response(&request.id, verb, result.clone()).render()
    });
    if let Some(key) = key {
        t.span("server.memo.store", |_| {
            memos.response.store(key, &result);
            memos.line.store(line.to_string(), verb, rendered);
        });
    }
    (Answered::Engine, Some(request.command))
}

/// The router's per-request work before forwarding, made through the same
/// public calls: frame parse, structural shard key of the program, and the
/// re-render with the router's own id for the request.
pub fn router_path(t: &mut Tracer, line: &str, router_id: u64) -> Option<String> {
    let mut value = t.span("router.json.parse", |_| json::parse(line).ok())?;
    t.span("router.route_key", |_| {
        if let Some(text) = value.get("program").and_then(Value::as_str) {
            if let Ok(program) = parse_program(text) {
                let keys: Vec<String> = ProgramKey::of(&program)
                    .rule_keys()
                    .iter()
                    .map(|k| k.as_query().to_string())
                    .collect();
                std::hint::black_box(keys);
            }
        }
    });
    Some(t.span("router.json.render", |_| {
        if let Value::Obj(fields) = &mut value {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == "id") {
                slot.1 = Value::num(router_id as f64);
            }
        }
        value.render()
    }))
}

/// The decision options the server passes to the decision layer, with the
/// cache off so the stages run every time.
fn uncached_options() -> DecisionOptions {
    DecisionOptions {
        use_cache: false,
        max_pairs: Some(DEFAULT_MAX_PAIRS),
        max_unfold: DEFAULT_MAX_UNFOLD,
        ..DecisionOptions::default()
    }
}

/// Re-run a cold decision command stage by stage under a [`DECOMPOSE`]
/// root span.  `family` labels the whole-decision span for per-family
/// reporting.
pub fn decompose(t: &mut Tracer, command: &Command, family: Option<&'static str>) {
    t.span(DECOMPOSE, |t| match command {
        Command::Containment {
            program,
            goal,
            query,
            ..
        } => {
            let Some((program, ucq)) = t.span("datalog.parser.parse", |_| {
                Some((
                    parse_program(program).ok()?,
                    Ucq::parse_checked(query).ok()?,
                ))
            }) else {
                return;
            };
            decide_stages(t, &program, Pred::new(goal), &ucq, family);
        }
        Command::Equivalence {
            program,
            goal,
            candidate,
            ..
        } => {
            let Some((program, candidate)) = t.span("datalog.parser.parse", |_| {
                Some((parse_program(program).ok()?, parse_program(candidate).ok()?))
            }) else {
                return;
            };
            let goal = Pred::new(goal);
            // Π' ⊆ Π by canonical databases, as `equivalent_to_nonrecursive_with`
            // does it first.
            let Some(unfolding) = t.span("core.unfold.unfold", |_| {
                unfold_nonrecursive(&candidate, goal, DEFAULT_MAX_UNFOLD).ok()
            }) else {
                return;
            };
            let contained = t.span("core.cq_in_datalog.check", |t| {
                unfolding
                    .disjuncts
                    .iter()
                    .all(|theta| canonical_check(t, theta, &program, goal))
            });
            if !contained {
                return;
            }
            let Some(unfolding) = t.span("core.unfold.unfold", |_| {
                unfold_nonrecursive(&candidate, goal, DEFAULT_MAX_UNFOLD).ok()
            }) else {
                return;
            };
            t.count("core.unfold.disjuncts", unfolding.len() as f64);
            decide_stages(t, &program, goal, &unfolding, family);
        }
        Command::Bounded {
            program,
            goal,
            max_depth,
            ..
        } => {
            let Some(program) = t.span("datalog.parser.parse", |_| parse_program(program).ok())
            else {
                return;
            };
            let goal = Pred::new(goal);
            for depth in 1..=*max_depth {
                let Some(unfolding) = t.span("core.unfold.unfold", |_| {
                    expansions_up_to_depth_limited(&program, goal, depth, DEFAULT_MAX_UNFOLD).ok()
                }) else {
                    return;
                };
                t.count("core.unfold.disjuncts", unfolding.len() as f64);
                if decide_stages(t, &program, goal, &unfolding, family) {
                    return;
                }
            }
        }
        _ => {}
    });
}

/// One canonical-database check (`cq_contained_in_datalog_with` with the
/// planner's strategy), counting the evaluator's probes.
fn canonical_check(
    t: &mut Tracer,
    theta: &cq::ConjunctiveQuery,
    program: &Program,
    goal: Pred,
) -> bool {
    let frozen = cq::canonical::canonical_database(theta);
    let pattern = Atom::new(
        goal,
        frozen.head_tuple.iter().map(|&c| Term::Const(c)).collect(),
    );
    let strategy = resolve_auto_strategy(program, &frozen.database, &pattern);
    let result = evaluate_goal_with(
        program,
        &frozen.database,
        &pattern,
        EvalOptions {
            strategy,
            ..EvalOptions::default()
        },
    );
    t.count("datalog.eval.probes", result.stats.probes as f64);
    t.count("datalog.eval.checks", 1.0);
    result.relation(goal).contains(&frozen.head_tuple)
}

/// One Π ⊆ Θ decision: the cache key, the whole uncached decision as the
/// server makes it, then its construction stages (and, on the tree path,
/// the tree containment) re-run one by one.  Returns the verdict.
fn decide_stages(
    t: &mut Tracer,
    program: &Program,
    goal: Pred,
    ucq: &Ucq,
    family: Option<&'static str>,
) -> bool {
    let options = uncached_options();
    t.span("core.cache.key", |_| {
        DecisionKey::new(program, goal, ucq, options)
    });
    let name = match family {
        Some("linear_tc") => "core.containment.decide.linear_tc",
        Some("tc_equiv") => "core.containment.decide.tc_equiv",
        Some("buys_equiv") => "core.containment.decide.buys_equiv",
        Some("buys_bounded") => "core.containment.decide.buys_bounded",
        Some("nonlinear_tc") => "core.containment.decide.nonlinear_tc",
        _ => "core.containment.decide.other",
    };
    let start = Instant::now();
    let Ok(result) = t.span(name, |_| {
        datalog_contained_in_ucq_with(program, goal, ucq, options)
    }) else {
        return false;
    };
    let decide_us = start.elapsed().as_secs_f64() * 1e6;
    t.count(
        "core.ptrees_automaton.states",
        result.stats.ptrees.states as f64,
    );
    t.count(
        "core.cq_automaton.states",
        result.stats.queries.states as f64,
    );
    t.count("core.explored_pairs", result.stats.explored as f64);
    let construction_start = Instant::now();
    let (ptrees, union) = t.span("core.containment.stages", |t| {
        let ptrees = t.span("core.ptrees_automaton.build", |_| {
            PtreesAutomaton::build(program, goal)
        });
        let mut union: TreeAutomaton<ProofLabel> = TreeAutomaton::new(0);
        for disjunct in &ucq.disjuncts {
            let a_theta = t.span("core.cq_automaton.build", |_| {
                CqAutomaton::build(&ptrees.context, goal, disjunct)
            });
            union = t.span("automata.tree.union", |_| {
                tree_union(&union, &a_theta.automaton)
            });
        }
        (ptrees, union)
    });
    let construction_us = construction_start.elapsed().as_secs_f64() * 1e6;
    match result.stats.path {
        DecisionPath::WordAutomata => {
            // Derived: the word-path decision minus its construction stages.
            t.count(
                "automata.word.containment_us",
                (decide_us - construction_us).max(0.0),
            );
            t.count("automata.word.pairs", result.stats.explored as f64);
        }
        DecisionPath::TreeAutomata => {
            let outcome = t.span("automata.tree.containment", |_| {
                automata::tree::containment::contained_in_with(
                    &ptrees.automaton,
                    &union,
                    automata::tree::containment::ContainmentOptions {
                        antichain: options.antichain,
                        max_pairs: options.max_pairs,
                        schedule: automata::tree::containment::Schedule::MinSubset,
                    },
                )
            });
            t.count("automata.tree.pairs", outcome.stats().pairs as f64);
        }
    }
    result.contained
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::default();
        t.begin_request(1);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = t.self_us_per_request("outer");
        let inner = t.self_us_per_request("inner");
        assert_eq!((outer.len(), inner.len()), (1, 1));
        assert!(inner[0] >= 2000.0);
        assert!(outer[0] < inner[0], "outer self time excludes the child");
        let requests = std::iter::once(1).collect();
        let top = t.top_level_us(&requests);
        assert!(top >= outer[0] + inner[0] - 1.0);
    }
}
