//! Correctness gates, all outside the timed window: counterexample
//! validation against the library's own evaluators, and "ran as built"
//! checks read from the `stats` verb.

use cq::Ucq;
use datalog::atom::Pred;
use datalog::database::Database;
use datalog::eval::{evaluate_goal_with, EvalOptions};
use datalog::program::Program;
use datalog::term::{Constant, Term};
use server::json::Value;

/// Parse a rendered fact such as `e(?x1, ?v_0_2_0)`.
fn parse_fact(text: &str) -> Option<(Pred, Vec<Constant>)> {
    let (pred, rest) = text.split_once('(')?;
    let args = rest.strip_suffix(')')?;
    let tuple = args
        .split(',')
        .map(|a| Constant::new(a.trim()))
        .collect::<Vec<_>>();
    Some((Pred::new(pred.trim()), tuple))
}

/// Check a served counterexample: Π derives `goal_tuple` on `database`
/// and no disjunct of Θ does.
pub fn counterexample_valid(
    program: &Program,
    goal: Pred,
    theta: &Ucq,
    counterexample: &Value,
) -> Result<(), String> {
    let facts = counterexample
        .get("database")
        .and_then(Value::as_arr)
        .ok_or("counterexample has no database")?;
    let mut database = Database::new();
    for fact in facts {
        let text = fact.as_str().ok_or("non-string fact")?;
        let (pred, tuple) = parse_fact(text).ok_or_else(|| format!("unparseable fact {text}"))?;
        database.insert_tuple(pred, tuple);
    }
    let tuple: Vec<Constant> = counterexample
        .get("goal_tuple")
        .and_then(Value::as_arr)
        .ok_or("counterexample has no goal_tuple")?
        .iter()
        .map(|c| c.as_str().map(Constant::new).ok_or("non-string constant"))
        .collect::<Result<_, _>>()?;
    let pattern = datalog::atom::Atom::new(goal, tuple.iter().map(|&c| Term::Const(c)).collect());
    let derived = evaluate_goal_with(program, &database, &pattern, EvalOptions::default());
    if !derived.relation(goal).contains(&tuple) {
        return Err("the program does not derive goal_tuple on the database".to_string());
    }
    for disjunct in &theta.disjuncts {
        if cq::eval::evaluate_cq(disjunct, &database).contains(&tuple) {
            return Err(format!("Θ derives goal_tuple through `{disjunct}`"));
        }
    }
    Ok(())
}

/// Result fields that describe how an answer was computed, not what it
/// is: wall-clock time and cache-hit tallies.
const INSTRUMENTATION: [&str; 3] = ["micros", "containment_cache_hits", "strategy_decisions"];

fn strip(value: &mut Value) {
    match value {
        Value::Obj(fields) => {
            fields.retain(|(k, _)| !INSTRUMENTATION.contains(&k.as_str()));
            fields.iter_mut().for_each(|(_, v)| strip(v));
        }
        Value::Arr(items) => items.iter_mut().for_each(strip),
        _ => {}
    }
}

/// A response tail (after its id) rendered without [`INSTRUMENTATION`]
/// fields; `None` when it does not parse.
pub fn without_instrumentation(tail: &str) -> Option<String> {
    let mut value = server::json::parse(&format!("{{\"id\":0{tail}")).ok()?;
    strip(&mut value);
    Some(value.render())
}

/// A number at `path` in a stats payload (0 when absent).
pub fn num(stats: &Value, path: &[&str]) -> f64 {
    let mut v = stats;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// `after − before` of a counter.
pub fn delta(before: &Value, after: &Value, path: &[&str]) -> f64 {
    num(after, path) - num(before, path)
}

/// The decision verbs a workload may send.
pub const DECISION_VERBS: [&str; 6] = [
    "containment",
    "equivalence",
    "bounded",
    "optimize",
    "minimize",
    "rewrite",
];

/// Per-verb histogram counts over a window must equal the requests
/// answered successfully (a `busy` or queue-expired refusal gets no
/// histogram sample).
pub fn verb_counts_match(
    before: &Value,
    after: &Value,
    answered: &std::collections::BTreeMap<&'static str, u64>,
) -> Result<(), String> {
    for verb in DECISION_VERBS {
        let counted = delta(before, after, &["verbs", verb, "count"]);
        let expected = answered.get(verb).copied().unwrap_or(0) as f64;
        if counted != expected {
            return Err(format!(
                "stats counted {counted} `{verb}` requests, {expected} were answered"
            ));
        }
    }
    Ok(())
}

/// A gate that failed: the run reports no numbers.
pub fn require(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog::parser::parse_program;

    fn cex(database: &[&str], tuple: &[&str]) -> Value {
        server::json::obj(vec![
            (
                "database",
                Value::Arr(database.iter().map(|f| Value::str(*f)).collect()),
            ),
            (
                "goal_tuple",
                Value::Arr(tuple.iter().map(|c| Value::str(*c)).collect()),
            ),
        ])
    }

    #[test]
    fn instrumentation_fields_are_ignored_and_nothing_else() {
        let a = r#","ok":true,"result":{"contained":false,"stats":{"explored":3,"micros":10}}}"#;
        let b = r#","ok":true,"result":{"contained":false,"stats":{"explored":3,"micros":12}}}"#;
        let c = r#","ok":true,"result":{"contained":false,"stats":{"explored":4,"micros":10}}}"#;
        assert_eq!(without_instrumentation(a), without_instrumentation(b));
        assert_ne!(without_instrumentation(a), without_instrumentation(c));
        assert!(without_instrumentation("{broken").is_none());
    }

    #[test]
    fn a_three_edge_cycle_separates_tc_from_paths_of_length_two() {
        let program = parse_program("p(X, Y) :- e(X, Y).\np(X, Y) :- e(X, Z), p(Z, Y).").unwrap();
        let theta = Ucq::parse("q(X, Y) :- e(X, Y).\nq(X, Y) :- e(X, Z), e(Z, Y).").unwrap();
        let good = cex(&["e(?a, ?b)", "e(?b, ?c)", "e(?c, ?a)"], &["?a", "?a"]);
        counterexample_valid(&program, Pred::new("p"), &theta, &good).unwrap();
        // A two-edge path is caught by the second disjunct.
        let bad = cex(&["e(?a, ?b)", "e(?b, ?c)"], &["?a", "?c"]);
        assert!(counterexample_valid(&program, Pred::new("p"), &theta, &bad).is_err());
        // A tuple the program cannot derive is rejected too.
        let underived = cex(&["e(?a, ?b)"], &["?b", "?a"]);
        assert!(counterexample_valid(&program, Pred::new("p"), &theta, &underived).is_err());
    }
}
