//! The `cold_decide` request families: structurally fresh programs with
//! request-unique EDB names and answers known in advance.

use server::json::Value;
use server::protocol;

/// A shape family with a known answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Linear transitive closure vs paths of length ≤ k: not contained
    /// (word path).
    LinearTc(usize),
    /// Transitive closure vs its paths≤2 unfolding: `recursive_exceeds`.
    TcEquiv,
    /// The paper's trendy-buys program vs its nonrecursive form: equivalent.
    BuysEquiv,
    /// `bounded` with depth 3 on trendy-buys: bound 2.
    BuysBounded,
    /// Nonlinear transitive closure (`p :- p, p`) vs paths of length ≤ k:
    /// not contained (tree path only).
    NonlinearTc(usize),
}

/// One round: every family once.  A run sends whole rounds, so every seed
/// measures the same mix.
pub const ROUND: [Family; 8] = [
    Family::LinearTc(2),
    Family::LinearTc(3),
    Family::LinearTc(4),
    Family::TcEquiv,
    Family::BuysEquiv,
    Family::BuysBounded,
    Family::NonlinearTc(2),
    Family::NonlinearTc(3),
];

impl Family {
    /// The family name used for per-family metrics (`core.containment.decide_us.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Family::LinearTc(_) => "linear_tc",
            Family::TcEquiv => "tc_equiv",
            Family::BuysEquiv => "buys_equiv",
            Family::BuysBounded => "buys_bounded",
            Family::NonlinearTc(_) => "nonlinear_tc",
        }
    }
}

/// The answer a request must get.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// `containment`: not contained, with a counterexample.
    NotContained,
    /// `equivalence`: this verdict string.
    Verdict(&'static str),
    /// `bounded`: bounded at exactly this depth.
    Bound(usize),
}

/// A generated `cold_decide` request.
#[derive(Clone, Debug)]
pub struct ColdRequest {
    /// The shape family.
    pub family: Family,
    /// The wire verb.
    pub verb: &'static str,
    /// The recursive program.
    pub program: String,
    /// The goal predicate.
    pub goal: &'static str,
    /// The query (containment) or nonrecursive candidate (equivalence).
    pub other: String,
    /// The known answer.
    pub expected: Expected,
    /// The framed request line (no trailing newline).
    pub line: String,
}

fn paths_up_to(edb: &str, k: usize) -> String {
    (1..=k)
        .map(|len| {
            let body: Vec<String> = (0..len)
                .map(|j| format!("{edb}(X{j}, X{})", j + 1))
                .collect();
            format!("q(X0, X{len}) :- {}.", body.join(", "))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Build the request for `family` with EDB names made unique by `tag`.
pub fn request(family: Family, tag: &str, id: &str) -> ColdRequest {
    let e = format!("e{tag}");
    let (verb, program, goal, other, expected) = match family {
        Family::LinearTc(k) => (
            "containment",
            format!("p(X, Y) :- {e}(X, Y).\np(X, Y) :- {e}(X, Z), p(Z, Y)."),
            "p",
            paths_up_to(&e, k),
            Expected::NotContained,
        ),
        Family::NonlinearTc(k) => (
            "containment",
            format!("p(X, Y) :- {e}(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y)."),
            "p",
            paths_up_to(&e, k),
            Expected::NotContained,
        ),
        Family::TcEquiv => (
            "equivalence",
            format!("p(X, Y) :- {e}(X, Y).\np(X, Y) :- {e}(X, Z), p(Z, Y)."),
            "p",
            format!("p(X, Y) :- {e}(X, Y).\np(X, Y) :- {e}(X, Z), {e}(Z, Y)."),
            Expected::Verdict("recursive_exceeds"),
        ),
        Family::BuysEquiv => (
            "equivalence",
            format!("buys(X, Y) :- likes{tag}(X, Y).\nbuys(X, Y) :- trendy{tag}(X), buys(Z, Y)."),
            "buys",
            format!(
                "buys(X, Y) :- likes{tag}(X, Y).\nbuys(X, Y) :- trendy{tag}(X), likes{tag}(Z, Y)."
            ),
            Expected::Verdict("equivalent"),
        ),
        Family::BuysBounded => (
            "bounded",
            format!("buys(X, Y) :- likes{tag}(X, Y).\nbuys(X, Y) :- trendy{tag}(X), buys(Z, Y)."),
            "buys",
            String::new(),
            Expected::Bound(2),
        ),
    };
    let request = match verb {
        "containment" => protocol::containment_request(&program, goal, &other),
        "equivalence" => protocol::equivalence_request(&program, goal, &other),
        _ => protocol::bounded_request(&program, goal, 3),
    };
    let line = match request {
        Value::Obj(mut fields) => {
            fields.insert(0, ("id".to_string(), Value::str(id)));
            Value::Obj(fields).render()
        }
        other => other.render(),
    };
    ColdRequest {
        family,
        verb,
        program,
        goal,
        other,
        expected,
        line,
    }
}

/// The `cold_decide` stream for `seed`: rounds of [`ROUND`], each in a
/// seeded order, every request with its own EDB names (`e<salt>n<index>`).
pub struct ColdStream {
    rng: rng::rngs::StdRng,
    salt: u64,
    next: usize,
    round: Vec<Family>,
}

impl ColdStream {
    /// The stream for `seed`; `prefix` keeps warm-up names apart from
    /// measured ones.
    pub fn new(seed: u64, prefix: u64) -> ColdStream {
        use rng::SeedableRng;
        let mut rng = rng::rngs::StdRng::seed_from_u64(seed ^ 0x636f_6c64);
        let salt = rng::RngCore::next_u64(&mut rng) & 0xff_ffff;
        ColdStream {
            rng,
            salt: salt ^ (prefix << 24),
            next: 0,
            round: Vec::new(),
        }
    }

    /// The next request; a new round starts every [`ROUND`]`.len()` calls.
    pub fn next_request(&mut self) -> ColdRequest {
        if self.round.is_empty() {
            self.round = ROUND.to_vec();
            // Fisher–Yates with the seeded generator.
            for i in (1..self.round.len()).rev() {
                let j = rng::Rng::random_range(&mut self.rng, 0..=i);
                self.round.swap(i, j);
            }
        }
        let family = self.round.pop().expect("refilled above");
        let index = self.next;
        self.next += 1;
        let tag = format!("{:x}n{index}", self.salt);
        request(family, &tag, &format!("c{index}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn edb_names(req: &ColdRequest) -> HashSet<String> {
        let program = datalog::parser::parse_program(&req.program).expect("program parses");
        program
            .predicates()
            .into_iter()
            .filter(|p| !program.is_idb(*p))
            .map(|p| p.name().to_string())
            .collect()
    }

    #[test]
    fn same_seed_same_lines_and_different_seeds_differ() {
        let lines = |seed| {
            let mut s = ColdStream::new(seed, 0);
            (0..40).map(|_| s.next_request().line).collect::<Vec<_>>()
        };
        assert_eq!(lines(1), lines(1));
        assert_ne!(lines(1), lines(2));
    }

    #[test]
    fn edb_names_never_collide_across_requests() {
        let mut seen: HashSet<String> = HashSet::new();
        for (seed, prefix) in [(1, 0), (1, 1), (2, 0)] {
            let mut stream = ColdStream::new(seed, prefix);
            for _ in 0..200 {
                let req = stream.next_request();
                let names = edb_names(&req);
                assert!(!names.is_empty());
                for name in names {
                    assert!(seen.insert(name.clone()), "EDB name {name} reused");
                }
            }
        }
    }

    #[test]
    fn every_round_holds_each_family_once() {
        let mut stream = ColdStream::new(9, 0);
        for _ in 0..3 {
            let mut round: Vec<Family> = (0..ROUND.len())
                .map(|_| stream.next_request().family)
                .collect();
            let mut expected = ROUND.to_vec();
            round.sort_by_key(|f| format!("{f:?}"));
            expected.sort_by_key(|f| format!("{f:?}"));
            assert_eq!(round, expected);
        }
    }

    #[test]
    fn lines_parse_as_requests() {
        let mut stream = ColdStream::new(3, 0);
        for _ in 0..ROUND.len() {
            let req = stream.next_request();
            let value = server::json::parse(&req.line).expect("valid JSON");
            let parsed = server::protocol::parse_request(&value, false).expect("valid request");
            assert_eq!(parsed.command.verb(), req.verb);
        }
    }
}
