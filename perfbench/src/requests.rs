//! The seeded query mix, its text file form, and the in-process reference
//! answer for each query's canonical key.
//!
//! Mix: 60 % single-seed spread with the seed Zipf-drawn over users ranked
//! by activity; 20 % marginal gain of a Zipf candidate over one of the 64
//! most active users; 17 % spread of 2 or 3 (alternately) of the 64 most
//! active; 3 % top-k with k cycling through {5, 10, 20} (dropped from the
//! live reader's mix).

use cdim::actionlog::ActionLog;
use cdim::serve::{ModelSnapshot, Request, Response};
use cdim::util::rng::Zipf;
use cdim::util::Rng;

/// Users the multi-seed and marginal-gain seeds are drawn from.
const HOT_USERS: usize = 64;
/// Top-k budgets in the mix.
const BUDGETS: [u32; 3] = [5, 10, 20];

/// One query of the mix, with its seed set in canonical (sorted,
/// deduplicated) form, so it doubles as the answer-cache key.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Query {
    /// σ_cd of a seed set.
    Spread(Vec<u32>),
    /// Marginal gain of `candidate` over `seed`.
    Gain { seed: u32, candidate: u32 },
    /// CELF top-k.
    TopK(u32),
}

impl Query {
    /// The wire request.
    pub fn request(&self) -> Request {
        match self {
            Query::Spread(seeds) => Request::Spread { seeds: seeds.clone() },
            Query::Gain { seed, candidate } => {
                Request::MarginalGain { seeds: vec![*seed], candidate: *candidate }
            }
            Query::TopK(budget) => Request::TopKSeeds { budget: *budget },
        }
    }

    /// The service-layer query.
    pub fn service_query(&self) -> cdim::serve::Query {
        match self {
            Query::Spread(seeds) => cdim::serve::Query::Spread { seeds: seeds.clone() },
            Query::Gain { seed, candidate } => {
                cdim::serve::Query::MarginalGain { seeds: vec![*seed], candidate: *candidate }
            }
            Query::TopK(budget) => cdim::serve::Query::TopKSeeds { budget: *budget },
        }
    }

    /// The answer computed directly on `model`, in the wire form the
    /// server must return bit for bit.
    pub fn reference(&self, model: &ModelSnapshot) -> Response {
        match self {
            Query::Spread(seeds) if seeds.len() == 1 => {
                Response::Spread(model.single_marginal_gain(seeds[0]))
            }
            Query::Spread(seeds) => Response::Spread(model.telescoped_spread(seeds)),
            Query::Gain { seed, candidate } => {
                Response::MarginalGain(model.gain_over(&[*seed], *candidate))
            }
            Query::TopK(budget) => {
                let s = model.top_k(*budget as usize);
                Response::TopKSeeds { seeds: s.seeds, gains: s.marginal_gains }
            }
        }
    }

    fn to_line(&self) -> String {
        match self {
            Query::Spread(seeds) => {
                let ids: Vec<String> = seeds.iter().map(u32::to_string).collect();
                format!("S {}", ids.join(" "))
            }
            Query::Gain { seed, candidate } => format!("G {seed} {candidate}"),
            Query::TopK(budget) => format!("K {budget}"),
        }
    }

    fn from_line(line: &str) -> Option<Query> {
        let mut parts = line.split_whitespace();
        let kind = parts.next()?;
        let ids: Vec<u32> = parts.map(str::parse).collect::<Result<_, _>>().ok()?;
        match (kind, ids.as_slice()) {
            ("S", seeds) if !seeds.is_empty() => Some(Query::Spread(seeds.to_vec())),
            ("G", [seed, candidate]) => Some(Query::Gain { seed: *seed, candidate: *candidate }),
            ("K", [budget]) => Some(Query::TopK(*budget)),
            _ => None,
        }
    }
}

/// Bitwise answer equality (NaN-safe, `-0.0 != 0.0`).
pub fn same_bits(a: &Response, b: &Response) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (Response::Spread(x), Response::Spread(y))
        | (Response::MarginalGain(x), Response::MarginalGain(y)) => x.to_bits() == y.to_bits(),
        (
            Response::TopKSeeds { seeds: s1, gains: g1 },
            Response::TopKSeeds { seeds: s2, gains: g2 },
        ) => s1 == s2 && bits(g1) == bits(g2),
        _ => false,
    }
}

/// `n` queries of the mix over `log`'s users; `with_top_k = false` drops
/// the top-k share. Each kind's count is fixed (the shares are exact, in
/// shuffled order) so that every seed asks for the same mix of work.
pub fn generate(log: &ActionLog, n: usize, with_top_k: bool, seed: u64) -> Vec<Query> {
    let mut ranked: Vec<u32> = (0..log.num_users() as u32).collect();
    ranked.sort_by_key(|&u| (std::cmp::Reverse(log.actions_performed_by(u)), u));
    let hot = &ranked[..HOT_USERS.min(ranked.len())];
    let zipf = Zipf::new(ranked.len(), 1.0);
    let mut rng = Rng::seed_from_u64(seed);
    let shares = [0.60, 0.20, 0.17, if with_top_k { 0.03 } else { 0.0 }];
    let total: f64 = shares.iter().sum();
    let mut kinds: Vec<usize> = Vec::with_capacity(n);
    let mut cumulative = 0.0;
    for (kind, share) in shares.iter().enumerate() {
        cumulative += share / total;
        let upto = (cumulative * n as f64).round() as usize;
        kinds.resize(upto.max(kinds.len()), kind);
    }
    kinds.resize(n, 0);
    rng.shuffle(&mut kinds);
    let zipf_user = |rng: &mut Rng| ranked[zipf.sample(rng) - 1];
    let (mut multi, mut top) = (0, 0);
    kinds
        .into_iter()
        .map(|kind| match kind {
            0 => Query::Spread(vec![zipf_user(&mut rng)]),
            1 => {
                let seed = hot[rng.index(hot.len())];
                let candidate = loop {
                    let c = zipf_user(&mut rng);
                    if c != seed {
                        break c;
                    }
                };
                Query::Gain { seed, candidate }
            }
            2 => {
                multi += 1;
                let size = (2 + multi % 2).min(hot.len());
                let mut seeds: Vec<u32> =
                    rng.sample_indices(hot.len(), size).into_iter().map(|i| hot[i]).collect();
                seeds.sort_unstable();
                Query::Spread(seeds)
            }
            _ => {
                top += 1;
                Query::TopK(BUDGETS[top % BUDGETS.len()])
            }
        })
        .collect()
}

/// Writes `queries` one per line.
pub fn save(queries: &[Query], path: &std::path::Path) -> std::io::Result<()> {
    let text: String = queries.iter().map(|q| q.to_line() + "\n").collect();
    std::fs::write(path, text)
}

/// Reads a file written by [`save`].
pub fn load(path: &std::path::Path) -> Result<Vec<Query>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            Query::from_line(l).ok_or_else(|| format!("{}:{}: bad query", path.display(), i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_canonical_and_round_trips() {
        let log = cdim::datagen::presets::tiny().generate().log;
        let a = generate(&log, 500, true, 7);
        assert_eq!(a, generate(&log, 500, true, 7));
        assert_ne!(a, generate(&log, 500, true, 8));
        for q in &a {
            match q {
                Query::Spread(s) => assert!(s.windows(2).all(|w| w[0] < w[1])),
                Query::Gain { seed, candidate } => assert_ne!(seed, candidate),
                Query::TopK(k) => assert!(BUDGETS.contains(k)),
            }
            assert_eq!(Query::from_line(&q.to_line()).as_ref(), Some(q));
        }
        let count = |qs: &[Query], f: fn(&Query) -> bool| qs.iter().filter(|q| f(q)).count();
        assert_eq!(count(&a, |q| matches!(q, Query::TopK(_))), 15);
        assert_eq!(count(&a, |q| matches!(q, Query::Gain { .. })), 100);
        assert_eq!(count(&a, |q| matches!(q, Query::Spread(s) if s.len() > 1)), 85);
        let live = generate(&log, 500, false, 7);
        assert_eq!(count(&live, |q| matches!(q, Query::TopK(_))), 0);
        assert_eq!(count(&live, |q| matches!(q, Query::Spread(s) if s.len() == 1)), 309);
    }
}
