//! Load-time validation of an untrusted arena: the checks that let
//! [`CompactSelector::from_arena`](super::CompactSelector::from_arena)
//! reinterpret snapshot bytes in place.

use super::{CompactCounts, CompactData};
use std::ops::Range;

/// Structural validation of an untrusted arena. Cheap linear scans — no
/// hash maps; beside the arena it allocates one word per action and one
/// bit per user. The CRC trailer
/// (checked by the snapshot layer) covers integrity; this pass guarantees
/// that every later index access is in bounds and every traversal order
/// assumption (sorted runs) holds.
pub(super) fn validate(data: &CompactData) -> Result<(), String> {
    let c = &data.counts;
    check_offsets("ua_offsets", data.ua_offsets(), c.num_users, c.ua_len)?;
    // Marginal gains, the commit-free evaluator and `retract` all walk a
    // user's actions as an ascending merge, so each row must be strictly
    // ascending as well as in range.
    for u in 0..c.num_users as u32 {
        let mut prev = -1i64;
        for &a in data.ua_row(u) {
            if a as usize >= c.num_actions {
                return Err(format!("user-action id {a} out of range ({} actions)", c.num_actions));
            }
            if i64::from(a) <= prev {
                return Err(format!("user {u}: actions not strictly ascending"));
            }
            prev = i64::from(a);
        }
    }
    if let Some((u, &x)) =
        data.inv_au().iter().enumerate().find(|(_, &x)| !(0.0..=1.0).contains(&x))
    {
        return Err(format!("user {u}: 1/A_u = {x} out of [0, 1]"));
    }

    // One fused pass per direction checks its offsets, rows and ids, and
    // folds each action's (v, u) pairs into an order-independent sum: the
    // out pass adds, the inc pass subtracts. Validation runs on every v2
    // snapshot load, so each pass ORs its violation flags without a
    // branch per entry and only re-walks a flagged action for the message.
    let mut sums = vec![0u64; c.num_actions];
    validate_direction::<true>(
        "out",
        c,
        data.out_act_rows(),
        data.out_row_user(),
        data.out_row_offsets(),
        data.out_targets(),
        c.out_rows,
        &mut sums,
    )?;
    check_credits("credit", data.out_credits())?;
    validate_direction::<false>(
        "inc",
        c,
        data.inc_act_rows(),
        data.inc_row_user(),
        data.inc_row_offsets(),
        data.inc_sources(),
        c.inc_rows,
        &mut sums,
    )?;
    // Per action, the inc direction must hold exactly the out direction's
    // (v, u) pairs. Both sides are duplicate-free (strictly sorted rows),
    // so equal sums of [`pair_hash`] stand in for a per-entry search. One
    // substituted id, or one entry moved to another row, always changes
    // the sum; a forgery of several entries can cancel, but a query
    // still stays in bounds then: the commit kernel skips an inc entry
    // with no out match.
    if let Some(a) = sums.iter().position(|&s| s != 0) {
        return Err(format!("action {a}: inc entries do not mirror the out entries"));
    }

    let keys = data.sc_keys();
    if keys.windows(2).any(|w| w[0] >= w[1]) {
        return Err("SC keys not strictly sorted".to_string());
    }
    // Lemma 3 only ever writes to users who performed the action, and the
    // overlay keeps SC in one slot per user-action pair.
    for &key in keys {
        let (a, u) = ((key >> 32) as u32, key as u32);
        if a as usize >= c.num_actions || u as usize >= c.num_users {
            return Err(format!("SC key ({a}, {u}) out of range"));
        }
        if data.ua_index(u, a).is_none() {
            return Err(format!("SC key ({a}, {u}): user {u} did not perform action {a}"));
        }
    }
    check_credits("SC credit", data.sc_vals())?;
    // One bit per user (1/96 of the arena's per-user bytes), so a forged
    // list of a million seeds costs a linear pass, not a quadratic one.
    let mut seen = vec![0u64; c.num_users.div_ceil(64)];
    for &s in data.seeds() {
        if s as usize >= c.num_users {
            return Err(format!("seed {s} out of range"));
        }
        let (word, bit) = (s as usize / 64, 1u64 << (s % 64));
        if seen[word] & bit != 0 {
            return Err(format!("duplicate seed {s}"));
        }
        seen[word] |= bit;
    }
    Ok(())
}

/// What a stored credit or SC value may be: finite, sign bit clear (so
/// `+0.0` but not `−0.0`). Scans and updates only produce such values,
/// and the commit kernel's pass-through of unmarked entries relies on it.
fn is_credit(x: f64) -> bool {
    x.is_finite() && x.is_sign_positive()
}

/// [`is_credit`] without a branch: bit 63 of the result is set iff `x`
/// is not a credit. That is the sign bit, or an all-ones exponent, which
/// carries into bit 63 when one is added to its lowest bit.
#[inline]
fn credit_fault(x: f64) -> u64 {
    const EXPONENT: u64 = 0x7FF0_0000_0000_0000;
    let b = x.to_bits();
    b | ((b & EXPONENT) + (1 << 52))
}

/// Checks every value with one OR-reduction of [`credit_fault`], and
/// searches for the first bad value only when the reduction flags one.
fn check_credits(what: &str, values: &[f64]) -> Result<(), String> {
    if values.iter().fold(0, |acc, &x| acc | credit_fault(x)) >> 63 == 0 {
        return Ok(());
    }
    match values.iter().find(|&&x| !is_credit(x)) {
        Some(x) => Err(format!("{what} {x} is not finite and non-negative")),
        None => Ok(()),
    }
}

/// Offset-array sanity: starts at 0, ends at `last`, monotone.
fn check_offsets(name: &str, offs: &[u32], len: usize, last: usize) -> Result<(), String> {
    if offs[0] != 0 {
        return Err(format!("{name}: first offset {} != 0", offs[0]));
    }
    if offs[len] as usize != last {
        return Err(format!("{name}: final offset {} != {last}", offs[len]));
    }
    if offs.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{name}: offsets not monotone"));
    }
    Ok(())
}

/// One side of a pair for the mirror check: `v·0x9E37_79B9 ^ 0x85EB_CA6B`
/// in 32 bits, a bijection of `u32` (the multiplier is odd).
#[inline]
fn mix_side(v: u32) -> u32 {
    v.wrapping_mul(0x9E37_79B9) ^ 0x85EB_CA6B
}

/// The mirror check's hash of the pair `(v, u)`, given `x = u ^ mix_side(v)`:
/// `x²` as a full 32×32→64 product. For a fixed `v` (or `u`) the map to
/// `x` is a bijection and `x ↦ x²` does not wrap, so changing either id
/// of one pair always changes the hash.
#[inline]
fn pair_hash(x: u32) -> u64 {
    u64::from(x) * u64::from(x)
}

/// Fused structural sweep of one CSR direction group (`OUT`: rows are
/// influencers, ids their targets; otherwise rows are targets, ids their
/// sources): offset arrays, then per action its rows strictly ascending
/// and in range, and each row non-empty, strictly ascending, in range and
/// free of its own user. Strict ascent reduces each range check to the
/// last id. The flags of an action are ORed with no early return, and the
/// action's [`pair_hash`] sum is added to `sums[a]` (`OUT`) or subtracted
/// from it; only a flagged action is re-walked by [`locate_row_fault`].
#[allow(clippy::too_many_arguments)]
fn validate_direction<const OUT: bool>(
    name: &str,
    c: &CompactCounts,
    act_rows: &[u32],
    row_user: &[u32],
    row_offsets: &[u32],
    ids: &[u32],
    rows: usize,
    sums: &mut [u64],
) -> Result<(), String> {
    check_offsets(&format!("{name}_act_rows"), act_rows, c.num_actions, rows)?;
    check_offsets(&format!("{name}_row_offsets"), row_offsets, rows, c.entries)?;
    let num_users = c.num_users as u64;
    for (a, sum_a) in sums.iter_mut().enumerate() {
        let row_range = act_rows[a] as usize..act_rows[a + 1] as usize;
        let mut bad = false;
        let mut sum = 0u64;
        // The least id the next row's user may take.
        let mut next_owner = 0u64;
        for row in row_range.clone() {
            let owner = row_user[row];
            bad |= u64::from(owner) < next_owner;
            next_owner = u64::from(owner) + 1;
            let span = &ids[row_offsets[row] as usize..row_offsets[row + 1] as usize];
            // An empty row reads as one whose last id is out of range.
            let last = span.last().map_or(u64::MAX, |&id| u64::from(id));
            let mut row_bad = last >= num_users;
            for (&p, &q) in span.iter().zip(span.iter().skip(1)) {
                row_bad |= q <= p;
            }
            let side = mix_side(owner);
            for &id in span {
                row_bad |= id == owner;
                let x = if OUT { id ^ side } else { owner ^ mix_side(id) };
                sum = sum.wrapping_add(pair_hash(x));
            }
            bad |= row_bad;
        }
        bad |= next_owner > num_users;
        if bad {
            if let Some(fault) = locate_row_fault(name, c, row_range, row_user, row_offsets, ids, a)
            {
                return Err(fault);
            }
        }
        *sum_a = if OUT { sum_a.wrapping_add(sum) } else { sum_a.wrapping_sub(sum) };
    }
    Ok(())
}

/// The first fault of action `a`'s rows in one direction, as the message
/// a load reports; `None` if the rows are well-formed.
fn locate_row_fault(
    name: &str,
    c: &CompactCounts,
    row_range: Range<usize>,
    row_user: &[u32],
    row_offsets: &[u32],
    ids: &[u32],
    a: usize,
) -> Option<String> {
    let users = &row_user[row_range.clone()];
    if users.windows(2).any(|w| w[0] >= w[1]) {
        return Some(format!("{name} rows of action {a} not strictly sorted"));
    }
    if let Some(&v) = users.iter().find(|&&v| v as usize >= c.num_users) {
        return Some(format!("{name} row user {v} out of range"));
    }
    for row in row_range {
        let owner = row_user[row];
        let span = &ids[row_offsets[row] as usize..row_offsets[row + 1] as usize];
        if span.is_empty() {
            return Some(format!("{name} row {row} is empty"));
        }
        if let Some(&id) = span.iter().find(|&&id| id as usize >= c.num_users || id == owner) {
            return Some(format!("{name} row {row}: invalid counterparty {id}"));
        }
        if span.windows(2).any(|w| w[0] >= w[1]) {
            return Some(format!("{name} row {row} entries not strictly sorted"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{arena, CompactSelector};
    use cdim_util::AlignedBuf;
    use std::sync::Arc;

    /// One action's rows of a CSR direction group, as `(row user, ids)`.
    type GroupRows<'a> = &'a [(u32, &'a [u32])];

    /// One CSR direction group of `num_users` users, validated as the out
    /// and as the inc direction; the sums they leave are not checked here.
    fn validate_group(num_users: usize, actions: &[GroupRows<'_>]) -> [Result<(), String>; 2] {
        let (mut act_rows, mut row_user, mut row_offsets, mut ids) =
            (vec![0u32], Vec::new(), vec![0u32], Vec::new());
        for rows in actions {
            for &(owner, span) in rows.iter() {
                row_user.push(owner);
                ids.extend_from_slice(span);
                row_offsets.push(ids.len() as u32);
            }
            act_rows.push(row_user.len() as u32);
        }
        let c = CompactCounts {
            num_users,
            num_actions: actions.len(),
            entries: ids.len(),
            ..CompactCounts::default()
        };
        let rows = row_user.len();
        let mut sums = vec![0; actions.len()];
        [
            validate_direction::<true>(
                "out",
                &c,
                &act_rows,
                &row_user,
                &row_offsets,
                &ids,
                rows,
                &mut sums,
            ),
            validate_direction::<false>(
                "inc",
                &c,
                &act_rows,
                &row_user,
                &row_offsets,
                &ids,
                rows,
                &mut sums,
            ),
        ]
    }

    #[test]
    fn each_row_fault_is_reported_by_its_own_check() {
        let ok: GroupRows<'_> = &[(0, &[1, 2]), (2, &[3])];
        assert_eq!(validate_group(4, &[ok, &[(1, &[0, 3])]]), [Ok(()), Ok(())]);
        // Each case breaks one rule in the second action, after a valid
        // first one; the message names the rule.
        let cases: [(GroupRows<'_>, &str); 9] = [
            (&[(2, &[3]), (0, &[1])], "rows of action 1 not strictly sorted"),
            (&[(0, &[1]), (0, &[2])], "rows of action 1 not strictly sorted"),
            (&[(0, &[1]), (4, &[1])], "row user 4 out of range"),
            (&[(0, &[1]), (1, &[])], "row 3 is empty"),
            (&[(0, &[1, 4])], "row 2: invalid counterparty 4"),
            (&[(1, &[0, 1])], "row 2: invalid counterparty 1"),
            (&[(3, &[2, 1])], "row 2 entries not strictly sorted"),
            (&[(3, &[1, 1])], "row 2 entries not strictly sorted"),
            (&[(0, &[1, 2]), (3, &[0, 1, 2, 2])], "row 3 entries not strictly sorted"),
        ];
        for (rows, want) in cases {
            for (name, got) in ["out", "inc"].into_iter().zip(validate_group(4, &[ok, rows])) {
                assert_eq!(got, Err(format!("{name} {want}")), "{rows:?}");
            }
        }
        // The offset arrays: first offset, final offset, monotone.
        assert!(check_offsets("x", &[1, 2, 3], 2, 3).is_err());
        assert!(check_offsets("x", &[0, 2, 2], 2, 3).is_err());
        assert!(check_offsets("x", &[0, 2, 1, 3], 3, 3).is_err());
        assert!(check_offsets("x", &[0, 0, 1, 3], 3, 3).is_ok());
    }

    #[test]
    fn credit_fault_is_is_credit_on_edge_bit_patterns() {
        let quiet = f64::from_bits(0x7FF8_0000_0000_0000);
        let signalling = f64::from_bits(0x7FF0_0000_0000_0001);
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            quiet,
            -quiet,
            signalling,
            -signalling,
            f64::from_bits(u64::MAX),
            1.0,
        ];
        for x in edges {
            assert_eq!(credit_fault(x) >> 63 == 0, is_credit(x), "{:#018x}", x.to_bits());
            assert_eq!(check_credits("credit", &[0.5, x, 0.25]).is_ok(), is_credit(x));
        }
    }

    /// An arena of `num_users` users with no actions and `seeds`.
    fn seeded_arena(num_users: usize, seeds: &[u32]) -> Result<CompactSelector, String> {
        let data =
            arena(0.0, &vec![0; num_users + 1], &[], &vec![0.0; num_users], vec![], &[], seeds)
                .unwrap();
        let buf = Arc::new(AlignedBuf::from_bytes(data.arena()));
        CompactSelector::from_arena(buf, 0, data.counts, 0.0)
    }

    #[test]
    fn a_million_seeds_validate_in_linear_time() {
        const N: u32 = 1_000_000;
        let mut seeds: Vec<u32> = (0..N).rev().collect();
        let start = std::time::Instant::now();
        assert!(seeded_arena(N as usize, &seeds).is_ok());
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(2), "{N} seeds took {took:?}");

        *seeds.last_mut().unwrap() = seeds[0];
        assert_eq!(
            seeded_arena(N as usize, &seeds).err(),
            Some(format!("duplicate seed {}", seeds[0]))
        );
        assert_eq!(seeded_arena(4, &[1, 4]).err(), Some("seed 4 out of range".to_string()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The branch-free credit check is [`is_credit`] on any bit
        /// pattern. Half the cases force an all-ones exponent (±∞ and the
        /// NaNs), which uniform bits would almost never reach.
        #[test]
        fn credit_fault_is_is_credit(bits in 0u64..u64::MAX, special in proptest::bool::ANY) {
            let x = f64::from_bits(if special { bits | 0x7FF0_0000_0000_0000 } else { bits });
            prop_assert_eq!(credit_fault(x) >> 63 == 0, is_credit(x));
        }
    }
}
