//! Action-log statistics — the propagation half of Table 1.

use crate::log::ActionLog;

/// Summary statistics of an action log.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogStats {
    /// Number of propagation traces (#propagations in Table 1).
    pub propagations: usize,
    /// Number of tuples (#tuples in Table 1).
    pub tuples: usize,
    /// Mean propagation size.
    pub avg_size: f64,
    /// Largest propagation size.
    pub max_size: usize,
    /// Number of distinct users appearing in the log.
    pub active_users: usize,
    /// Mean number of actions per active user.
    pub avg_actions_per_active_user: f64,
}

/// Computes [`LogStats`] for `log`.
pub fn log_stats(log: &ActionLog) -> LogStats {
    let propagations = log.num_actions();
    let tuples = log.num_tuples();
    let max_size = log.actions().map(|a| log.action_size(a)).max().unwrap_or(0);
    let active_users = log.actions_per_user().iter().filter(|&&c| c > 0).count();
    LogStats {
        propagations,
        tuples,
        avg_size: if propagations == 0 { 0.0 } else { tuples as f64 / propagations as f64 },
        max_size,
        active_users,
        avg_actions_per_active_user: if active_users == 0 {
            0.0
        } else {
            tuples as f64 / active_users as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::ActionLogBuilder;

    fn log() -> ActionLog {
        let mut b = ActionLogBuilder::new(6);
        for (u, a, t) in
            [(0, 0, 1.0), (1, 0, 2.0), (2, 0, 3.0), (3, 1, 1.0), (0, 1, 2.0), (5, 2, 1.0)]
        {
            b.push(u, a, t);
        }
        b.build()
    }

    #[test]
    fn stats_fields() {
        let s = log_stats(&log());
        assert_eq!(s.propagations, 3);
        assert_eq!(s.tuples, 6);
        assert!((s.avg_size - 2.0).abs() < 1e-12);
        assert_eq!(s.max_size, 3);
        assert_eq!(s.active_users, 5); // user 4 never acts
        assert!((s.avg_actions_per_active_user - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_log_stats() {
        let s = log_stats(&ActionLogBuilder::new(3).build());
        assert_eq!(s.propagations, 0);
        assert_eq!(s.avg_size, 0.0);
        assert_eq!(s.max_size, 0);
    }
}
