//! Scaling knobs shared by all experiments.

use cdim_util::Parallelism;

/// How hard to push each experiment.
///
/// `full` runs the `cdim-datagen` presets at their own sizes; `quick`
/// shrinks everything for smoke runs (used by `cargo test` integration
/// tests and CI).
#[derive(Clone, Copy, Debug)]
pub struct ExperimentScale {
    /// Divide preset node/action counts by this factor.
    pub dataset_divisor: usize,
    /// Monte-Carlo simulations per spread estimate (paper: 10,000).
    pub mc_simulations: usize,
    /// Seed-set size for selection experiments (paper: 50).
    pub k: usize,
    /// Number of test propagations to evaluate in prediction experiments
    /// (0 = all).
    pub max_test_traces: usize,
    /// Worker threads for every parallel stage — the credit scan and
    /// Monte-Carlo estimation (0 = available parallelism).
    pub threads: usize,
}

impl ExperimentScale {
    /// The default evaluation scale (minutes per experiment).
    pub fn full() -> Self {
        ExperimentScale {
            dataset_divisor: 1,
            mc_simulations: 300,
            k: 50,
            max_test_traces: 400,
            threads: 0,
        }
    }

    /// Smoke-test scale (seconds per experiment).
    pub fn quick() -> Self {
        ExperimentScale {
            dataset_divisor: 8,
            mc_simulations: 60,
            k: 10,
            max_test_traces: 60,
            threads: 0,
        }
    }

    /// Parses the runner's flags. `--quick` picks the base scale wherever
    /// it appears; every other flag then overrides one knob of it, so
    /// `--k 5 --quick` and `--quick --k 5` agree. An unknown flag, a
    /// missing or non-integer value, or a zero `--scale` divisor is an
    /// error naming the flag.
    pub fn from_flags(args: &[String]) -> Result<Self, String> {
        let mut quick = false;
        let mut overrides = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--quick" => quick = true,
                "--k" | "--sims" | "--scale" | "--traces" | "--threads" => {
                    let value: usize = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| format!("{flag} requires an integer argument"))?;
                    overrides.push((flag.as_str(), value));
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let mut scale = if quick { Self::quick() } else { Self::full() };
        for (flag, value) in overrides {
            match flag {
                "--k" => scale.k = value,
                "--sims" => scale.mc_simulations = value,
                "--scale" => scale.dataset_divisor = value,
                "--traces" => scale.max_test_traces = value,
                _ => scale.threads = value,
            }
        }
        if scale.dataset_divisor == 0 {
            return Err("--scale must be at least 1".to_string());
        }
        Ok(scale)
    }

    /// The worker-pool view of [`Self::threads`], handed to the credit
    /// scan and the MC estimator alike.
    pub fn parallelism(&self) -> Parallelism {
        Parallelism::fixed(self.threads)
    }

    /// Describes the scale in the experiment output.
    pub fn describe(&self) -> String {
        format!(
            "scale: dataset 1/{}, {} MC sims (paper: 10k), k = {}, ≤{} test traces, {} worker threads",
            self.dataset_divisor,
            self.mc_simulations,
            self.k,
            self.max_test_traces,
            self.parallelism()
        )
    }
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = ExperimentScale::quick();
        let f = ExperimentScale::full();
        assert!(q.dataset_divisor > f.dataset_divisor);
        assert!(q.mc_simulations < f.mc_simulations);
        assert!(q.k < f.k);
    }

    fn flags(args: &[&str]) -> Result<ExperimentScale, String> {
        ExperimentScale::from_flags(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn overrides_hold_wherever_quick_appears() {
        for args in [["--k", "5", "--quick"], ["--quick", "--k", "5"]] {
            let s = flags(&args).unwrap();
            assert_eq!((s.k, s.dataset_divisor), (5, ExperimentScale::quick().dataset_divisor));
        }
        let s =
            flags(&["--sims", "7", "--scale", "3", "--traces", "9", "--threads", "2", "--quick"])
                .unwrap();
        assert_eq!(
            (s.mc_simulations, s.dataset_divisor, s.max_test_traces, s.threads, s.k),
            (7, 3, 9, 2, ExperimentScale::quick().k)
        );
        assert_eq!(flags(&[]).unwrap().k, ExperimentScale::full().k);
    }

    #[test]
    fn bad_flags_are_errors() {
        assert!(flags(&["--scale", "0"]).unwrap_err().contains("--scale"));
        assert!(flags(&["--quick", "--scale", "0"]).is_err());
        assert!(flags(&["--k"]).unwrap_err().contains("--k requires"));
        assert!(flags(&["--k", "--quick"]).unwrap_err().contains("--k requires"));
        assert!(flags(&["--k", "five"]).is_err());
        assert!(flags(&["--windw", "3"]).unwrap_err().contains("--windw"));
    }

    #[test]
    fn describe_mentions_the_knobs() {
        let d = ExperimentScale::full().describe();
        assert!(d.contains("MC sims"));
        assert!(d.contains("k = 50"));
    }
}
