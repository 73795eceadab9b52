//! Experiment harness CLI.
//!
//! ```text
//! experiments <id> [--quick] [--k N] [--sims N] [--scale N] [--traces N] [--threads N]
//! experiments all
//! experiments list
//! ```

use cdim_bench::experiments;
use cdim_bench::ExperimentScale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }
    let id = args[0].as_str();
    if id == "list" {
        println!("available experiments:");
        for id in experiments::ALL_IDS {
            println!("  {id}");
        }
        return;
    }

    let scale = ExperimentScale::from_flags(&args[1..]).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
        std::process::exit(2);
    });
    if !experiments::run(id, scale) {
        eprintln!("unknown experiment id: {id}");
        usage();
        std::process::exit(2);
    }
}

fn usage() {
    eprintln!(
        "usage: experiments <id>|all|list [--quick] [--k N] [--sims N] [--scale N] [--traces N] \
         [--threads N]"
    );
    eprintln!("ids: {}", experiments::ALL_IDS.join(", "));
}
