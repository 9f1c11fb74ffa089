//! Experiment runner: prints the tables of DESIGN.md §3.
//!
//! Usage:
//! ```text
//! experiments all            # run the full suite
//! experiments e2 e4          # run selected experiments
//! experiments --csv e2       # additionally emit CSV
//! experiments --list         # list experiment ids
//! ```

#![forbid(unsafe_code)]

use ufp_bench::{run_experiment, ALL_IDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();

    if args.iter().any(|a| a == "--list") {
        for id in ALL_IDS {
            println!("{id}");
        }
        return;
    }
    let selected: Vec<String> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };

    for id in &selected {
        match run_experiment(id) {
            Some(table) => {
                println!("{}", table.render());
                if csv {
                    println!("--- csv ---\n{}", table.to_csv());
                }
            }
            None => {
                eprintln!("unknown experiment id: {id} (try --list)");
                std::process::exit(2);
            }
        }
    }
}
