//! `figures` — regenerate the paper's figures and claims.
//!
//! ```text
//! figures [--out <dir>] [--list] <experiment>...|all
//! ```
//!
//! Experiments: fig1 fig2 fig3 ta tb tc td abl1 abl2 abl3 (see DESIGN.md).
//!
//! Exit status: 0 clean; 2 on usage errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{run_experiment, ALL_EXPERIMENTS};
use tsense_cli::{Flags, Kind, Operands, Switch, Value};

fn main() -> ExitCode {
    let usage = format!(
        "usage: figures [--out <dir>] [--list] <experiment>...|all\nexperiments: {}",
        ALL_EXPERIMENTS.join(" ")
    );
    const FLAGS: &[(&str, Kind)] = &[
        ("--out", Value),
        ("--list", Switch),
        ("EXPERIMENT", Operands),
    ];
    let f = Flags::parse("figures", &usage, FLAGS, std::env::args().skip(1));
    if f.has("--list") {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let out_dir = f.or("--out", PathBuf::from("results"));
    let args = f.operands();
    if args.is_empty() {
        f.fail("no experiment given");
    }
    if let Some(id) = args
        .iter()
        .find(|a| *a != "all" && !ALL_EXPERIMENTS.contains(&a.as_str()))
    {
        f.fail(format!("unknown experiment `{id}`"));
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    let mut full = String::new();
    let save_full = ids.len() == ALL_EXPERIMENTS.len();
    for id in &ids {
        let report = run_experiment(id, &out_dir);
        println!("=== {id} ===");
        println!("{report}");
        if save_full {
            full.push_str(&format!("=== {id} ===\n{report}\n"));
        }
    }
    if save_full {
        bench::write_artifact(&out_dir, "full_report.txt", &full);
        eprintln!(
            "combined report written to {}",
            out_dir.join("full_report.txt").display()
        );
    }
    ExitCode::SUCCESS
}
