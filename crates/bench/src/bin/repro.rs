//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT...] [--keys N] [--queries Q] [--seed S]
//!
//! experiments: fig4 fig5 fig6 fig8 fig10 fig11 table1 naive
//!              appendix-a appendix-e all   (default: all)
//! ```
//!
//! Run release builds for meaningful numbers:
//! `cargo run --release -p li-bench --bin repro -- fig4 --keys 2000000`.

use li_bench::harness::BenchConfig;
use li_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut cfg = BenchConfig {
        keys: resolve_keys(None, 2_000_000),
        queries: 200_000,
        seed: 42,
    };

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--keys" => {
                cfg.keys = it
                    .next()
                    .and_then(|v| v.replace('_', "").parse().ok())
                    .unwrap_or_else(|| die("--keys requires a number"));
            }
            "--queries" => {
                cfg.queries = it
                    .next()
                    .and_then(|v| v.replace('_', "").parse().ok())
                    .unwrap_or_else(|| die("--queries requires a number"));
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed requires a number"));
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with('-') => die(&format!("unknown flag {other}")),
            exp => experiments.push(exp.to_string()),
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "naive",
            "fig4",
            "fig5",
            "fig6",
            "fig8",
            "fig10",
            "fig11",
            "table1",
            "appendix-a",
            "appendix-e",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — run with --release for meaningful timings\n");
    }
    println!(
        "Reproducing 'The Case for Learned Index Structures' (SIGMOD 2018)\nscale: {} keys, {} queries, seed {}\n",
        cfg.keys, cfg.queries, cfg.seed
    );

    for exp in &experiments {
        match exp.as_str() {
            "fig4" => fig4::print(&fig4::run(&cfg), cfg.keys),
            "fig5" => fig5::print(&fig5::run(&cfg), cfg.keys),
            "fig6" => {
                // The paper's string dataset is 10M keys vs 200M integers;
                // keep the same 1/20 ratio.
                let scfg = BenchConfig {
                    keys: (cfg.keys / 20).max(10_000),
                    ..cfg.clone()
                };
                fig6::print(&fig6::run(&scfg), scfg.keys);
            }
            "fig8" => fig8::print(&fig8::run(&cfg), cfg.keys),
            "fig10" => fig10::print(&fig10::run(&cfg), (cfg.keys / 10).clamp(2_000, 50_000)),
            "fig11" => {
                // Hash-map builds store full records; cap for memory.
                let hcfg = BenchConfig {
                    keys: cfg.keys.min(4_000_000),
                    ..cfg.clone()
                };
                fig11::print(&fig11::run(&hcfg), hcfg.keys);
            }
            "table1" => table1::print(&table1::run(&cfg), cfg.keys),
            "naive" => naive::print(&naive::run(&cfg), cfg.keys),
            "appendix-a" => appendix_a::print(&appendix_a::run(&cfg)),
            "appendix-e" => appendix_e::print(&appendix_e::run(&cfg), cfg.keys),
            other => die(&format!("unknown experiment {other}")),
        }
    }
}

fn print_usage() {
    println!(
        "repro [EXPERIMENT...] [--keys N] [--queries Q] [--seed S]\n\
         experiments: fig4 fig5 fig6 fig8 fig10 fig11 table1 naive appendix-a appendix-e all"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    print_usage();
    std::process::exit(2);
}
