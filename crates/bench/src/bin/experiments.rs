//! Regenerates the paper's evaluation tables from the command line.
//!
//! ```text
//! cargo run --release -p jxta-bench --bin experiments -- all
//! cargo run --release -p jxta-bench --bin experiments -- e1        # join overhead
//! cargo run --release -p jxta-bench --bin experiments -- e2        # Figure 2
//! cargo run --release -p jxta-bench --bin experiments -- e3        # federation/sharding relay overhead
//! cargo run --release -p jxta-bench --bin experiments -- e4        # anti-entropy repair vs drop rate, writes BENCH_4.json
//! cargo run --release -p jxta-bench --bin experiments -- e6        # ingest throughput (lanes × workers × cache), writes BENCH_6.json
//! cargo run --release -p jxta-bench --bin experiments -- e7        # delta repair: tree descent vs flat snapshots, writes BENCH_7.json
//! cargo run --release -p jxta-bench --bin experiments -- e8        # epidemic backbone vs full mesh fan-out, writes BENCH_8.json
//! cargo run --release -p jxta-bench --bin experiments -- e9        # SWIM detection latency & false positives vs drop rate, writes BENCH_9.json
//! cargo run --release -p jxta-bench --bin experiments -- fanout    # ablation A3
//! cargo run --release -p jxta-bench --bin experiments -- all --quick --json
//! ```
//!
//! `--quick` uses 512-bit keys and fewer repetitions (useful for CI smoke
//! runs); `--json` additionally prints machine-readable results.

use jxta_bench::{
    experiment_delta_repair, experiment_epidemic_fanout, experiment_federation,
    experiment_group_fanout, experiment_ingest_throughput, experiment_join_overhead,
    experiment_msg_overhead, experiment_repair, experiment_swim_detection,
    format_delta_repair_report, format_epidemic_fanout_report, format_fanout_report,
    format_federation_report, format_ingest_report, format_join_report, format_msg_report,
    format_repair_report, format_swim_detection_report, write_bench_json, ExperimentConfig,
    FIGURE2_PAYLOAD_SIZES,
};

/// Every experiment name (and alias) the CLI accepts.
const EXPERIMENTS: &[&str] = &[
    "e1", "e2", "e3", "federation", "e4", "repair", "e6", "ingest", "e7", "delta", "e8",
    "epidemic", "e9", "swim", "fanout", "all",
];

/// Writes an experiment's machine-readable result and reports where.
fn write_bench(name: &str, result: &impl serde::Serialize) {
    match write_bench_json(name, result) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write {name}: {error}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    if !EXPERIMENTS.contains(&which.as_str()) {
        eprintln!("unknown experiment {which:?}; expected e1, e2, e3, e4, e6, e7, e8, e9, fanout or all");
        std::process::exit(1);
    }

    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };

    println!(
        "JXTA-Overlay security-cost experiments (key size: {} bits, link: {:?}, {} iterations)\n",
        config.key_bits, config.link, config.iterations
    );

    if which == "e1" || which == "all" {
        let result = experiment_join_overhead(&config);
        println!("{}", format_join_report(&result));
        if json {
            println!("{}\n", serde_json::to_string_pretty(&result).unwrap());
        }
    }

    if which == "e2" || which == "all" {
        let sizes: Vec<usize> = if quick {
            vec![256, 16 << 10, 256 << 10]
        } else {
            FIGURE2_PAYLOAD_SIZES.to_vec()
        };
        let rows = experiment_msg_overhead(&config, &sizes);
        println!("{}", format_msg_report(&rows));
        if json {
            println!("{}\n", serde_json::to_string_pretty(&rows).unwrap());
        }
    }

    if which == "e3" || which == "federation" || which == "all" {
        let result = experiment_federation(&config);
        println!("{}", format_federation_report(&result));
        if json {
            println!("{}\n", serde_json::to_string_pretty(&result).unwrap());
        }
    }

    if which == "e4" || which == "repair" || which == "all" {
        let result = experiment_repair(&config);
        println!("{}", format_repair_report(&result.rows));
        write_bench("BENCH_4.json", &result);
        if json {
            println!("{}\n", serde_json::to_string_pretty(&result).unwrap());
        }
    }

    if which == "fanout" || which == "all" {
        let sizes: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 8, 16] };
        let rows = experiment_group_fanout(&config, &sizes);
        println!("{}", format_fanout_report(&rows));
        if json {
            println!("{}\n", serde_json::to_string_pretty(&rows).unwrap());
        }
    }

    if which == "e6" || which == "ingest" || which == "all" {
        let result = experiment_ingest_throughput(&config);
        println!("{}", format_ingest_report(&result));
        write_bench("BENCH_6.json", &result);
        if json {
            println!("{}\n", serde_json::to_string_pretty(&result).unwrap());
        }
    }

    if which == "e7" || which == "delta" || which == "all" {
        let result = experiment_delta_repair(&config);
        println!("{}", format_delta_repair_report(&result));
        write_bench("BENCH_7.json", &result);
        if json {
            println!("{}\n", serde_json::to_string_pretty(&result).unwrap());
        }
    }

    if which == "e8" || which == "epidemic" || which == "all" {
        let result = experiment_epidemic_fanout(&config);
        println!("{}", format_epidemic_fanout_report(&result));
        write_bench("BENCH_8.json", &result);
        if json {
            println!("{}\n", serde_json::to_string_pretty(&result).unwrap());
        }
    }

    if which == "e9" || which == "swim" || which == "all" {
        let result = experiment_swim_detection(&config);
        println!("{}", format_swim_detection_report(&result));
        write_bench("BENCH_9.json", &result);
        if json {
            println!("{}\n", serde_json::to_string_pretty(&result).unwrap());
        }
    }
}
