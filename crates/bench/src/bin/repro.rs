//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p hesgx-bench --bin repro             # everything
//! cargo run --release -p hesgx-bench --bin repro -- table1   # one experiment
//! cargo run --release -p hesgx-bench --bin repro -- --quick  # reduced reps
//! ```

use hesgx_bench::experiments::{
    ablation, chaos_sweep, e2e, figures, profile, serve_load, tables, trace, RunConfig,
};
use hesgx_bench::PaperEnv;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "model",
    "fig8",
    "ablation",
    "chaos_sweep",
    "trace",
    "serve_load",
    "profile",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.as_str())
        .collect();
    let run_all = selected.is_empty();
    let wanted = |name: &str| run_all || selected.contains(&name);

    for name in &selected {
        if !EXPERIMENTS.contains(name) {
            eprintln!("unknown experiment '{name}'; known: {EXPERIMENTS:?}");
            std::process::exit(2);
        }
    }

    let cfg = RunConfig { quick };
    println!(
        "hesgx paper reproduction — ICDCS 2021 'Privacy-Preserving Neural Network Inference Framework via Homomorphic Encryption and SGX'"
    );
    println!(
        "mode: {} | FV n = {} | batchSize = {}",
        if quick { "quick" } else { "full" },
        hesgx_bench::PAPER_POLY_DEGREE,
        hesgx_bench::PAPER_BATCH_SIZE
    );

    let needs_env = [
        "table1", "table2", "table3", "table4", "table5", "fig3", "fig4", "fig5", "fig6",
        "ablation",
    ]
    .iter()
    .any(|e| wanted(e));
    let mut env = needs_env.then(|| PaperEnv::new(2021));

    if let Some(env) = env.as_mut() {
        // Each experiment's obs snapshot is cut (and the recorder reset) right
        // after it runs, so `target/obs/<name>.json` holds that experiment's
        // spans and counters alone.
        let snapshot = |name: &str, env: &PaperEnv| {
            if let Some(path) = hesgx_bench::write_obs_snapshot(name, &env.obs) {
                println!("obs snapshot written to {}", path.display());
            }
            env.obs.reset();
        };
        if wanted("table1") {
            tables::table1_keygen(env, cfg);
            snapshot("table1", env);
        }
        if wanted("table2") {
            tables::table2_image_encryption(env, cfg);
            snapshot("table2", env);
        }
        if wanted("table3") {
            tables::table3_result_decryption(env, cfg);
            snapshot("table3", env);
        }
        if wanted("table4") {
            tables::table4_enc_dec_costs(env, cfg);
            snapshot("table4", env);
        }
        if wanted("table5") {
            tables::table5_relinearization(env, cfg);
            snapshot("table5", env);
        }
        if wanted("fig3") {
            figures::fig3_weight_encoding(env, cfg);
            snapshot("fig3", env);
        }
        if wanted("fig4") {
            figures::fig4_conv_kernel(env, cfg);
            snapshot("fig4", env);
        }
        if wanted("fig5") {
            figures::fig5_sigmoid(env, cfg);
            snapshot("fig5", env);
        }
        if wanted("fig6") {
            figures::fig6_pooling(env, cfg);
            snapshot("fig6", env);
        }
        if wanted("ablation") {
            ablation::run_all(env, cfg);
            snapshot("ablation", env);
        }
    }
    if wanted("model") {
        e2e::print_model_table();
    }
    if wanted("fig8") {
        e2e::fig8_end_to_end(cfg);
    }
    if wanted("chaos_sweep") {
        chaos_sweep::chaos_sweep(cfg);
    }
    if wanted("trace") {
        trace::trace(cfg);
    }
    if wanted("serve_load") {
        serve_load::serve_load(cfg);
    }
    if wanted("profile") {
        profile::profile(cfg);
    }
    println!();
    println!("done.");
}
