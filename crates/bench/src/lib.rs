//! Criterion benchmark crate (benchmarks live in benches/), plus the
//! host block the snapshot benches stamp into their `BENCH_*.json`.

use speculative_prefetch::wire::esc;
use std::process::Command;

/// The host a snapshot was measured on, as a JSON object: worker
/// threads, CPU model, compiler and commit (`-dirty` when the tree had
/// uncommitted changes). Snapshots compare only with snapshots that
/// carry the same block.
pub fn host_json() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let stdout = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let sha = stdout("git", &["describe", "--always", "--dirty", "--abbrev=40"]);
    format!(
        "{{\"available_parallelism\":{threads},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\
         \"git_sha\":\"{}\"}}",
        esc(&cpu),
        esc(&stdout("rustc", &["-V"])),
        esc(&sha),
    )
}
