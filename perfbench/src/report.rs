//! Metric names, the run's metadata line, and the result line.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, printed by every untraced run. `BENCHMARK.json`
/// lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("windows_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never reaches reads 0. `BENCHMARK.json` lists the same names and units.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Codec, replayed serially over the sequential request stream.
    ("client.encode_us", "us"),
    ("client.encode_us.len8", "us"),
    ("client.encode_us.len32", "us"),
    ("client.encode_us.len128", "us"),
    ("protocol.decode_request_us", "us"),
    ("protocol.decode_request_us.len8", "us"),
    ("protocol.decode_request_us.len32", "us"),
    ("protocol.decode_request_us.len128", "us"),
    ("protocol.encode_reply_us", "us"),
    ("protocol.encode_reply_us.len8", "us"),
    ("protocol.encode_reply_us.len32", "us"),
    ("protocol.encode_reply_us.len128", "us"),
    ("client.decode_reply_us", "us"),
    ("client.decode_reply_us.len8", "us"),
    ("client.decode_reply_us.len32", "us"),
    ("client.decode_reply_us.len128", "us"),
    // Admission-side work on the event loop.
    ("exec.decompose_us", "us"),
    ("datasets.resolve_us", "us"),
    ("routing.route_us", "us"),
    ("routing.selected.digital_exact", "count"),
    ("routing.selected.digital_pruned", "count"),
    ("routing.selected.analog", "count"),
    ("routing.selected.acam", "count"),
    ("routing.selected.spice", "count"),
    // Kernel work per request, and per item on each backend.
    ("kernel.execute_us", "us"),
    ("kernel.execute_us.digital_exact", "us"),
    ("kernel.execute_us.analog", "us"),
    ("kernel.execute_us.acam", "us"),
    // The sequential round trip and what the replayed layers leave over.
    ("event_loop.sequential_rtt_us", "us"),
    ("event_loop.residual_us", "us"),
    // Scraped from the server's /metrics.
    ("server.latency_us_mean", "us"),
    ("queue.wait_us_mean", "us"),
    ("queue.batch_occupancy", "items"),
    ("event_loop.pipeline_depth_mean", "requests"),
    ("queue.shed", "count"),
    ("server.stream_push_us_mean", "us"),
    // Subsequence search cascade.
    ("search.windows", "count"),
    ("search.pruned_kim", "count"),
    ("search.pruned_keogh", "count"),
    ("search.abandoned", "count"),
    ("search.full_dp", "count"),
    ("search.prune_rate", "ratio"),
    ("znorm.window_us", "us"),
    ("lower_bounds.kim_us", "us"),
    ("lower_bounds.keogh_us", "us"),
    ("lower_bounds.cascade_us", "us"),
    ("dtw.full_us", "us"),
    ("batch.speedup_2t", "ratio"),
    // Streaming.
    ("streaming.push_us", "us"),
    ("streams.registry_push_us", "us"),
    // Traced pass minus untraced pass, same process.
    ("trace_overhead.throughput_rps", "1/s"),
    ("trace_overhead.latency_p50_us", "us"),
    ("trace_overhead.latency_p99_us", "us"),
    ("trace_overhead.windows_per_s", "1/s"),
    ("trace_overhead.points_per_s", "1/s"),
];

/// The end-to-end numbers a timed pass produces (all but set-up and
/// memory, which are per process).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassNumbers {
    pub throughput_rps: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub windows_per_s: f64,
    pub points_per_s: f64,
}

impl PassNumbers {
    fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("throughput_rps", self.throughput_rps),
            ("latency_p50_us", self.latency_p50_us),
            ("latency_p99_us", self.latency_p99_us),
            ("windows_per_s", self.windows_per_s),
            ("points_per_s", self.points_per_s),
        ]
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations that failed or answered wrong.
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.metrics.insert(declared, value);
    }

    /// Records the untraced pass's end-to-end numbers.
    pub fn set_pass(&mut self, pass: &PassNumbers) {
        for (name, v) in pass.named() {
            self.set(name, v);
        }
    }

    /// Records the traced pass's numbers minus the untraced pass's.
    pub fn set_overhead(&mut self, untraced: &PassNumbers, traced: &PassNumbers) {
        for ((name, u), (_, t)) in untraced.named().into_iter().zip(traced.named()) {
            self.set(&format!("trace_overhead.{name}"), t - u);
        }
    }

    /// Counts one checked operation, failed or not.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: every end-to-end metric untraced, every per-layer
    /// metric traced (0 for layers this workload never reached).
    pub fn result_line(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The run's context, printed on the line before the result so a run can
/// be compared with runs of other commits and hosts.
pub fn meta_line(workload: &str, seed: u64, seconds: u64, trace: bool, report: &Report) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"meta\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"mode\": \"{}\", \"host_cores\": {cores}, \"commit\": \"{}\", \
         \"source_fnv64\": \"{:016x}\", \"failed_share\": {:?}}}}}",
        if trace { "traced" } else { "untraced" },
        git_commit(Path::new(".")),
        source_hash(Path::new(".")),
        report.failed as f64 / report.attempted.max(1) as f64,
    )
}

/// Peak resident set size of this process, MiB: the kernel's high-water
/// mark for this address space. (`getrusage`'s `ru_maxrss` would not do:
/// it survives `exec`, so under `cargo run` it reports cargo's own peak.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kib / 1024.0
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `unknown` when the tree is not a repository (the benchmark is often run
/// from an exported tree, which [`source_hash`] still identifies).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (paths and bytes, in sorted order):
/// identifies the code under test even where no git metadata exists.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_benchmark_json() {
        let json = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json beside the benchmark directory");
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json declares metrics the benchmark does not print"
        );
    }

    #[test]
    fn traced_line_fills_unreached_layers_with_zero() {
        let mut r = Report::default();
        r.set("search.windows", 10.0);
        r.check(true);
        let line = r.result_line(true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"search.windows\": {\"value\": 10.0, \"unit\": \"count\"}"));
        assert!(line.contains("\"queue.shed\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn overhead_is_traced_minus_untraced() {
        let mut r = Report::default();
        let u = PassNumbers {
            throughput_rps: 100.0,
            latency_p50_us: 50.0,
            ..PassNumbers::default()
        };
        let t = PassNumbers {
            throughput_rps: 90.0,
            latency_p50_us: 55.0,
            ..PassNumbers::default()
        };
        r.set_overhead(&u, &t);
        let line = r.result_line(true);
        assert!(line.contains("\"trace_overhead.throughput_rps\": {\"value\": -10.0"));
        assert!(line.contains("\"trace_overhead.latency_p50_us\": {\"value\": 5.0"));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true);
        r.check(false);
        assert!(r
            .result_line(true)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
