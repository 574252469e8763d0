//! Small shared helpers: the seeded input generator, quantiles, the
//! metric map every workload fills, and the host block.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator. Every workload
/// input is drawn from one of these, seeded from `--seed`, so the same
/// seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// The generator for one named input stream of a seed, independent
    /// of how much any other stream draws.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Nearest-rank quantile of unsorted samples (`0.0` when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Metric values by name, as one workload run measured them.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Outcome counters of one benchmark run: every operation attempted,
/// and every one that failed, was refused or returned a wrong result.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` carries why it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The host block printed with every result: results are comparable
/// only between runs with the same block.
pub fn host_json(seed: u64) -> String {
    use speculative_prefetch::wire::esc;
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"available_parallelism\":{threads},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\
         \"git_sha\":\"{}\",\"seed\":{seed}}}",
        esc(&cpu),
        esc(env!("E2EBENCH_RUSTC_VERSION")),
        esc(&git_sha()),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `none` outside a git checkout.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|sha| sha.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Time, in microseconds, that one reference kernel takes on the
/// reference host. End-to-end times are reported in reference-host
/// units: a raw time scaled by this over the kernel time measured in
/// the same run.
pub const REF_KERNEL_US: f64 = 100.0;

/// The host's current speed, sampled between operations as the time
/// of a fixed reference kernel (sorting 4096 generated integers). On a
/// shared 2-core Xeon VM the speed shifted by up to 1.6x within minutes
/// while steal time stayed near zero; scaling by a kernel timed in the
/// same run keeps those shifts out of the end-to-end figures.
///
/// A sample counts only if no other thread of the process used CPU
/// while the kernel ran, so the program under test (an idle daemon,
/// say) cannot slow the kernel down and pass that off as a slow host.
#[derive(Default)]
pub struct RefClock {
    /// Every kernel time kept in the run, microseconds.
    kernel_us: Vec<f64>,
    /// Samples dropped because another thread ran during them.
    pub dropped: u64,
    /// Wall time spent in the kernel, to leave out of timed windows.
    pub spent_s: f64,
}

/// Share of a sample's wall time that other threads may spend on CPU
/// before it is dropped. Reading the two CPU clocks alone shows up to
/// about 10 µs over a sample of at least 150 µs; a thread that spins
/// while idle shows the whole sample.
const OTHER_CPU_SHARE: f64 = 0.1;

impl RefClock {
    /// Times `kernels` runs of the reference kernel; drops the sample
    /// if another thread ran meanwhile.
    pub fn sample(&mut self, kernels: u64) {
        let (process0, thread0) = (
            cpu_s(CLOCK_PROCESS_CPUTIME_ID),
            cpu_s(CLOCK_THREAD_CPUTIME_ID),
        );
        let t = Instant::now();
        let mut acc = 0u64;
        for k in 0..kernels {
            acc ^= std::hint::black_box(reference_kernel(k));
        }
        std::hint::black_box(acc);
        let s = t.elapsed().as_secs_f64();
        let other = (cpu_s(CLOCK_PROCESS_CPUTIME_ID) - process0)
            - (cpu_s(CLOCK_THREAD_CPUTIME_ID) - thread0);
        self.spent_s += s;
        if other > OTHER_CPU_SHARE * s {
            self.dropped += 1;
        } else {
            self.kernel_us.push(s * 1e6 / kernels as f64);
        }
    }

    /// Median kernel time over the run, microseconds; with no sample
    /// kept, `REF_KERNEL_US`, so the figures stay in host units.
    pub fn kernel_us(&self) -> f64 {
        if self.kernel_us.is_empty() {
            REF_KERNEL_US
        } else {
            median(&self.kernel_us)
        }
    }

    /// Multiplier from host time to reference-host time.
    pub fn scale(&self) -> f64 {
        REF_KERNEL_US / self.kernel_us()
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of this process or of the calling thread, seconds.
fn cpu_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // 64-bit Linux) and the clock ids are the Linux constants.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

fn reference_kernel(seed: u64) -> u64 {
    let mut rng = Rng::stream(seed, 0);
    let mut v: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    v.sort_unstable();
    v.iter().enumerate().fold(0, |h, (i, &e)| {
        if e & 1 == 0 {
            h.wrapping_add(e ^ i as u64)
        } else {
            h.rotate_left(5) ^ e
        }
    })
}
