//! Host fingerprint and hardware ceilings.
//!
//! Absolute numbers from different hosts or sessions are not comparable,
//! so every output carries the facts needed to tell whether two runs may
//! be compared: CPU count and model, L2/L3 sizes, the measured memory
//! bandwidth and PRNG throughput, the compiler, the build profile, and
//! the commit under test.

use plurality_sampling::Xoshiro256PlusPlus;
use plurality_telemetry::json::escape;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Size of one cache level in bytes, from sysfs (`None` if unknown).
fn cache_bytes(level: u32) -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |f: &str| std::fs::read_to_string(path.join(f)).ok();
        let (Some(lvl), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if lvl.trim() != level.to_string() || kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let (digits, mult) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        return digits.parse::<u64>().ok().map(|v| v * mult);
    }
    None
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Usable CPUs.
#[must_use]
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Peak resident set size of this process (VmHWM), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes per triad array: at least 4× the last-level cache (64 MiB floor
/// when sysfs reports none), so every pass streams from DRAM.
#[must_use]
pub fn triad_array_bytes() -> u64 {
    (4 * cache_bytes(3)
        .or_else(|| cache_bytes(2))
        .unwrap_or(16 << 20))
    .max(64 << 20)
}

/// STREAM triad `a = b + s·c` over three `f64` arrays of `bytes` each,
/// split over `threads` threads; best of `passes` passes, in GB/s
/// counting 24 bytes per element (two reads and one write).
#[must_use]
pub fn triad_gbps(bytes: u64, threads: usize, passes: usize) -> f64 {
    let len = usize::try_from(bytes / 8).expect("triad array fits in memory");
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for pass in 0..passes {
        let s = 3.0 + pass as f64;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&a);
    }
    (24 * len) as f64 / best / 1e9
}

/// Nanoseconds per raw `Xoshiro256PlusPlus::next_u64` draw (median of
/// five batches of 2^22 draws).
#[must_use]
pub fn xoshiro_ns(seed: u64) -> f64 {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let draws = 1u64 << 22;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for _ in 0..draws {
                acc ^= rng.next_u64();
            }
            black_box(acc);
            t0.elapsed().as_nanos() as f64 / draws as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// The two measured ceilings, taken in a child process so that the triad
/// arrays never count towards the workload's peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Stream-triad bandwidth over all CPUs, GB/s.
    pub triad_gbps: f64,
    /// Bytes per triad array.
    pub triad_array_bytes: u64,
    /// Nanoseconds per raw xoshiro draw.
    pub xoshiro_ns: f64,
}

/// Entry point of the `--host-probe` child: print the ceilings as one
/// line of `key=value` pairs.
pub fn probe_main(seed: u64) {
    let bytes = triad_array_bytes();
    let gbps = triad_gbps(bytes, cpus(), 3);
    let ns = xoshiro_ns(seed);
    println!("triad_gbps={gbps} triad_array_bytes={bytes} xoshiro_ns={ns}");
}

/// Run the host probe in a child process (this same executable) and wait
/// for it.
pub fn measure_ceilings(seed: u64) -> Result<Ceilings, String> {
    let exe = std::env::current_exe().map_err(|e| format!("host probe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--host-probe", "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("host probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("host probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> Result<f64, String> {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("host probe: missing {key} in {text:?}"))
    };
    Ok(Ceilings {
        triad_gbps: field("triad_gbps")?,
        triad_array_bytes: field("triad_array_bytes")? as u64,
        xoshiro_ns: field("xoshiro_ns")?,
    })
}

/// The fingerprint line printed before every result.
#[must_use]
pub fn fingerprint_line(ceilings: &Ceilings) -> String {
    let mib = |b: Option<u64>| b.map_or_else(|| "null".to_string(), |b| (b >> 20).to_string());
    let kib = |b: Option<u64>| b.map_or_else(|| "null".to_string(), |b| (b >> 10).to_string());
    format!(
        "{{\"host\":{{\"cpus\":{},\"cpu_model\":{},\"l2_kib\":{},\"l3_kib\":{},\
         \"triad_gbps\":{},\"triad_array_mib\":{},\"triad_arrays\":3,\"xoshiro_ns\":{},\
         \"rustc\":{},\"profile\":{},\"commit\":{}}}}}",
        cpus(),
        escape(&cpu_model()),
        kib(cache_bytes(2)),
        kib(cache_bytes(3)),
        ceilings.triad_gbps,
        mib(Some(ceilings.triad_array_bytes)),
        ceilings.xoshiro_ns,
        escape(env!("PERFBENCH_RUSTC")),
        escape(env!("PERFBENCH_PROFILE")),
        escape(env!("PERFBENCH_COMMIT")),
    )
}
