//! Validates the synthetic workload models: for every benchmark, compares
//! the generated stream's measured statistics against its profile targets
//! (instruction-class mix, dependency distance, branch density).
//!
//! Usage: `cargo run --release -p sos-bench --bin workload_stats`

use smtsim::trace::{Fetch, InstrClass, InstructionSource, StreamId};
use workloads::spec::Benchmark;
use workloads::synth::SyntheticStream;

fn main() {
    sos_bench::cli::parse_or_exit("workload_stats", "", |_| Ok(()));
    const N: usize = 300_000;
    println!(
        "{:<8} {:>8} {:>8}   {:>8} {:>8}   {:>8} {:>8}   {:>8} {:>8}",
        "bench", "fp%", "target", "ld%", "target", "br%", "target", "dep", "target"
    );
    for b in Benchmark::ALL {
        let profile = b.profile();
        let mut s = SyntheticStream::new(profile.clone(), StreamId(0), 42);
        let mut counts = [0u64; 8];
        let mut dep_sum = 0u64;
        let mut dep_n = 0u64;
        for _ in 0..N {
            if let Fetch::Instr(i) = s.next_instr() {
                let Some(idx) = InstrClass::ALL.iter().position(|&c| c == i.class) else {
                    // Unreachable while ALL enumerates every class; a new
                    // class missing from ALL should show up as a loud
                    // diagnostic, not a panicking stats binary.
                    eprintln!(
                        "workload_stats: {:?} emitted class {:?} absent from InstrClass::ALL; skipping",
                        b.name(),
                        i.class
                    );
                    continue;
                };
                counts[idx] += 1;
                if i.dep_dist > 0 && i.class != InstrClass::Branch {
                    dep_sum += u64::from(i.dep_dist);
                    dep_n += 1;
                }
            }
        }
        let total: u64 = counts.iter().sum();
        let pct = |idxs: &[usize]| {
            100.0 * idxs.iter().map(|&i| counts[i]).sum::<u64>() as f64 / total as f64
        };
        let fp_meas = pct(&[2, 3, 4]);
        let ld_meas = pct(&[5]);
        let br_meas = pct(&[7]);
        let t = profile.mix.total();
        let fp_target = 100.0 * (profile.mix.fp_add + profile.mix.fp_mul + profile.mix.fp_div) / t;
        let ld_target = 100.0 * profile.mix.load / t;
        let br_target = 100.0 * profile.mix.branch / t;
        let dep_meas = dep_sum as f64 / dep_n.max(1) as f64;
        println!(
            "{:<8} {:>7.1}% {:>7.1}%   {:>7.1}% {:>7.1}%   {:>7.1}% {:>7.1}%   {:>8.2} {:>8.2}",
            b.name(),
            fp_meas,
            fp_target,
            ld_meas,
            ld_target,
            br_meas,
            br_target,
            dep_meas,
            profile.dep_mean
        );
    }
    println!();
    println!("fp/ld percentages are of all instructions (branch slots excluded from the mix),");
    println!("so measured values sit slightly below the non-branch targets by design.");
}
