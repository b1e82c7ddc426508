//! Ablations of the simulator's design choices (DESIGN.md §6): each knob is
//! flipped and the effect on coscheduled throughput or on the paper's key
//! contention signals is reported.
//!
//! Usage: `cargo run --release -p sos-bench --bin ablations`

use smtsim::{FetchPolicy, MachineConfig, Processor, StreamId};
use workloads::spec::Benchmark;

/// Runs `benches` coscheduled on `cfg` and returns (total IPC, fp-queue
/// conflict cycles, mispredict %).
fn run(cfg: MachineConfig, benches: &[Benchmark], cycles: u64) -> (f64, u64, f64) {
    let mut cpu = Processor::new(cfg);
    let mut streams: Vec<_> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| b.stream(StreamId(i as u64), 1000 + i as u64))
        .collect();
    let mut refs: Vec<&mut dyn smtsim::trace::InstructionSource> =
        streams.iter_mut().map(|s| &mut **s as _).collect();
    let _ = cpu.run_timeslice(&mut refs, cycles);
    let st = cpu.run_timeslice(&mut refs, cycles);
    (
        st.total_ipc(),
        st.conflicts.fp_queue,
        st.branches.mispredict_pct(),
    )
}

fn main() {
    sos_bench::cli::parse_or_exit("ablations", "", |_| Ok(()));
    use Benchmark::*;
    const CYCLES: u64 = 150_000;
    println!("Design-choice ablations (mixed 3-thread coschedule FP+MG+GO unless noted)");
    let mix = [Fp, Mg, Go];

    // 1. Fetch policies (Tullsen et al., ISCA '96 family).
    let base = MachineConfig::alpha21264_like(3);
    for (name, policy) in [
        ("ICOUNT", FetchPolicy::Icount),
        ("round-robin", FetchPolicy::RoundRobin),
        ("BRCOUNT", FetchPolicy::Brcount),
        ("MISSCOUNT", FetchPolicy::Misscount),
    ] {
        let mut cfg = base.clone();
        cfg.fetch_policy = policy;
        let (ipc, ..) = run(cfg, &mix, CYCLES);
        println!("fetch policy      {name:<12} {ipc:.3} IPC");
    }

    // 2. FP divide pipelining (the 21264's divider is unpipelined).
    let fp_mix = [Fp, Ep, Mg];
    let (unpiped, fq_unpiped, _) = run(base.clone(), &fp_mix, CYCLES);
    let mut piped = base.clone();
    piped.lat.fp_div_occupancy = 1;
    let (piped_ipc, fq_piped, _) = run(piped, &fp_mix, CYCLES);
    println!(
        "fp divide         unpipelined {unpiped:.3} IPC / {fq_unpiped} FQ-conflict cycles   \
         pipelined {piped_ipc:.3} IPC / {fq_piped}"
    );

    // 3. FP queue size: the paper's 15 entries vs double.
    let (fq15, fq15_conf, _) = run(base.clone(), &fp_mix, CYCLES);
    let mut big_fq = base.clone();
    big_fq.fp_queue = 30;
    let (fq30, fq30_conf, _) = run(big_fq, &fp_mix, CYCLES);
    println!(
        "fp queue size     15 entries {fq15:.3} IPC / {fq15_conf} conflicts   \
         30 entries {fq30:.3} IPC / {fq30_conf} conflicts"
    );

    // 4. Misprediction penalty sweep on a branchy mix.
    let branchy = [Go, Gcc, Gcc];
    for penalty in [0u64, 7, 14] {
        let mut cfg = base.clone();
        cfg.branch.mispredict_penalty = penalty;
        let (ipc, _, mis) = run(cfg, &branchy, CYCLES);
        println!("mispredict penalty {penalty:>2} cycles    GO+GCC+GCC {ipc:.3} IPC ({mis:.1}% mispredicted)");
    }

    // 5. Branch-table size: shared-table interference shrinks with capacity.
    for bits in [10u32, 12, 16] {
        let mut cfg = base.clone();
        cfg.branch.table_bits = bits;
        let (ipc, _, mis) = run(cfg, &branchy, CYCLES);
        println!("branch table 2^{bits:<2} entries        GO+GCC+GCC {ipc:.3} IPC ({mis:.1}% mispredicted)");
    }

    // 6. SMT level scaling on the 12-job mix's first threads.
    let many = [Fp, Mg, Wave, Swim, Su2cor, Turb3d];
    for smt in [1usize, 2, 3, 4, 6] {
        let cfg = MachineConfig::alpha21264_like(smt);
        let (ipc, ..) = run(cfg, &many[..smt], CYCLES);
        println!("SMT level {smt}                     {ipc:.3} total IPC");
    }
}
