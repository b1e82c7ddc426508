//! Prints solo IPC and microarchitectural profile of every benchmark model.
use smtsim::{MachineConfig, Processor, StreamId};
use workloads::spec::Benchmark;

fn main() {
    sos_bench::cli::parse_or_exit("calibrate", "", |_| Ok(()));
    println!(
        "{:<8} {:>6} {:>7} {:>7} {:>8} {:>7}",
        "bench", "IPC", "dl1%", "br-mis%", "l2miss", "fp%"
    );
    for b in Benchmark::ALL {
        let mut cpu = Processor::new(MachineConfig::alpha21264_like(1));
        let mut s = b.stream(StreamId(0), 42);
        let _ = cpu.run_timeslice(&mut [&mut *s], 200_000); // warm-up
        let st = cpu.run_timeslice(&mut [&mut *s], 500_000);
        let t = &st.threads[0];
        let fp_pct = 100.0 * t.fp_ops() as f64 / t.committed.max(1) as f64;
        println!(
            "{:<8} {:>6.3} {:>7.2} {:>7.2} {:>8} {:>7.1}",
            b.name(),
            st.total_ipc(),
            st.cache.dl1_hit_pct(),
            st.branches.mispredict_pct(),
            st.cache.l2_misses,
            fp_pct
        );
    }
}
