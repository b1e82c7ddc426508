//! Golden digests of the detailed pipeline's complete counter output.
//!
//! `benchmark/expected.json` pins committed instructions and cycles; this
//! test pins *everything* a timeslice reports — all seven conflict counters,
//! cache/TLB/branch statistics and every per-thread count — for {1, 4, 8
//! contexts} x {compute mix, memory mix} under each `FetchPolicy`. The
//! digests were recorded on the commit before the allocation-free cycle
//! loop landed, so any hot-path change that alters what is simulated (not
//! only how fast) fails here. After an *intended* model change, re-record
//! with `PIPELINE_GOLDEN_PRINT=1 cargo test --test pipeline_golden -- --nocapture`.

use smtsim::trace::InstructionSource;
use smtsim::{FetchPolicy, MachineConfig, Processor, StreamId};
use workloads::{Benchmark, SyntheticStream};

const SEED: u64 = 42;
const SLICE_CYCLES: u64 = 5_000;
const WARM_SLICES: usize = 20;
const MEASURED_SLICES: usize = 8;

const CONTEXTS: [usize; 3] = [1, 4, 8];
const COMPUTE: [Benchmark; 4] = [Benchmark::Fp, Benchmark::Gcc, Benchmark::Go, Benchmark::Ep];
const MEMORY: [Benchmark; 4] = [Benchmark::Is, Benchmark::Swim, Benchmark::Mg, Benchmark::Cg];

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn streams(contexts: usize, members: &[Benchmark; 4]) -> Vec<SyntheticStream> {
    (0..contexts)
        .map(|i| *members[i % 4].stream(StreamId(i as u64), SEED ^ (i as u64) << 8))
        .collect()
}

/// Runs one timeslice of `cycles` on the first `width` streams and folds the
/// serialised `TimesliceStats` into `h`.
fn slice(
    cpu: &mut Processor,
    streams: &mut [SyntheticStream],
    width: usize,
    cycles: u64,
    h: u64,
) -> u64 {
    let mut threads: Vec<&mut dyn InstructionSource> = streams[..width]
        .iter_mut()
        .map(|s| s as &mut dyn InstructionSource)
        .collect();
    let stats = cpu.run_timeslice(&mut threads, cycles);
    let json = serde_json::to_string(&stats).expect("stats serialise");
    fnv1a(h, json.as_bytes())
}

/// Digest of the measured slices of `members` on a machine `cfg`.
fn digest_on(cfg: MachineConfig, members: &[Benchmark; 4]) -> u64 {
    let contexts = cfg.contexts;
    let mut cpu = Processor::new(cfg);
    let mut streams = streams(contexts, members);
    let mut h = FNV_OFFSET;
    for _ in 0..WARM_SLICES {
        slice(&mut cpu, &mut streams, contexts, SLICE_CYCLES, 0);
    }
    for _ in 0..MEASURED_SLICES {
        h = slice(&mut cpu, &mut streams, contexts, SLICE_CYCLES, h);
    }
    h
}

fn digest(policy: FetchPolicy, contexts: usize, members: &[Benchmark; 4]) -> u64 {
    let mut cfg = MachineConfig::alpha21264_like(contexts);
    cfg.fetch_policy = policy;
    digest_on(cfg, members)
}

/// Compares with a pinned digest, or prints it under `PIPELINE_GOLDEN_PRINT`.
fn check_one(what: &str, got: u64, expected: u64) {
    if std::env::var_os("PIPELINE_GOLDEN_PRINT").is_some() {
        println!("{what}: {got:#018x}");
        return;
    }
    assert_eq!(got, expected, "{what}: simulated counters changed");
}

/// Runs the six (contexts, mix) cells under `policy` and compares with the
/// pinned digests, in `CONTEXTS` x [compute, memory] order.
fn check(policy: FetchPolicy, expected: [u64; 6]) {
    let mut got = Vec::with_capacity(6);
    for &contexts in &CONTEXTS {
        for members in [&COMPUTE, &MEMORY] {
            got.push(digest(policy, contexts, members));
        }
    }
    if std::env::var_os("PIPELINE_GOLDEN_PRINT").is_some() {
        let hex: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
        println!("{policy:?}: [{}]", hex.join(", "));
        return;
    }
    assert_eq!(
        got, expected,
        "{policy:?}: simulated counters changed (cells are c1.compute, c1.memory, \
         c4.compute, c4.memory, c8.compute, c8.memory)"
    );
}

#[test]
fn icount_counters_are_pinned() {
    check(
        FetchPolicy::Icount,
        [
            0x06bc_64ec_0031_75ed,
            0x3d28_4f31_2cf4_742a,
            0xc317_be82_aaac_d662,
            0xf71c_a2d2_364c_669b,
            0x55c5_dd7b_08b0_87fc,
            0x9523_74f9_8e90_2c41,
        ],
    );
}

#[test]
fn round_robin_counters_are_pinned() {
    check(
        FetchPolicy::RoundRobin,
        [
            0x06bc_64ec_0031_75ed,
            0x3d28_4f31_2cf4_742a,
            0x53cc_f150_a1fa_c793,
            0x1b08_bb24_5b7f_6d46,
            0xa4c0_4e5d_4a0c_f8f4,
            0x359e_6333_3557_645b,
        ],
    );
}

#[test]
fn brcount_counters_are_pinned() {
    check(
        FetchPolicy::Brcount,
        [
            0x06bc_64ec_0031_75ed,
            0x3d28_4f31_2cf4_742a,
            0x1d90_962a_6dba_99e2,
            0x5bca_6a0d_2174_c7d6,
            0x4f24_f674_33a9_fe13,
            0xb040_533c_34a8_50d8,
        ],
    );
}

#[test]
fn misscount_counters_are_pinned() {
    check(
        FetchPolicy::Misscount,
        [
            0x06bc_64ec_0031_75ed,
            0x3d28_4f31_2cf4_742a,
            0x3111_17b7_41b8_93b8,
            0x5785_a744_cc84_c227,
            0xcb0a_b98b_3911_5233,
            0x5b8f_9172_ab7e_f184,
        ],
    );
}

/// Queues longer than the 64-entry window of the issue scan's readiness
/// bitmask (the all-stalled memory mix fills them), so that path is compared
/// with the entry-by-entry scan the digest was recorded with.
#[test]
fn queues_wider_than_the_issue_window_are_pinned() {
    let mut cfg = MachineConfig::alpha21264_like(8);
    cfg.int_queue = 150;
    cfg.fp_queue = 100;
    cfg.int_regs = 400;
    cfg.fp_regs = 400;
    check_one(
        "wide queues",
        digest_on(cfg, &MEMORY),
        0xeb42_5379_afc7_56cb,
    );
}

/// The dispatch cursor survives timeslices: an 8-wide slice that leaves it
/// at 5 is followed by 2-wide ones, which must start from `5 % 2`.
#[test]
fn dispatch_cursor_carried_into_a_narrower_timeslice_is_pinned() {
    let mut cpu = Processor::new(MachineConfig::alpha21264_like(8));
    let mut streams = streams(8, &COMPUTE);
    let mut h = FNV_OFFSET;
    for _ in 0..6 {
        h = slice(&mut cpu, &mut streams, 8, 4_005, h);
        h = slice(&mut cpu, &mut streams, 2, 1_001, h);
        h = slice(&mut cpu, &mut streams, 3, 1_000, h);
    }
    check_one("carried cursor", h, 0xe98a_15b7_f92d_942c);
}
