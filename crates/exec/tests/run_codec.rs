//! `RunResult::encode` / `decode` and `Profile::encode` / `decode` as
//! properties over generated values: the round trip is the identity, and
//! `decode` is total — a prefix, a suffix or a flipped bit is `None` or
//! some other well-formed value, never a panic.

use hsm_exec::{OutputLine, Profile, ReuseHistogram, RunResult, SyncSummary};
use scc_sim::{CoreStats, MemStats, StatsMatrix, REGION_COUNT};
use testkit::SplitMix64;

/// Mostly small values, sometimes the extremes a varint must survive.
fn counter(rng: &mut SplitMix64) -> u64 {
    match rng.gen_range_usize(0, 8) {
        0 => 0,
        1 => u64::MAX,
        2 => rng.next_u64(),
        _ => rng.gen_range_u64(0, 100_000),
    }
}

fn text(rng: &mut SplitMix64) -> String {
    const PIECES: [&str; 8] = [
        "sum = 42\n",
        "\n",
        "",
        "π ≈ 3.14159\n",
        "两行\n第二行\n",
        "tab\there \"quoted\" \\ back\n",
        "\u{0}\u{1f}",
        "no newline",
    ];
    (0..rng.gen_range_usize(0, 4))
        .map(|_| PIECES[rng.gen_range_usize(0, PIECES.len())])
        .collect()
}

fn row(rng: &mut SplitMix64, saturated: bool) -> CoreStats {
    let mut row = CoreStats {
        l1_hits: counter(rng).max(1), // never the all-zero row
        l2_hits: counter(rng),
        private_dram: counter(rng),
        mc_queue_cycles: counter(rng),
        ..CoreStats::default()
    };
    for i in 0..REGION_COUNT {
        row.reads[i] = counter(rng);
        row.writes[i] = counter(rng);
        row.region_cycles[i] = counter(rng);
        let h = &mut row.latency[i];
        for b in &mut h.buckets {
            *b = if saturated { u64::MAX } else { counter(rng) };
        }
        (h.count, h.total_cycles, h.max) = (counter(rng), counter(rng), counter(rng));
    }
    row
}

fn result(rng: &mut SplitMix64) -> RunResult {
    let cores = [0usize, 1, 4, 48][rng.gen_range_usize(0, 4)];
    let active = match rng.gen_range_usize(0, 3) {
        0 => 0,
        1 => cores.min(1),
        _ => cores,
    };
    let mut stats_matrix = StatsMatrix::new(cores);
    // Active rows need not be a prefix: an RCCE run on cores 0..n is, a
    // task run with an idle worker is not.
    for i in 0..active {
        let saturated = rng.gen_range_usize(0, 4) == 0;
        stats_matrix.per_core[cores - 1 - i] = row(rng, saturated);
    }
    RunResult {
        total_cycles: counter(rng),
        timed_cycles: counter(rng),
        output: (0..rng.gen_range_usize(0, 5))
            .map(|_| OutputLine {
                at: counter(rng),
                who: rng.gen_range_usize(0, 48),
                text: text(rng),
            })
            .collect(),
        exit_code: match rng.gen_range_usize(0, 5) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -1,
            _ => rng.gen_range_i64(-300, 300),
        },
        mem_stats: MemStats {
            l1_hits: counter(rng),
            l2_hits: counter(rng),
            private_dram: counter(rng),
            shared_dram: counter(rng),
            mpb: counter(rng),
            mc_queue_cycles: counter(rng),
        },
        stats_matrix,
        mpb_high_water: rng.gen_range_usize(0, 1 << 20),
        per_unit_cycles: (0..rng.gen_range_usize(0, 49))
            .map(|_| counter(rng))
            .collect(),
        instructions: counter(rng),
        events: counter(rng),
    }
}

fn profile(rng: &mut SplitMix64) -> Profile {
    let run = result(rng);
    let reuse = (0..rng.gen_range_usize(0, 49))
        .map(|_| {
            let mut row = ReuseHistogram {
                cold: counter(rng),
                ..ReuseHistogram::default()
            };
            for b in &mut row.buckets {
                *b = counter(rng);
            }
            row
        })
        .collect();
    let sync = SyncSummary {
        barrier_epochs: counter(rng),
        barrier_arrivals: counter(rng),
        barrier_wait_cycles: counter(rng),
        lock_acquires: counter(rng),
        lock_handoffs: counter(rng),
        thread_starts: counter(rng),
        thread_joins: counter(rng),
        messages: counter(rng),
        dma_transfers: counter(rng),
        dma_bytes: counter(rng),
    };
    Profile { run, reuse, sync }
}

/// `decode` rejects every cut and every extension of `bytes` and
/// survives bit flips in it.
fn assert_total<T: PartialEq + std::fmt::Debug>(
    rng: &mut SplitMix64,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
) {
    // Every prefix of a short encoding, a spread of a long one's.
    for cut in (0..bytes.len()).step_by(1 + bytes.len() / 1024) {
        assert_eq!(decode(&bytes[..cut]), None, "prefix {cut}");
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    assert_eq!(decode(&longer), None, "trailing byte");
    for _ in 0..64 {
        let mut damaged = bytes.to_vec();
        let at = rng.gen_range_usize(0, damaged.len());
        damaged[at] ^= 1 << rng.gen_range_usize(0, 8);
        // Any answer but a panic (or an allocation the size of a
        // corrupted length) is acceptable: the store's checksum is
        // what rejects damage, this only has to survive it.
        let _ = decode(&damaged);
    }
    assert_eq!(decode(&[]), None);
    assert_eq!(decode(&[9]), None, "unknown version");
}

#[test]
fn encode_then_decode_is_the_identity() {
    testkit::check("run_codec_round_trip", 300, |rng| {
        let r = result(rng);
        let bytes = r.encode();
        assert_eq!(RunResult::decode(&bytes).as_ref(), Some(&r));
        assert_eq!(r.encode(), bytes, "encoding is a function of the value");
    });
}

#[test]
fn idle_rows_cost_nothing() {
    let mut r = result(&mut SplitMix64::new(7));
    r.stats_matrix = StatsMatrix::new(48);
    let idle = r.encode().len();
    r.stats_matrix.per_core[5].l1_hits = 1;
    let one = r.encode().len();
    assert!(one > idle && one - idle < 100, "{idle} -> {one}");
    assert!(
        idle < 27 * 1024 / 10,
        "48 idle rows must not cost 27 KB: {idle}"
    );
}

#[test]
fn decode_is_total() {
    testkit::check("run_codec_damage", 40, |rng| {
        let bytes = result(rng).encode();
        assert_total(rng, &bytes, RunResult::decode);
    });
}

#[test]
fn profile_encode_then_decode_is_the_identity() {
    testkit::check("profile_codec_round_trip", 300, |rng| {
        let p = profile(rng);
        let bytes = p.encode();
        assert_eq!(Profile::decode(&bytes).as_ref(), Some(&p));
        assert_eq!(p.encode(), bytes, "encoding is a function of the value");
    });
}

#[test]
fn profile_decode_is_total() {
    testkit::check("profile_codec_damage", 40, |rng| {
        let p = profile(rng);
        let bytes = p.encode();
        assert_total(rng, &bytes, Profile::decode);
        // A run entry is a profile's prefix, never a profile.
        assert_eq!(Profile::decode(&p.run.encode()), None);
    });
    // Nor is the text a profile renders its stored form.
    assert_eq!(Profile::decode(b"hsmprofile 1\nrun 1 0 0 0 0\n"), None);
}
