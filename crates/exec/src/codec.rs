//! The compact binary form of a [`RunResult`].
//!
//! A run is a pure function of its inputs, so a finished [`RunResult`] is
//! worth keeping — in memory between identical queries and on disk
//! between processes (`hsm-core`'s run shelf does both, with this one
//! encoding). The form is a version byte followed by LEB128 varints in
//! field order; strings are length-prefixed UTF-8. A `RunResult` carries
//! one [`CoreStats`] row per core of the *chip* (48 on the SCC) while a
//! run touches as many as it was given, so only rows that differ from
//! the all-zero row are written, each behind its index.
//!
//! [`RunResult::decode`] is total: any truncation, overlong varint,
//! out-of-range index, invalid UTF-8 or trailing byte yields `None`, and
//! no length read from the input is trusted with an allocation.

use crate::machine::{OutputLine, RunResult};
use scc_sim::{CoreStats, LatencyHistogram, MemStats, StatsMatrix};

/// First byte of every encoding; bump on any layout change.
const CODEC_VERSION: u8 = 1;

fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_all(out: &mut Vec<u8>, values: &[u64]) {
    for &v in values {
        put(out, v);
    }
}

/// A bounds-checked cursor over an encoding.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn u64(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let (&byte, rest) = self.0.split_first()?;
            self.0 = rest;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return None; // would not fit 64 bits
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn fill(&mut self, values: &mut [u64]) -> Option<()> {
        for v in values {
            *v = self.u64()?;
        }
        Some(())
    }

    /// A count of items that each take at least one more input byte.
    fn count(&mut self) -> Option<usize> {
        let n = self.usize()?;
        (n <= self.0.len()).then_some(n)
    }

    fn text(&mut self) -> Option<String> {
        let n = self.count()?;
        let (bytes, rest) = self.0.split_at(n);
        self.0 = rest;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

fn put_row(out: &mut Vec<u8>, row: &CoreStats) {
    put_all(
        out,
        &[
            row.l1_hits,
            row.l2_hits,
            row.private_dram,
            row.mc_queue_cycles,
        ],
    );
    put_all(out, &row.reads);
    put_all(out, &row.writes);
    put_all(out, &row.region_cycles);
    for h in &row.latency {
        put_all(out, &h.buckets);
        put_all(out, &[h.count, h.total_cycles, h.max]);
    }
}

fn read_row(r: &mut Reader<'_>) -> Option<CoreStats> {
    let mut row = CoreStats {
        l1_hits: r.u64()?,
        l2_hits: r.u64()?,
        private_dram: r.u64()?,
        mc_queue_cycles: r.u64()?,
        ..CoreStats::default()
    };
    r.fill(&mut row.reads)?;
    r.fill(&mut row.writes)?;
    r.fill(&mut row.region_cycles)?;
    for h in &mut row.latency {
        let mut hist = LatencyHistogram::default();
        r.fill(&mut hist.buckets)?;
        (hist.count, hist.total_cycles, hist.max) = (r.u64()?, r.u64()?, r.u64()?);
        *h = hist;
    }
    Some(row)
}

impl RunResult {
    /// The compact binary form.
    /// `decode(encode(r)) == Some(r)` for every `r`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.push(CODEC_VERSION);
        let m = &self.mem_stats;
        put_all(
            &mut out,
            &[
                self.total_cycles,
                self.timed_cycles,
                // Zigzag: small magnitudes of either sign stay short.
                ((self.exit_code << 1) ^ (self.exit_code >> 63)) as u64,
                m.l1_hits,
                m.l2_hits,
                m.private_dram,
                m.shared_dram,
                m.mpb,
                m.mc_queue_cycles,
                self.mpb_high_water as u64,
                self.instructions,
                self.events,
                self.per_unit_cycles.len() as u64,
            ],
        );
        put_all(&mut out, &self.per_unit_cycles);
        put(&mut out, self.output.len() as u64);
        for line in &self.output {
            put_all(
                &mut out,
                &[line.at, line.who as u64, line.text.len() as u64],
            );
            out.extend_from_slice(line.text.as_bytes());
        }
        let rows = &self.stats_matrix.per_core;
        let idle = CoreStats::default();
        let active: Vec<(usize, &CoreStats)> = rows
            .iter()
            .enumerate()
            .filter(|(_, row)| **row != idle)
            .collect();
        put_all(&mut out, &[rows.len() as u64, active.len() as u64]);
        for (i, row) in active {
            put(&mut out, i as u64);
            put_row(&mut out, row);
        }
        out
    }

    /// Decodes [`RunResult::encode`]'s output; `None` for anything else.
    pub fn decode(bytes: &[u8]) -> Option<RunResult> {
        let (&version, body) = bytes.split_first()?;
        if version != CODEC_VERSION {
            return None;
        }
        let mut r = Reader(body);
        let (total_cycles, timed_cycles) = (r.u64()?, r.u64()?);
        let zigzag = r.u64()?;
        let exit_code = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        let mem_stats = MemStats {
            l1_hits: r.u64()?,
            l2_hits: r.u64()?,
            private_dram: r.u64()?,
            shared_dram: r.u64()?,
            mpb: r.u64()?,
            mc_queue_cycles: r.u64()?,
        };
        let mpb_high_water = r.usize()?;
        let (instructions, events) = (r.u64()?, r.u64()?);
        let mut per_unit_cycles = vec![0; r.count()?];
        r.fill(&mut per_unit_cycles)?;
        let output = (0..r.count()?)
            .map(|_| {
                Some(OutputLine {
                    at: r.u64()?,
                    who: r.usize()?,
                    text: r.text()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        // The row count is a chip's core count, not a share of the input:
        // bound it on its own before allocating.
        let cores = r.usize().filter(|&n| n <= 1 << 16)?;
        let mut stats_matrix = StatsMatrix::new(cores);
        for _ in 0..r.count()? {
            let core = r.usize()?;
            *stats_matrix.per_core.get_mut(core)? = read_row(&mut r)?;
        }
        r.0.is_empty().then_some(RunResult {
            total_cycles,
            timed_cycles,
            output,
            exit_code,
            mem_stats,
            stats_matrix,
            mpb_high_water,
            per_unit_cycles,
            instructions,
            events,
        })
    }
}
