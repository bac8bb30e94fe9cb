//! Property-based tests of the PFS model.

use sioscope_pfs::{
    AccessPattern, IoMode, IoOp, Outcome, PatternDetector, Pfs, PfsConfig, StripeLayout,
};
use sioscope_prop::cases;
use sioscope_sim::{DetRng, Pid, Time};

/// `len` in `[min_len, max_len]` pairs `(a in [a_lo, a_hi], b in [b_lo, b_hi])`.
fn pairs(
    rng: &mut DetRng,
    (min_len, max_len): (u64, u64),
    (a_lo, a_hi): (u64, u64),
    (b_lo, b_hi): (u64, u64),
) -> Vec<(u64, u64)> {
    let len = rng.range_inclusive(min_len, max_len);
    (0..len)
        .map(|_| {
            (
                rng.range_inclusive(a_lo, a_hi),
                rng.range_inclusive(b_lo, b_hi),
            )
        })
        .collect()
}

/// Stripe decomposition conserves bytes, keeps every segment
/// within one stripe unit, maps segments to the round-robin I/O
/// node, and covers the range contiguously in order.
#[test]
fn stripe_segments_conserve_and_cover() {
    cases("stripe_segments_conserve_and_cover", 256, |rng| {
        let unit_k = rng.range_inclusive(1, 255);
        let ions = rng.range_inclusive(1, 63) as u32;
        let offset = rng.range_inclusive(0, 9_999_999);
        let len = rng.range_inclusive(0, 4_999_999);
        let unit = unit_k * 1024;
        let layout = StripeLayout::new(unit, ions);
        let segs = layout.segments(offset, len);
        let total: u64 = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, len);
        let mut cursor = offset;
        for seg in &segs {
            assert_eq!(seg.offset, cursor, "gap or overlap");
            assert!(seg.len > 0);
            // Never crosses a unit boundary.
            assert_eq!(seg.offset / unit, (seg.offset + seg.len - 1) / unit);
            // Round-robin placement.
            assert_eq!(seg.ion, ((seg.offset / unit) % u64::from(ions)) as u32);
            cursor += seg.len;
        }
        // Fanout never exceeds the I/O node count nor the segment count.
        let fanout = layout.fanout(offset, len);
        assert!(fanout <= ions);
        assert!(fanout as usize <= segs.len().max(1));
    });
}

/// Any single-process sequence of open/read/write/seek/close on
/// one file completes with nondecreasing completion times and
/// never errors.
#[test]
fn single_process_op_sequences_complete() {
    cases("single_process_op_sequences_complete", 256, |rng| {
        let n_ops = rng.range_inclusive(1, 59);
        let ops: Vec<u64> = (0..n_ops).map(|_| rng.range_inclusive(0, 4)).collect();
        let sizes: Vec<u64> = (0..60).map(|_| rng.range_inclusive(1, 299_999)).collect();
        let mut pfs = Pfs::new(PfsConfig::tiny());
        let f = pfs.create_file_with_size("f", 8 << 20);
        let pid = Pid(0);
        let mut t = Time::ZERO;
        let mut open = false;
        for (i, &op) in ops.iter().enumerate() {
            let size = sizes[i % sizes.len()];
            let io = match op {
                0 => {
                    if open {
                        continue;
                    }
                    open = true;
                    IoOp::Open
                }
                1 => {
                    if !open {
                        continue;
                    }
                    IoOp::Read {
                        size: size.min(1 << 20),
                    }
                }
                2 => {
                    if !open {
                        continue;
                    }
                    IoOp::Write {
                        size: size.min(1 << 20),
                    }
                }
                3 => {
                    if !open {
                        continue;
                    }
                    IoOp::Seek {
                        offset: size % (4 << 20),
                    }
                }
                _ => {
                    if !open {
                        continue;
                    }
                    open = false;
                    IoOp::Close
                }
            };
            match pfs.submit(t, pid, f, &io) {
                Ok(Outcome::Done(cs)) => {
                    assert_eq!(cs.len(), 1);
                    assert!(cs[0].finish >= t, "time went backwards");
                    t = cs[0].finish;
                }
                Ok(Outcome::Blocked) => panic!("single process blocked"),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(pfs.forming_collectives(), 0);
    });
}

/// The private file pointer advances by exactly the bytes read or
/// written, and seeks reposition it exactly.
#[test]
fn pointer_semantics() {
    cases("pointer_semantics", 256, |rng| {
        let moves = pairs(rng, (1, 39), (0, 2), (1, 99_999));
        let mut pfs = Pfs::new(PfsConfig::tiny());
        let f = pfs.create_file_with_size("f", 32 << 20);
        let pid = Pid(0);
        let mut t = match pfs.submit(Time::ZERO, pid, f, &IoOp::Open).unwrap() {
            Outcome::Done(cs) => cs[0].finish,
            _ => unreachable!(),
        };
        let mut expected = 0u64;
        for (kind, amount) in moves {
            let io = match kind {
                0 => {
                    expected += amount;
                    IoOp::Read { size: amount }
                }
                1 => {
                    expected += amount;
                    IoOp::Write { size: amount }
                }
                _ => {
                    expected = amount;
                    IoOp::Seek { offset: amount }
                }
            };
            if let Ok(Outcome::Done(cs)) = pfs.submit(t, pid, f, &io) {
                t = cs[0].finish;
            }
            assert_eq!(pfs.private_ptr(f, pid), Some(expected));
        }
    });
}

/// M_GLOBAL collective reads by any group size aggregate to one
/// transfer: shared pointer advances once per round, and everyone
/// finishes at the same instant.
#[test]
fn mglobal_rounds_aggregate() {
    cases("mglobal_rounds_aggregate", 256, |rng| {
        let n = rng.range_inclusive(2, 11) as u32;
        let rounds = rng.range_inclusive(1, 5);
        let size = rng.range_inclusive(1, 99_999);
        let mut pfs = Pfs::new(PfsConfig::tiny());
        let f = pfs.create_file_with_size("g", 64 << 20);
        let gop = IoOp::Gopen {
            group: n,
            mode: IoMode::MGlobal,
            record_size: None,
        };
        let mut t = Time::ZERO;
        for i in 0..n {
            if let Ok(Outcome::Done(cs)) = pfs.submit(Time::ZERO, Pid(i), f, &gop) {
                t = cs[0].finish;
            }
        }
        for round in 1..=rounds {
            let mut finishes = Vec::new();
            for i in 0..n {
                match pfs.submit(t, Pid(i), f, &IoOp::Read { size }).unwrap() {
                    Outcome::Done(cs) => finishes.extend(cs.iter().map(|c| c.finish)),
                    Outcome::Blocked => {}
                }
            }
            assert_eq!(finishes.len(), n as usize);
            let first = finishes[0];
            assert!(finishes.iter().all(|&x| x == first), "synchronized release");
            assert_eq!(pfs.file(f).unwrap().shared_ptr, round * size);
            t = first;
        }
    });
}

/// M_RECORD rounds give member `r` the offset `base + r*record`,
/// disjointly tiling the file.
#[test]
fn mrecord_tiles_disjointly() {
    cases("mrecord_tiles_disjointly", 256, |rng| {
        let n = rng.range_inclusive(2, 9) as u32;
        let rounds = rng.range_inclusive(1, 4) as u32;
        let rec_k = rng.range_inclusive(1, 4);
        let record = rec_k * 64 * 1024;
        let mut pfs = Pfs::new(PfsConfig::tiny());
        let f = pfs.create_file("q");
        let gop = IoOp::Gopen {
            group: n,
            mode: IoMode::MRecord,
            record_size: Some(record),
        };
        let mut t = Time::ZERO;
        for i in 0..n {
            if let Ok(Outcome::Done(cs)) = pfs.submit(Time::ZERO, Pid(i), f, &gop) {
                t = cs[0].finish;
            }
        }
        let mut offsets = std::collections::HashSet::new();
        for _ in 0..rounds {
            let mut next_t = t;
            for i in 0..n {
                match pfs
                    .submit(t, Pid(i), f, &IoOp::Write { size: record })
                    .unwrap()
                {
                    Outcome::Done(cs) => {
                        for c in cs {
                            assert!(offsets.insert(c.offset), "offset reused");
                            assert_eq!(c.offset % record, 0);
                            next_t = next_t.max(c.finish);
                        }
                    }
                    Outcome::Blocked => {}
                }
            }
            t = next_t;
        }
        assert_eq!(offsets.len(), (n * rounds) as usize);
        assert_eq!(
            pfs.file(f).unwrap().size,
            u64::from(n) * u64::from(rounds) * record
        );
    });
}

/// Whatever the op mix, completions never precede their issue
/// time, and the file size equals the highest written byte.
#[test]
fn size_tracks_highest_write() {
    cases("size_tracks_highest_write", 256, |rng| {
        let writes = pairs(rng, (1, 29), (0, 999_999), (1, 49_999));
        let mut pfs = Pfs::new(PfsConfig::tiny());
        let f = pfs.create_file("w");
        let pid = Pid(0);
        let mut t = match pfs.submit(Time::ZERO, pid, f, &IoOp::Open).unwrap() {
            Outcome::Done(cs) => cs[0].finish,
            _ => unreachable!(),
        };
        let mut high = 0u64;
        for (offset, len) in writes {
            if let Ok(Outcome::Done(cs)) = pfs.submit(t, pid, f, &IoOp::Seek { offset }) {
                t = cs[0].finish;
            }
            if let Ok(Outcome::Done(cs)) = pfs.submit(t, pid, f, &IoOp::Write { size: len }) {
                assert!(cs[0].finish >= t);
                t = cs[0].finish;
            }
            high = high.max(offset + len);
        }
        // Close drains any write-behind buffer before we check size.
        pfs.submit(t, pid, f, &IoOp::Close).unwrap();
        assert_eq!(pfs.file(f).unwrap().size, high);
    });
}

/// Any strictly sequential stream of length >= confidence + 2 is
/// classified sequential, from any starting offset and with any
/// (positive) request sizes.
#[test]
fn detector_finds_sequential_runs() {
    cases("detector_finds_sequential_runs", 256, |rng| {
        let start = rng.range_inclusive(0, 999_999);
        let n = rng.range_inclusive(6, 39);
        let lens: Vec<u64> = (0..n).map(|_| rng.range_inclusive(1, 99_999)).collect();
        let mut d = PatternDetector::new();
        let mut off = start;
        for &len in &lens {
            d.observe(off, len);
            off += len;
        }
        assert_eq!(d.pattern(3), AccessPattern::Sequential);
        assert_eq!(d.sequential_run() as usize, lens.len() - 1);
    });
}

/// Constant-stride streams are classified strided, never
/// sequential.
#[test]
fn detector_finds_strides() {
    cases("detector_finds_strides", 256, |rng| {
        let start = rng.range_inclusive(0, 999_999);
        let len = rng.range_inclusive(1, 999);
        let stride = rng.range_inclusive(1_001, 49_999);
        let n = rng.range_inclusive(6, 39);
        let mut d = PatternDetector::new();
        for i in 0..n {
            d.observe(start + i * stride, len);
        }
        assert_eq!(d.pattern(3), AccessPattern::Strided);
    });
}

/// The detector never reports a run longer than the number of
/// observations.
#[test]
fn detector_run_bounded() {
    cases("detector_run_bounded", 256, |rng| {
        let offsets = pairs(rng, (0, 59), (0, 999_999), (1, 9_999));
        let mut d = PatternDetector::new();
        for &(off, len) in &offsets {
            d.observe(off, len);
        }
        assert_eq!(d.observations() as usize, offsets.len());
        assert!((d.sequential_run() as usize) < offsets.len().max(1));
    });
}
