//! Property tests for the RISC-V PMP model, mirroring
//! `crates/armv7m/tests/mpu_props.rs` on the other backend:
//!
//! * NAPOT `pmpaddr` encoding round-trips — encode then decode is the
//!   identity for every legal `(base, size)`, and the encoded entry's
//!   observable match set is exactly `[base, base + size)`;
//! * `napot_cover` is total and sound — for any window it yields a
//!   naturally aligned power-of-two cover containing the window, never
//!   below the 8-byte granule;
//! * TOR matching is total — any anchor/bound pair either matches
//!   exactly `[lo, hi)` or (zero-length / inverted) matches nothing,
//!   and either way the check never panics and lower entries still
//!   decide;
//! * deny-by-default — against a reference model of the
//!   lowest-entry-wins priority rule, any U-mode access matched by no
//!   entry is denied and the same M-mode access is allowed.
//!
//! As in the MPU suite, property bodies are plain functions so panics
//! shrink well, and the `proptest!` blocks stay small.

#![recursion_limit = "256"]

use opec_pmp::{
    napot_addr, napot_cover, napot_decode, Pmp, PmpAccess, PmpEntry, PmpMode, PrivMode,
    NAPOT_MIN_SIZE, PMP_ENTRIES,
};
use proptest::prelude::*;

/// A legal NAPOT region: power-of-two size in 8..=1 MiB, base aligned
/// to the size, placed in one of the interesting address spaces.
fn napot_region() -> impl Strategy<Value = (u32, u32)> {
    (3u32..21, 0u32..64, prop_oneof![Just(0x0800_0000u32), Just(0x2000_0000), Just(0x4000_0000)])
        .prop_map(|(exp, slot, space)| {
            let size = 1u32 << exp;
            (space + slot * size, size)
        })
}

/// Encode→decode is the identity, and the encoded entry matches
/// exactly `[base, base + size)` under a single-entry PMP.
fn check_napot_round_trip(base: u32, size: u32) {
    let addr = napot_addr(base, size);
    assert_eq!(napot_decode(addr), (base, size), "pmpaddr {addr:#010x}");

    let mut pmp = Pmp::new();
    pmp.set(0, PmpEntry { r: true, w: true, x: false, mode: PmpMode::Napot, addr });
    for probe in [base, base + size / 2, base + size - 1] {
        assert!(
            pmp.check(probe, 1, PmpAccess::Read, PrivMode::User),
            "byte {probe:#010x} inside [{base:#010x}, +{size:#x}) must match"
        );
    }
    assert!(!pmp.check(base.wrapping_sub(1), 1, PmpAccess::Read, PrivMode::User));
    if let Some(end) = base.checked_add(size) {
        assert!(!pmp.check(end, 1, PmpAccess::Read, PrivMode::User));
    }
}

/// `napot_cover` yields an aligned power-of-two cover of the window,
/// at or above the hardware's 8-byte granule.
fn check_napot_cover(window_base: u32, window_size: u32) {
    let (base, size) = napot_cover(window_base, window_size);
    assert!(size.is_power_of_two(), "{size:#x}");
    assert!(size >= NAPOT_MIN_SIZE);
    assert_eq!(base % size, 0, "cover base {base:#010x} not aligned to {size:#x}");
    assert!(base <= window_base);
    let window_end = window_base + window_size;
    let covered = base.checked_add(size).is_none_or(|end| window_end <= end);
    assert!(
        covered,
        "cover [{base:#010x}, +{size:#x}) misses [{window_base:#010x}, +{window_size:#x})"
    );
    // And the cover is encodable: the round trip holds for it.
    assert_eq!(napot_decode(napot_addr(base, size)), (base, size));
}

/// TOR totality: whatever the anchor/bound pair, the check agrees with
/// the interval predicate `lo < hi && lo <= addr < hi` — zero-length
/// and inverted pairs match nothing, and an entry behind the pair
/// still decides.
fn check_tor_totality(anchor: u32, bound: u32, probe: u32) {
    let anchor = anchor & !3;
    let bound = bound & !3;
    let mut pmp = Pmp::new();
    pmp.set(0, PmpEntry { r: false, w: false, x: false, mode: PmpMode::Off, addr: anchor >> 2 });
    pmp.set(1, PmpEntry { r: true, w: true, x: false, mode: PmpMode::Tor, addr: bound >> 2 });
    let in_range = anchor < bound && probe >= anchor && probe < bound;
    assert_eq!(
        pmp.check(probe, 1, PmpAccess::Write, PrivMode::User),
        in_range,
        "probe {probe:#010x} vs TOR [{anchor:#010x}, {bound:#010x})"
    );
    // M-mode is never constrained by the pair.
    assert!(pmp.check(probe, 1, PmpAccess::Write, PrivMode::Machine));
    // Entries behind a dead pair still decide: a fresh TOR pair from 0
    // to near the top of the address space grants the read the dead
    // pair could not. (The anchor must be its own `Off` entry — a TOR
    // lower bound comes from the *previous* entry's addr, which here is
    // the dead pair's `bound`.)
    if anchor >= bound {
        pmp.set(2, PmpEntry { r: false, w: false, x: false, mode: PmpMode::Off, addr: 0 });
        pmp.set(
            3,
            PmpEntry { r: true, w: false, x: false, mode: PmpMode::Tor, addr: u32::MAX >> 2 },
        );
        if probe < (u32::MAX >> 2) << 2 {
            assert!(pmp.check(probe, 1, PmpAccess::Read, PrivMode::User));
        }
    }
}

/// One random PMP entry (arbitrary mode, permissions, and placement).
fn arb_entry() -> impl Strategy<Value = PmpEntry> {
    (any::<bool>(), any::<bool>(), any::<bool>(), 0u8..4, any::<u32>()).prop_map(
        |(r, w, x, mode, addr)| {
            let mode = match mode {
                0 => PmpMode::Off,
                1 => PmpMode::Tor,
                2 => PmpMode::Na4,
                _ => PmpMode::Napot,
            };
            PmpEntry { r, w, x, mode, addr }
        },
    )
}

/// Reference model of one byte-check: walk entries lowest-first, the
/// first whose range contains the byte decides; no match falls back to
/// the privilege default. Mirrors the privileged-ISA wording
/// independently of the implementation's range caching.
fn model_check(entries: &[PmpEntry], addr: u32, access: PmpAccess, mode: PrivMode) -> bool {
    for (i, e) in entries.iter().enumerate() {
        let range = match e.mode {
            PmpMode::Off => None,
            PmpMode::Na4 => {
                let base = e.addr << 2;
                base.checked_add(4).map(|end| (base, end))
            }
            PmpMode::Napot => {
                let (base, size) = napot_decode(e.addr);
                base.checked_add(size).map(|end| (base, end))
            }
            PmpMode::Tor => {
                let lo = if i == 0 { 0 } else { entries[i - 1].addr << 2 };
                let hi = e.addr << 2;
                (lo < hi).then_some((lo, hi))
            }
        };
        if let Some((lo, hi)) = range {
            if addr >= lo && addr < hi {
                return match access {
                    PmpAccess::Read => e.r,
                    PmpAccess::Write => e.w,
                    PmpAccess::Exec => e.x,
                };
            }
        }
    }
    mode == PrivMode::Machine
}

/// Deny-by-default against the model: for any random entry file and
/// probe, the implementation and the model agree in both privilege
/// modes — in particular, a byte no entry matches is denied to U-mode
/// and allowed to M-mode.
fn check_against_model(entries: &[PmpEntry], addr: u32, access_sel: u8) {
    let mut pmp = Pmp::new();
    for (i, e) in entries.iter().enumerate() {
        pmp.set(i, *e);
    }
    let access = match access_sel % 3 {
        0 => PmpAccess::Read,
        1 => PmpAccess::Write,
        _ => PmpAccess::Exec,
    };
    for mode in [PrivMode::User, PrivMode::Machine] {
        assert_eq!(
            pmp.check(addr, 1, access, mode),
            model_check(entries, addr, access, mode),
            "{access:?} {mode:?} at {addr:#010x} over {entries:?}"
        );
    }
}

proptest! {
    #[test]
    fn napot_addr_round_trips_and_matches_exactly(region in napot_region()) {
        let (base, size) = region;
        check_napot_round_trip(base, size);
    }

    #[test]
    fn napot_cover_is_aligned_sound_and_encodable(
        base in any::<u32>(),
        size in 1u32..0x2_0000,
    ) {
        // Keep the window inside the address space so its end is sane.
        let base = base.min(u32::MAX - size);
        check_napot_cover(base, size);
    }

    #[test]
    fn tor_pairs_are_total_over_anchor_bound_and_probe(
        anchor in any::<u32>(),
        bound in any::<u32>(),
        probe in any::<u32>(),
    ) {
        check_tor_totality(anchor, bound, probe);
    }

    #[test]
    fn lowest_entry_priority_and_default_deny_match_the_model(
        entries in proptest::collection::vec(arb_entry(), 0..PMP_ENTRIES),
        addr in any::<u32>(),
        access_sel in any::<u8>(),
    ) {
        check_against_model(&entries, addr, access_sel);
    }
}
