//! Property tests for snapshot/restore of the machine's protection
//! unit, on both [`Prot`] variants.
//!
//! Each case programs a unit at random, captures it (a snapshot, or a
//! delta against one), reprograms the live unit at random, and rolls
//! it back. The rolled-back unit must then decide exactly like the
//! captured one — `check_data` and `check_exec` on sampled addresses,
//! both directions, both privilege levels — and must still emit into
//! the live machine's observability handle, never the captured unit's.
//! Restoring a snapshot whose unit is the *other* variant goes through
//! the same copy and obeys the same two rules.

#![recursion_limit = "256"]

use std::cell::RefCell;
use std::rc::Rc;

use opec_armv7m::mpu::{MpuRegion, RegionAttr, MPU_MIN_SUBREGION_REGION_SIZE, MPU_NUM_REGIONS};
use opec_armv7m::{Board, Machine, Mode, Mpu, Prot};
use opec_obs::{Obs, Sink, Stamped};
use opec_pmp::{napot_addr, PmpEntry, PmpMode, PmpUnit, PMP_ENTRIES};
use proptest::prelude::*;

/// Counts the events it receives.
#[derive(Default)]
struct Count(u64);

impl Sink for Count {
    fn record(&mut self, _ev: Stamped) {
        self.0 += 1;
    }
}

fn counted() -> (Obs, Rc<RefCell<Count>>) {
    let count = Rc::new(RefCell::new(Count::default()));
    (Obs::single(count.clone()), count)
}

/// splitmix64: the case's programming is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bit(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

const SRAM: u32 = 0x2000_0000;
/// The window random regions and entries land in.
const SPAN: u32 = 0x4000;

fn fresh(pmp: bool) -> Prot {
    if pmp {
        Prot::Pmp(PmpUnit::new())
    } else {
        Prot::Mpu(Mpu::new())
    }
}

/// Reprograms `prot` at random: control bits plus a few regions or
/// entries inside the first [`SPAN`] bytes of SRAM.
fn program(prot: &mut Prot, rng: &mut Rng) {
    match prot {
        Prot::Mpu(mpu) => {
            mpu.enabled = rng.bit();
            mpu.priv_default_enabled = rng.bit();
            let attrs = [
                RegionAttr::full_access(),
                RegionAttr::read_write_xn(),
                RegionAttr::read_only(false),
                RegionAttr::priv_rw_unpriv_ro(true),
                RegionAttr::priv_only(),
            ];
            for _ in 0..=rng.below(MPU_NUM_REGIONS as u64) {
                let size = 1u32 << (5 + rng.below(9));
                let base = SRAM + rng.below(u64::from(SPAN / size)) as u32 * size;
                let mut region =
                    MpuRegion::new(base, size, attrs[rng.below(attrs.len() as u64) as usize]);
                if size >= MPU_MIN_SUBREGION_REGION_SIZE {
                    region.srd = rng.next() as u8;
                }
                let slot = rng.below(MPU_NUM_REGIONS as u64) as usize;
                mpu.set_region(slot, region).expect("generated region validates");
            }
        }
        Prot::Pmp(unit) => {
            unit.enabled = rng.bit();
            for _ in 0..=rng.below(PMP_ENTRIES as u64) {
                let word = SRAM + rng.below(u64::from(SPAN / 4)) as u32 * 4;
                let size = 8u32 << rng.below(8);
                let napot_base = SRAM + rng.below(u64::from(SPAN / size)) as u32 * size;
                let (mode, addr) = match rng.below(4) {
                    0 => (PmpMode::Off, word >> 2),
                    1 => (PmpMode::Tor, word >> 2),
                    2 => (PmpMode::Na4, word >> 2),
                    _ => (PmpMode::Napot, napot_addr(napot_base, size)),
                };
                let entry = PmpEntry { r: rng.bit(), w: rng.bit(), x: rng.bit(), mode, addr };
                unit.set_entry(rng.below(PMP_ENTRIES as u64) as usize, entry);
            }
        }
    }
}

/// One register write on the live unit: it must reach `obs`.
fn probe_write(prot: &mut Prot) {
    match prot {
        Prot::Mpu(mpu) => mpu
            .set_region(0, MpuRegion::new(SRAM, 0x100, RegionAttr::full_access()))
            .expect("probe region validates"),
        Prot::Pmp(unit) => unit.set_entry(0, PmpEntry::OFF),
    }
}

/// `live` decides exactly like `golden` on sampled addresses.
fn assert_same_decisions(live: &Prot, golden: &Prot, rng: &mut Rng) {
    assert_eq!(live.name(), golden.name());
    assert_eq!(live.enforcing(), golden.enforcing());
    let grid = (0..SPAN + 0x100).step_by(0x3C).map(|off| SRAM + off);
    let random = (0..64).map(|_| SRAM + rng.below(u64::from(SPAN)) as u32);
    for addr in grid.chain(random).chain([0x0800_0000, 0x4000_0000, 0xE000_E000]) {
        for mode in [Mode::Unprivileged, Mode::Privileged] {
            assert_eq!(
                live.check_exec(addr, mode),
                golden.check_exec(addr, mode),
                "exec {addr:#010x} {mode:?}"
            );
            for write in [false, true] {
                for len in [1, 4] {
                    assert_eq!(
                        live.check_data(addr, len, write, mode),
                        golden.check_data(addr, len, write, mode),
                        "data {addr:#010x}+{len} write={write} {mode:?}"
                    );
                }
            }
        }
    }
}

/// After the roll-back the unit must emit into `live`, not into the
/// handle the captured unit carried.
fn assert_live_obs_kept(m: &mut Machine, live: &Rc<RefCell<Count>>, stale: &Rc<RefCell<Count>>) {
    let (live_before, stale_before) = (live.borrow().0, stale.borrow().0);
    probe_write(m.protection_mut());
    assert_eq!(live.borrow().0, live_before + 1, "write did not reach the live handle");
    assert_eq!(stale.borrow().0, stale_before, "write reached the captured unit's handle");
}

/// Snapshot a unit of one variant, scramble a machine holding
/// `live_pmp`'s variant, restore, compare.
fn check_restore(seed: u64, snap_pmp: bool, live_pmp: bool) {
    let board = Board::stm32f4_discovery();
    let mut rng = Rng(seed);
    let (stale_obs, stale) = counted();
    let mut golden_machine = Machine::with_protection(board, fresh(snap_pmp));
    golden_machine.protection_mut().attach_obs(stale_obs);
    program(golden_machine.protection_mut(), &mut rng);
    let snap = golden_machine.snapshot().expect("no devices to refuse a snapshot");
    let golden = golden_machine.protection().clone();

    let mut m = if snap_pmp == live_pmp {
        golden_machine
    } else {
        Machine::with_protection(board, fresh(live_pmp))
    };
    let (live_obs, live) = counted();
    m.protection_mut().attach_obs(live_obs);
    program(m.protection_mut(), &mut rng);
    m.restore(&snap);

    assert_same_decisions(m.protection(), &golden, &mut rng);
    assert_live_obs_kept(&mut m, &live, &stale);
}

/// Park a programmed unit as a delta, restore the golden snapshot,
/// scramble, unpark, compare with the parked unit.
fn check_delta(seed: u64, pmp: bool) {
    let mut rng = Rng(seed);
    let (stale_obs, stale) = counted();
    let mut m = Machine::with_protection(Board::stm32f4_discovery(), fresh(pmp));
    m.protection_mut().attach_obs(stale_obs);
    program(m.protection_mut(), &mut rng);
    let snap = m.snapshot().expect("no devices to refuse a snapshot");
    program(m.protection_mut(), &mut rng);
    let delta = m.delta().expect("a snapshot is armed");
    let parked = m.protection().clone();

    m.restore(&snap);
    let (live_obs, live) = counted();
    m.protection_mut().attach_obs(live_obs);
    program(m.protection_mut(), &mut rng);
    m.apply_delta(&delta).expect("delta matches the armed snapshot");

    assert_same_decisions(m.protection(), &parked, &mut rng);
    assert_live_obs_kept(&mut m, &live, &stale);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn restore_reproduces_the_snapshot_unit_and_keeps_the_live_obs(
        seed in any::<u64>(),
        snap_pmp in any::<bool>(),
        live_pmp in any::<bool>(),
    ) {
        check_restore(seed, snap_pmp, live_pmp);
    }

    #[test]
    fn apply_delta_reproduces_the_parked_unit_and_keeps_the_live_obs(
        seed in any::<u64>(),
        pmp in any::<bool>(),
    ) {
        check_delta(seed, pmp);
    }
}

#[test]
fn restore_crosses_variants_in_both_directions() {
    for seed in 0..4 {
        check_restore(seed, true, false);
        check_restore(seed, false, true);
    }
}
