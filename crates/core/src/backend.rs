//! The protection backends: a closed set of two.
//!
//! OPEC's isolation argument is architecture-agnostic: operations,
//! shadowing and the access matrix are defined over abstract
//! compartments, and only the last mile — *programming a protection
//! unit so the hardware enforces the per-operation view* — is
//! ISA-specific. The reproduction has exactly two such units, so
//! [`Backend`] is an enum of two variants and every per-backend
//! decision is one `match`:
//!
//! * [`Backend::Armv7m`] — the paper's platform. The ARMv7-M MPU wants
//!   eight prioritised power-of-two regions and expresses the
//!   live-stack boundary by disabling sub-regions (rounding the
//!   boundary down to `stack.size / 8`); its plan is an
//!   [`ArmRegionPlan`].
//! * [`Backend::Rv32Pmp`] — the §7 port. The RISC-V PMP wants sixteen
//!   lowest-wins TOR/NAPOT entries and expresses the stack boundary
//!   *exactly* with a TOR pair (granularity 4 bytes); its plan is a
//!   [`PmpPlan`].
//!
//! [`Backend::plan`] precomputes a [`RegionPlan`] from a
//! [`SystemPolicy`]; the switch path ([`RegionPlan::apply_op`])
//! reprograms the unit at every operation switch, and
//! [`RegionPlan::virtualize`] serves the region-file-too-small case
//! (MPU virtualization, §5.2) by swapping one peripheral window into a
//! reserved slot. Both units raise the same machine fault causes, so
//! the monitor classifies faults with [`FaultClass::from`] alone.
//!
//! A third backend would be a third variant here, a third [`RegionPlan`]
//! variant, and one arm in each `match` — plus a third
//! `opec_armv7m::Prot` variant for its checking model. The monitor, the
//! oracle and the evaluation only ever hold a [`Backend`] value; the
//! access-matrix oracle is backend-independent by construction, which
//! is what lets it check that the isolation guarantees survive a port.

use opec_armv7m::clock::costs;
use opec_armv7m::mpu::{region_size_for, MpuRegion, RegionAttr};
use opec_armv7m::{Board, FaultCause, Machine, MemRegion, Prot};
use opec_pmp::{napot_addr, napot_cover, PmpEntry, PmpMode, PmpUnit, PMP_ENTRY_WRITE};
use opec_vm::OpId;

use crate::layout::SystemPolicy;

/// Backend-neutral fault classification the monitor dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The protection unit denied the access (MPU MemManage / PMP
    /// access fault): a candidate for virtualization, otherwise a
    /// policy violation.
    Protection,
    /// Unprivileged access to privileged control space (ARM PPB bus
    /// fault / RISC-V CSR privilege trap): a candidate for core-
    /// peripheral load/store emulation.
    ControlPriv,
    /// Anything else (unmapped address, ...): never recoverable.
    Other,
}

impl From<FaultCause> for FaultClass {
    fn from(c: FaultCause) -> FaultClass {
        match c {
            FaultCause::MpuViolation => FaultClass::Protection,
            FaultCause::PpbUnprivileged => FaultClass::ControlPriv,
            FaultCause::Unmapped => FaultClass::Other,
        }
    }
}

/// Cost of one full protection-unit reprogramming, for the
/// per-backend switch-cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCostSummary {
    /// Protection registers written (MPU RBAR/RASR pairs, PMP
    /// cfg+addr pairs).
    pub writes: u32,
    /// Cycles those writes cost on the modelled machine.
    pub cycles: u64,
}

/// A protection backend: one ISA's machine construction and protection
/// unit programming strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The paper's platform: the ARMv7-M MPU (the default).
    #[default]
    Armv7m,
    /// The §7 port: the RISC-V PMP.
    Rv32Pmp,
}

/// Reserved virtualization slots on ARM (MPU regions 4–7).
const ARM_VIRT_SLOTS: usize = 4;
/// Reserved virtualization slots on PMP (entries 3–8: six, against the
/// ARM MPU's four — sixteen entries leave room even with the stack
/// pair and three background entries).
const PMP_VIRT_SLOTS: usize = 6;
/// First PMP virtualization entry.
const PMP_VIRT_BASE: usize = 3;
/// PMP Flash background entry (R+X).
const PMP_FLASH_ENTRY: usize = PMP_VIRT_BASE + PMP_VIRT_SLOTS;
/// PMP SRAM read-only background entry.
const PMP_SRAM_ENTRY: usize = PMP_FLASH_ENTRY + 1;

impl Backend {
    /// Every backend, in CLI-vocabulary order.
    pub const ALL: [Backend; 2] = [Backend::Armv7m, Backend::Rv32Pmp];

    /// Stable backend name (`"armv7m"`, `"rv32-pmp"`): the CLI
    /// vocabulary and report labels.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Armv7m => "armv7m",
            Backend::Rv32Pmp => "rv32-pmp",
        }
    }

    /// Resolves a CLI backend name; an unknown name is a usage error.
    pub fn from_name(name: &str) -> Result<Backend, String> {
        Backend::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| format!("unknown backend {name:?} (expected armv7m or rv32-pmp)"))
    }

    /// Resolves an optional backend flag into a list; `None` means
    /// every backend.
    pub fn list_from_flag(flag: Option<&str>) -> Result<Vec<Backend>, String> {
        match flag {
            None => Ok(Backend::ALL.to_vec()),
            Some(name) => Ok(vec![Backend::from_name(name)?]),
        }
    }

    /// Whether the ACES comparison stack exists on this backend. ACES
    /// compartmentalisation targets the ARMv7-M MPU; on other backends
    /// its cells are recorded as skips, never silently dropped.
    pub fn has_aces(self) -> bool {
        self == Backend::Armv7m
    }

    /// The backend itself. Kept because the repository's benchmark
    /// (`perfbench/`) builds against this name.
    pub fn dyn_backend(self) -> Backend {
        self
    }

    /// Builds a machine with this backend's protection unit installed
    /// (disabled — reset state — until [`Backend::enable`]).
    pub fn make_machine(self, board: Board) -> Machine {
        match self {
            Backend::Armv7m => Machine::new(board),
            Backend::Rv32Pmp => Machine::with_protection(board, Prot::Pmp(PmpUnit::new())),
        }
    }

    /// Generates the region plan for `policy`. Pure: same policy, same
    /// plan.
    pub fn plan(self, policy: &SystemPolicy) -> RegionPlan {
        match self {
            Backend::Armv7m => RegionPlan::Arm(ArmRegionPlan::new(policy)),
            Backend::Rv32Pmp => RegionPlan::Pmp(PmpPlan::new(policy)),
        }
    }

    /// Turns enforcement on (MPU ENABLE+PRIVDEFENA / PMP armed).
    pub fn enable(self, machine: &mut Machine) -> Result<(), String> {
        match (self, machine.protection_mut()) {
            (Backend::Armv7m, Prot::Mpu(mpu)) => {
                mpu.enabled = true;
                mpu.priv_default_enabled = true;
            }
            (Backend::Rv32Pmp, Prot::Pmp(unit)) => unit.enabled = true,
            (_, prot) => return Err(mismatch(prot)),
        }
        Ok(())
    }

    /// Number of reserved slots for peripheral-window virtualization
    /// (ARM: 4 MPU regions; PMP: 6 entries).
    pub fn virt_slots(self) -> usize {
        match self {
            Backend::Armv7m => ARM_VIRT_SLOTS,
            Backend::Rv32Pmp => PMP_VIRT_SLOTS,
        }
    }

    /// The hardware label of virtualization slot `slot` (ARM: MPU
    /// region `4 + slot`; PMP: entry `3 + slot`) — used in obs events
    /// so traces name real registers.
    pub fn virt_slot_label(self, slot: usize) -> u8 {
        match self {
            Backend::Armv7m => (ARM_VIRT_SLOTS + slot) as u8,
            Backend::Rv32Pmp => (PMP_VIRT_BASE + slot) as u8,
        }
    }

    /// Cycles one protection-register write costs.
    pub fn write_cost(self) -> u64 {
        match self {
            Backend::Armv7m => costs::MPU_REGION_WRITE,
            Backend::Rv32Pmp => PMP_ENTRY_WRITE,
        }
    }

    /// The stack-protection boundary for an operation entered with
    /// stack pointer `sp`: the live stack becomes `[stack.base,
    /// boundary)`. `None` when no usable live stack remains. ARM
    /// rounds `sp` down to a sub-region multiple; PMP's TOR bound
    /// rounds it down to a word.
    pub fn stack_boundary(self, stack: MemRegion, sp: u32) -> Option<u32> {
        match self {
            Backend::Armv7m => {
                let sub = stack.size / 8;
                let idx = ((sp.checked_sub(stack.base)?) / sub).min(8);
                (idx != 0).then(|| stack.base + idx * sub)
            }
            Backend::Rv32Pmp => {
                let boundary = sp & !3;
                (boundary > stack.base).then(|| boundary.min(stack.end()))
            }
        }
    }

    /// The granularity [`Backend::stack_boundary`] rounds to — the
    /// oracle uses it to predict the boundary independently.
    pub fn boundary_granularity(self, stack: MemRegion) -> u32 {
        match self {
            Backend::Armv7m => (stack.size / 8).max(1),
            Backend::Rv32Pmp => 4,
        }
    }
}

fn mismatch(prot: &Prot) -> String {
    format!("the machine's {} unit belongs to the other backend", prot.name())
}

/// Everything a backend precomputes from a [`SystemPolicy`]: region
/// files, entry files, cover geometry. The variant matches the
/// [`Backend`] that produced it.
#[derive(Debug, Clone)]
pub enum RegionPlan {
    /// An ARMv7-M MPU region plan.
    Arm(ArmRegionPlan),
    /// An RV32 PMP entry plan.
    Pmp(PmpPlan),
}

impl RegionPlan {
    /// How many protection registers [`RegionPlan::apply_op`] will
    /// write for `op` (the caller charges the clock *before* the writes
    /// so the emitted events carry post-charge timestamps, matching the
    /// hardware where the reprogramming has happened by the time
    /// anything observes it).
    pub fn op_write_count(&self, op: OpId) -> u32 {
        match self {
            RegionPlan::Arm(plan) => {
                let preload = plan.periph[usize::from(op)].len().min(ARM_VIRT_SLOTS);
                (plan.base.len() + 1 + preload) as u32
            }
            RegionPlan::Pmp(plan) => {
                let preload = plan.periph[usize::from(op)].len().min(PMP_VIRT_SLOTS);
                // Stack pair (2) + section + Flash + SRAM background.
                (5 + preload) as u32
            }
        }
    }

    /// Programs the unit for `op` with the live stack extending from
    /// the stack base up to `boundary` (exclusive). Contract: the
    /// first `min(periph_covers.len(), virt_slots())` peripheral
    /// covers are preloaded *index-aligned* into the reserved slots —
    /// the caller's virtualization bookkeeping relies on it. Does not
    /// charge the clock.
    pub fn apply_op(
        &self,
        machine: &mut Machine,
        op: OpId,
        boundary: u32,
    ) -> Result<SwitchCostSummary, String> {
        match (self, machine.protection_mut()) {
            (RegionPlan::Arm(plan), Prot::Mpu(mpu)) => {
                let regions = plan.op_regions(op, boundary);
                mpu.load_regions(&regions).map_err(|e| format!("MPU programming: {e}"))?;
                let writes = regions.len() as u32;
                Ok(SwitchCostSummary {
                    writes,
                    cycles: u64::from(writes) * costs::MPU_REGION_WRITE,
                })
            }
            (RegionPlan::Pmp(plan), Prot::Pmp(unit)) => {
                let entries = plan.op_entries(op, boundary);
                unit.load_entries(&entries);
                let writes = entries.len() as u32;
                Ok(SwitchCostSummary { writes, cycles: u64::from(writes) * PMP_ENTRY_WRITE })
            }
            (_, prot) => Err(mismatch(prot)),
        }
    }

    /// Swaps peripheral cover `widx` of `op` into reserved slot `slot`
    /// (one register write; the caller charges the clock).
    pub fn virtualize(
        &self,
        machine: &mut Machine,
        op: OpId,
        widx: usize,
        slot: usize,
    ) -> Result<(), String> {
        match (self, machine.protection_mut()) {
            (RegionPlan::Arm(plan), Prot::Mpu(mpu)) => {
                let region = plan.periph[usize::from(op)].get(widx).copied().ok_or_else(|| {
                    format!("no prepared MPU region for peripheral window {widx}")
                })?;
                mpu.set_region(ARM_VIRT_SLOTS + slot, region)
                    .map_err(|e| format!("MPU virtualization failed: {e}"))
            }
            (RegionPlan::Pmp(plan), Prot::Pmp(unit)) => {
                let entry = plan.periph[usize::from(op)]
                    .get(widx)
                    .copied()
                    .ok_or_else(|| format!("no prepared PMP entry for peripheral window {widx}"))?;
                unit.set_entry(PMP_VIRT_BASE + slot, entry);
                Ok(())
            }
            (_, prot) => Err(mismatch(prot)),
        }
    }
}

/// The ARMv7-M region plan: the paper's original MPU layout.
///
/// Regions 0–2 are shared by all operations (background, Flash
/// execute, stack with sub-regions managed at switch time), region 3
/// is the per-operation data section, regions 4–7 the first four
/// peripheral covers; further covers are virtualized round-robin.
#[derive(Debug, Clone)]
pub struct ArmRegionPlan {
    base: [(usize, MpuRegion); 3],
    sections: Vec<MpuRegion>,
    periph: Vec<Vec<MpuRegion>>,
    stack: MemRegion,
}

impl ArmRegionPlan {
    fn new(policy: &SystemPolicy) -> ArmRegionPlan {
        // Region 0: code + SRAM read-only (privileged RW) — the
        // background that lets unprivileged code read Flash, rodata,
        // the public section and the relocation table, while every
        // write needs a higher region. Unlike the paper's 4 GiB region
        // 0, ours stops at the peripheral space so unauthorised
        // peripheral *reads* are also denied.
        // Region 1: Flash executable. Region 2: the stack, read-write,
        // sub-regions managed per switch.
        let base = [
            (0, MpuRegion::new(0, 0x4000_0000, RegionAttr::priv_rw_unpriv_ro(true))),
            (
                1,
                MpuRegion::new(
                    policy.board.flash.base,
                    region_size_for(policy.board.flash.size),
                    RegionAttr::read_only(false),
                ),
            ),
            (2, MpuRegion::new(policy.stack.base, policy.stack.size, RegionAttr::read_write_xn())),
        ];
        let sections = policy
            .ops
            .iter()
            .map(|o| MpuRegion::new(o.section.base, o.section.size, RegionAttr::read_write_xn()))
            .collect();
        let periph = policy
            .ops
            .iter()
            .map(|o| {
                o.periph_covers
                    .iter()
                    .map(|c| MpuRegion::new(c.base, c.size, RegionAttr::read_write_xn()))
                    .collect()
            })
            .collect();
        ArmRegionPlan { base, sections, periph, stack: policy.stack }
    }

    /// The static regions 0–2 shared by every operation.
    pub fn base_regions(&self) -> [(usize, MpuRegion); 3] {
        self.base
    }

    /// The region-3 (operation data section) region for `op`.
    pub fn section_region(&self, op: OpId) -> MpuRegion {
        self.sections[usize::from(op)]
    }

    /// The prepared peripheral-cover regions for `op`.
    pub fn periph_regions(&self, op: OpId) -> &[MpuRegion] {
        &self.periph[usize::from(op)]
    }

    fn op_regions(&self, op: OpId, boundary: u32) -> Vec<(usize, MpuRegion)> {
        // Translate the exact boundary back into the sub-region
        // disable mask: sub-regions `idx..8` (previous operations'
        // frames) are disabled. `boundary == stack.end()` is the whole
        // stack (reset state), mask 0.
        let sub = self.stack.size / 8;
        let idx = ((boundary.saturating_sub(self.stack.base)) / sub).min(8);
        let srd = if idx >= 8 { 0 } else { (0xFFu32 << idx) as u8 };
        let mut regions: Vec<(usize, MpuRegion)> = Vec::with_capacity(8);
        for (n, mut r) in self.base {
            if n == 2 {
                r.srd = srd;
            }
            regions.push((n, r));
        }
        regions.push((3, self.section_region(op)));
        for (i, r) in self.periph[usize::from(op)].iter().take(ARM_VIRT_SLOTS).enumerate() {
            regions.push((ARM_VIRT_SLOTS + i, *r));
        }
        regions
    }
}

/// The PMP entry plan: per-operation entry files precomputed from a
/// [`SystemPolicy`].
///
/// Entry order (lowest wins, so the most specific comes first):
///
/// | # | what | mode | perms |
/// |---|------|------|-------|
/// | 0–1 | live stack `[base, boundary)` | TOR pair | RW |
/// | 2 | operation data section | NAPOT | RW |
/// | 3–8 | peripheral covers (first six) | NAPOT | RW |
/// | 9 | Flash | NAPOT | R+X |
/// | 10 | SRAM background | NAPOT | R |
#[derive(Debug, Clone)]
pub struct PmpPlan {
    stack: MemRegion,
    sections: Vec<PmpEntry>,
    periph: Vec<Vec<PmpEntry>>,
    flash: PmpEntry,
    sram: PmpEntry,
}

fn napot_entry(window: MemRegion, w: bool, x: bool) -> PmpEntry {
    let (base, size) = napot_cover(window.base, window.size);
    PmpEntry { r: true, w, x, mode: PmpMode::Napot, addr: napot_addr(base, size) }
}

impl PmpPlan {
    fn new(policy: &SystemPolicy) -> PmpPlan {
        let rw = |window: MemRegion| napot_entry(window, true, false);
        PmpPlan {
            stack: policy.stack,
            sections: policy.ops.iter().map(|o| rw(o.section)).collect(),
            periph: policy
                .ops
                .iter()
                .map(|o| o.periph_covers.iter().map(|c| rw(*c)).collect())
                .collect(),
            flash: napot_entry(policy.board.flash, false, true),
            sram: napot_entry(policy.board.sram, false, false),
        }
    }

    /// The entry protecting `op`'s data section.
    pub fn section_entry(&self, op: OpId) -> PmpEntry {
        self.sections[usize::from(op)]
    }

    /// The prepared peripheral-cover entries for `op`.
    pub fn periph_entries(&self, op: OpId) -> &[PmpEntry] {
        &self.periph[usize::from(op)]
    }

    /// The Flash (R+X) and SRAM (read-only) background entries.
    pub fn background(&self) -> (PmpEntry, PmpEntry) {
        (self.flash, self.sram)
    }

    fn op_entries(&self, op: OpId, boundary: u32) -> Vec<(usize, PmpEntry)> {
        let mut entries: Vec<(usize, PmpEntry)> = Vec::with_capacity(11);
        // The live-stack TOR pair: entry 0 (any mode; only its addr
        // matters) anchors the bottom, entry 1 bounds the top exactly
        // at the boundary — no sub-region rounding.
        entries.push((0, PmpEntry { addr: self.stack.base >> 2, ..PmpEntry::OFF }));
        entries.push((
            1,
            PmpEntry { r: true, w: true, x: false, mode: PmpMode::Tor, addr: boundary >> 2 },
        ));
        entries.push((2, self.section_entry(op)));
        for (i, e) in self.periph[usize::from(op)].iter().take(PMP_VIRT_SLOTS).enumerate() {
            entries.push((PMP_VIRT_BASE + i, *e));
        }
        entries.push((PMP_FLASH_ENTRY, self.flash));
        entries.push((PMP_SRAM_ENTRY, self.sram));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> MemRegion {
        MemRegion::new(0x2002_F000, 0x1000)
    }

    #[test]
    fn arm_boundary_rounds_down_to_subregions() {
        let b = Backend::Armv7m;
        let s = stack();
        // SP in the middle of sub-region 5 rounds down to its base.
        assert_eq!(b.stack_boundary(s, s.base + 5 * 0x200 + 0x57), Some(s.base + 5 * 0x200));
        // SP at the very top keeps the whole stack.
        assert_eq!(b.stack_boundary(s, s.end()), Some(s.end()));
        // SP inside the lowest sub-region leaves nothing usable.
        assert_eq!(b.stack_boundary(s, s.base + 0x1FF), None);
        assert_eq!(b.boundary_granularity(s), 0x200);
    }

    #[test]
    fn pmp_boundary_is_word_granular() {
        let b = Backend::Rv32Pmp;
        let s = stack();
        assert_eq!(b.stack_boundary(s, s.base + 0x57), Some(s.base + 0x54));
        assert_eq!(b.stack_boundary(s, s.end()), Some(s.end()));
        // SP at (or rounding to) the base leaves no live stack.
        assert_eq!(b.stack_boundary(s, s.base + 3), None);
        assert_eq!(b.stack_boundary(s, s.base), None);
        assert_eq!(b.boundary_granularity(s), 4);
    }

    #[test]
    fn fault_classes() {
        assert_eq!(FaultClass::from(FaultCause::MpuViolation), FaultClass::Protection);
        assert_eq!(FaultClass::from(FaultCause::PpbUnprivileged), FaultClass::ControlPriv);
        assert_eq!(FaultClass::from(FaultCause::Unmapped), FaultClass::Other);
    }

    #[test]
    fn backend_names_parse_and_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Ok(b));
            assert_eq!(b.dyn_backend(), b);
        }
        assert_eq!(Backend::Armv7m.name(), "armv7m");
        assert_eq!(Backend::Rv32Pmp.name(), "rv32-pmp");
        assert_eq!(Backend::default(), Backend::Armv7m);
        assert!(Backend::Armv7m.has_aces());
        assert!(!Backend::Rv32Pmp.has_aces());
        assert_eq!(Backend::list_from_flag(None).unwrap(), Backend::ALL.to_vec());
        assert_eq!(Backend::list_from_flag(Some("rv32-pmp")).unwrap(), vec![Backend::Rv32Pmp]);
        let err = Backend::list_from_flag(Some("avr")).unwrap_err();
        assert!(err.contains("avr") && err.contains("armv7m or rv32-pmp"), "{err}");
    }

    #[test]
    fn each_backend_builds_its_own_unit() {
        let board = Board::stm32f4_discovery();
        assert_eq!(Backend::Armv7m.make_machine(board).protection().name(), "armv7m-mpu");
        assert_eq!(Backend::Rv32Pmp.make_machine(board).protection().name(), "rv32-pmp");
        // A backend cannot arm the other backend's unit.
        let mut pmp_machine = Backend::Rv32Pmp.make_machine(board);
        let err = Backend::Armv7m.enable(&mut pmp_machine).unwrap_err();
        assert!(err.contains("rv32-pmp"), "{err}");
        assert!(!pmp_machine.protection().enforcing());
    }
}
