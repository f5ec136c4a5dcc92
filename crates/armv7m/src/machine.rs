//! The composed machine: Flash, SRAM, MPU, privilege, clock, devices.
//!
//! [`Machine`] is the single chokepoint for every memory access the
//! simulated firmware makes. It applies, in order:
//!
//! 1. the PPB privilege rule — unprivileged access to
//!    `0xE0000000..0xE0100000` raises a [`Exception::BusFault`];
//! 2. the MPU permission check — a denial raises
//!    [`Exception::MemManage`];
//! 3. routing — Flash, SRAM, a registered [`MmioDevice`], the built-in
//!    PPB register file, or a BusFault for unmapped addresses.
//!
//! The OPEC-Monitor performs its privileged work through the same API
//! with [`Mode::Privileged`], exactly as the paper's monitor is ordinary
//! privileged code.

use std::collections::HashMap;

use crate::board::Board;
use crate::clock::Clock;
use crate::exception::{AccessKind, Exception, FaultCause, FaultInfo};
use crate::mem::{ppb, AddressClass, MemRegion};
use crate::mpu::{Mpu, MpuDecision};
use crate::prot::Prot;
use crate::Mode;

/// A memory-mapped peripheral model.
///
/// Devices own a fixed address window; reads and writes arrive with the
/// offset from the window base. Device register semantics (FIFO pops,
/// status flags, side effects) live in the `opec-devices` crate.
pub trait MmioDevice {
    /// Stable device name (used for peripheral address maps and traces).
    fn name(&self) -> &str;
    /// The address window the device occupies.
    fn region(&self) -> MemRegion;
    /// Reads `len` (1, 2 or 4) bytes at `offset` from the window base.
    fn read(&mut self, offset: u32, len: u32) -> u32;
    /// Writes `len` bytes of `value` at `offset` from the window base.
    fn write(&mut self, offset: u32, len: u32, value: u32);
    /// Advances device-internal time (DMA progress, baud timing, ...).
    fn tick(&mut self, _cycles: u64) {}
    /// Returns `true` if the device is asserting its interrupt line.
    fn irq_pending(&self) -> bool {
        false
    }
    /// Downcasting hook so hosts (test harnesses, workload drivers) can
    /// reach a device's typed interface, e.g. to feed a UART.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
    /// Clones the device's full state for snapshotting. The default
    /// returns `None`, which makes [`Machine::snapshot`] fail with the
    /// device's name: a device that cannot reproduce its state must
    /// opt out of snapshot/restore loudly, not silently desync.
    fn clone_box(&self) -> Option<Box<dyn MmioDevice>> {
        None
    }
    /// Borrowing downcast hook for the restore fast path. Devices that
    /// support in-place state copy return `Some(self)`; the default
    /// opts out, which routes restores through [`Self::clone_box`].
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
    /// Copies `src`'s state into `self` without allocating, returning
    /// `false` when the concrete types differ (or the device opts
    /// out). [`Machine::restore`] and [`Machine::apply_delta`] run
    /// every spawn/quantum of a snapshot-pooled fleet, so reusing the
    /// existing boxes instead of re-cloning each device is what keeps
    /// restore in the microsecond range for small firmwares.
    fn copy_state_from(&mut self, _src: &dyn MmioDevice) -> bool {
        false
    }
}

/// The standard [`MmioDevice::copy_state_from`] body for a `Clone`
/// device: borrow-downcast `src` to `T` and `clone_from` it in place
/// (reusing `T`'s buffers where its `Clone` impl allows).
pub fn copy_device_state<T: MmioDevice + Clone + 'static>(
    dst: &mut T,
    src: &dyn MmioDevice,
) -> bool {
    match src.as_any().and_then(|a| a.downcast_ref::<T>()) {
        Some(s) => {
            dst.clone_from(s);
            true
        }
        None => false,
    }
}

/// Counters the evaluation reads out of the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Data loads performed.
    pub loads: u64,
    /// Data stores performed.
    pub stores: u64,
    /// Peripheral (device or PPB) accesses performed.
    pub mmio_accesses: u64,
    /// MemManage faults raised.
    pub mem_faults: u64,
    /// Bus faults raised.
    pub bus_faults: u64,
}

/// Dirty-page granularity for snapshot tracking, in bytes. Small enough
/// that a typical campaign run touching a few KiB of SRAM restores in a
/// handful of `memcpy`s, large enough that the bitmap stays tiny.
const SNAP_PAGE: usize = 256;

/// A full machine checkpoint taken by [`Machine::snapshot`].
///
/// Holds golden copies of Flash, SRAM, devices, MPU, clock and counters.
/// [`Machine::restore`] copies back only the pages dirtied since the
/// snapshot was taken (tracked by a write barrier in the store path), so
/// a restore after a short run costs microseconds, not a full memcpy of
/// the address space.
pub struct MachineSnapshot {
    id: u64,
    mode: Mode,
    clock: Clock,
    current_pc: u32,
    stats: MachineStats,
    prot: Prot,
    ppb_regs: HashMap<u32, u32>,
    flash: Vec<u8>,
    sram: Vec<u8>,
    devices: Vec<Box<dyn MmioDevice>>,
}

/// The divergence of a machine from the golden snapshot its dirty
/// bitmap is armed against, captured by [`Machine::delta`].
///
/// Where [`MachineSnapshot`] holds full golden copies of Flash and
/// SRAM, a delta holds only the dirtied pages plus register-level
/// state, so thousands of parked logical devices forked from one
/// golden image cost a few pages each instead of a full address space.
pub struct MachineDelta {
    /// Snapshot id the pages are relative to; [`Machine::apply_delta`]
    /// refuses a machine armed against any other snapshot.
    snap_id: u64,
    mode: Mode,
    clock: Clock,
    current_pc: u32,
    stats: MachineStats,
    prot: Prot,
    ppb_regs: HashMap<u32, u32>,
    /// `(byte offset, page contents)` for each dirty Flash page.
    flash_pages: Vec<(usize, Vec<u8>)>,
    /// `(byte offset, page contents)` for each dirty SRAM page.
    sram_pages: Vec<(usize, Vec<u8>)>,
    devices: Vec<Box<dyn MmioDevice>>,
}

impl MachineDelta {
    /// Total bytes of page payload the delta carries — the per-device
    /// memory cost a fleet pays to keep this device parked.
    pub fn page_bytes(&self) -> usize {
        self.flash_pages.iter().map(|(_, p)| p.len()).sum::<usize>()
            + self.sram_pages.iter().map(|(_, p)| p.len()).sum::<usize>()
    }
}

/// The simulated microcontroller.
pub struct Machine {
    /// Board profile (flash/SRAM geometry).
    pub board: Board,
    flash: Vec<u8>,
    sram: Vec<u8>,
    /// The memory-protection unit consulted on every checked access
    /// (ARMv7-M MPU by default; backends choose the unit).
    prot: Prot,
    /// Current execution privilege.
    pub mode: Mode,
    /// Cycle clock.
    pub clock: Clock,
    /// PC of the instruction currently executing; recorded into fault
    /// information so handlers can fetch and decode it.
    pub current_pc: u32,
    /// Access counters.
    pub stats: MachineStats,
    devices: Vec<Box<dyn MmioDevice>>,
    /// Backing store for PPB registers without dedicated models.
    ppb_regs: HashMap<u32, u32>,
    /// Dirty-page bitmaps relative to snapshot `snap_id`. Empty until a
    /// snapshot is taken (tracking costs nothing before that).
    flash_dirty: Vec<u64>,
    sram_dirty: Vec<u64>,
    /// Id of the snapshot the dirty bits are relative to (0 = none).
    snap_id: u64,
    next_snap_id: u64,
}

impl Machine {
    /// Creates a machine for `board` with zeroed Flash and SRAM, MPU
    /// disabled, running privileged (the reset state).
    pub fn new(board: Board) -> Machine {
        Machine::with_protection(board, Prot::Mpu(Mpu::new()))
    }

    /// Creates a machine for `board` with a caller-chosen protection
    /// unit (backends install their own model here).
    pub fn with_protection(board: Board, prot: Prot) -> Machine {
        Machine {
            board,
            flash: vec![0; board.flash.size as usize],
            sram: vec![0; board.sram.size as usize],
            prot,
            mode: Mode::Privileged,
            clock: Clock::new(),
            current_pc: board.flash.base,
            stats: MachineStats::default(),
            devices: Vec::new(),
            ppb_regs: HashMap::new(),
            flash_dirty: Vec::new(),
            sram_dirty: Vec::new(),
            snap_id: 0,
            next_snap_id: 1,
        }
    }

    /// The installed protection unit.
    pub fn protection(&self) -> &Prot {
        &self.prot
    }

    /// The installed protection unit, mutably.
    pub fn protection_mut(&mut self) -> &mut Prot {
        &mut self.prot
    }

    /// The installed unit as the ARMv7-M [`Mpu`], if it is one.
    pub fn try_mpu(&self) -> Option<&Mpu> {
        match &self.prot {
            Prot::Mpu(mpu) => Some(mpu),
            Prot::Pmp(_) => None,
        }
    }

    /// The installed unit as the ARMv7-M [`Mpu`].
    ///
    /// Panics if the PMP is installed — for ARM-only call sites (ACES
    /// runtime, ARMv7-M tests) where the other unit is a logic error,
    /// not a recoverable condition.
    pub fn mpu(&self) -> &Mpu {
        self.try_mpu().expect("machine protection unit is not the ARMv7-M MPU")
    }

    /// The installed unit as a mutable [`Mpu`]; panics like
    /// [`Machine::mpu`].
    pub fn mpu_mut(&mut self) -> &mut Mpu {
        match &mut self.prot {
            Prot::Mpu(mpu) => mpu,
            Prot::Pmp(_) => panic!("machine protection unit is not the ARMv7-M MPU"),
        }
    }

    /// Marks the pages covering `off..off + len` dirty. No-op until a
    /// snapshot has armed the bitmap.
    fn mark_dirty(bits: &mut [u64], off: usize, len: usize) {
        if bits.is_empty() || len == 0 {
            return;
        }
        let first = off / SNAP_PAGE;
        let last = (off + len - 1) / SNAP_PAGE;
        for page in first..=last {
            bits[page / 64] |= 1u64 << (page % 64);
        }
    }

    /// Captures a full checkpoint of the machine and arms dirty-page
    /// tracking so a later [`Machine::restore`] of this snapshot copies
    /// back only what the run touched. Fails if any registered device
    /// does not implement [`MmioDevice::clone_box`].
    pub fn snapshot(&mut self) -> Result<MachineSnapshot, String> {
        let mut devices = Vec::with_capacity(self.devices.len());
        for d in &self.devices {
            devices.push(
                d.clone_box()
                    .ok_or_else(|| format!("device {} does not support snapshotting", d.name()))?,
            );
        }
        let id = self.next_snap_id;
        self.next_snap_id += 1;
        self.snap_id = id;
        self.flash_dirty = vec![0; self.flash.len().div_ceil(SNAP_PAGE).div_ceil(64)];
        self.sram_dirty = vec![0; self.sram.len().div_ceil(SNAP_PAGE).div_ceil(64)];
        Ok(MachineSnapshot {
            id,
            mode: self.mode,
            clock: self.clock.clone(),
            current_pc: self.current_pc,
            stats: self.stats,
            prot: self.prot.clone(),
            ppb_regs: self.ppb_regs.clone(),
            flash: self.flash.clone(),
            sram: self.sram.clone(),
            devices,
        })
    }

    /// Rolls the machine back to `snap`. When `snap` is the snapshot the
    /// dirty bitmap is armed against (the fork-server pattern: snapshot
    /// once, restore per seed), only dirtied pages are copied; restoring
    /// any other snapshot falls back to a full memory copy and re-arms
    /// tracking against it.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        if self.snap_id == snap.id && !self.flash_dirty.is_empty() {
            Self::copy_dirty(&mut self.flash, &snap.flash, &mut self.flash_dirty);
            Self::copy_dirty(&mut self.sram, &snap.sram, &mut self.sram_dirty);
        } else {
            self.flash.copy_from_slice(&snap.flash);
            self.sram.copy_from_slice(&snap.sram);
            self.flash_dirty = vec![0; self.flash.len().div_ceil(SNAP_PAGE).div_ceil(64)];
            self.sram_dirty = vec![0; self.sram.len().div_ceil(SNAP_PAGE).div_ceil(64)];
            self.snap_id = snap.id;
        }
        self.mode = snap.mode;
        self.clock = snap.clock.clone();
        self.current_pc = snap.current_pc;
        self.stats = snap.stats;
        self.prot.copy_from(&snap.prot);
        self.ppb_regs.clone_from(&snap.ppb_regs);
        self.restore_devices(&snap.devices, "snapshotted");
    }

    /// Restores device state from `src` — in place when every device
    /// supports [`MmioDevice::copy_state_from`] (no allocation, the
    /// hot fleet path), falling back to a full re-clone otherwise.
    /// The fallback re-clones every device, so a partial in-place pass
    /// cannot leave mixed state behind.
    fn restore_devices(&mut self, src: &[Box<dyn MmioDevice>], what: &str) {
        let mut in_place = self.devices.len() == src.len();
        if in_place {
            for (dst, s) in self.devices.iter_mut().zip(src) {
                if !dst.copy_state_from(s.as_ref()) {
                    in_place = false;
                    break;
                }
            }
        }
        if !in_place {
            self.devices.clear();
            for d in src {
                self.devices.push(
                    d.clone_box().unwrap_or_else(|| panic!("{what} device must stay cloneable")),
                );
            }
        }
    }

    fn copy_dirty(dst: &mut [u8], golden: &[u8], bits: &mut [u64]) {
        for (w, word) in bits.iter_mut().enumerate() {
            let mut v = *word;
            while v != 0 {
                let b = v.trailing_zeros() as usize;
                v &= v - 1;
                let start = (w * 64 + b) * SNAP_PAGE;
                let end = (start + SNAP_PAGE).min(dst.len());
                if start < dst.len() {
                    dst[start..end].copy_from_slice(&golden[start..end]);
                }
            }
            *word = 0;
        }
    }

    fn dirty_pages(mem: &[u8], bits: &[u64]) -> Vec<(usize, Vec<u8>)> {
        let mut pages = Vec::new();
        for (w, word) in bits.iter().enumerate() {
            let mut v = *word;
            while v != 0 {
                let b = v.trailing_zeros() as usize;
                v &= v - 1;
                let start = (w * 64 + b) * SNAP_PAGE;
                if start < mem.len() {
                    let end = (start + SNAP_PAGE).min(mem.len());
                    pages.push((start, mem[start..end].to_vec()));
                }
            }
        }
        pages
    }

    /// Captures the machine's divergence from the armed snapshot: the
    /// dirtied pages plus the (small) register-level state. The dirty
    /// bitmap is read without being cleared, so a subsequent
    /// [`Machine::restore`] of the golden snapshot undoes exactly these
    /// pages — the park half of the fleet scheduler's park/unpark
    /// cycle. Fails when no snapshot is armed or a device cannot clone
    /// its state.
    pub fn delta(&self) -> Result<MachineDelta, String> {
        if self.snap_id == 0 {
            return Err("delta requires an armed snapshot (call snapshot first)".into());
        }
        let mut devices = Vec::with_capacity(self.devices.len());
        for d in &self.devices {
            devices.push(
                d.clone_box()
                    .ok_or_else(|| format!("device {} does not support snapshotting", d.name()))?,
            );
        }
        Ok(MachineDelta {
            snap_id: self.snap_id,
            mode: self.mode,
            clock: self.clock.clone(),
            current_pc: self.current_pc,
            stats: self.stats,
            prot: self.prot.clone(),
            ppb_regs: self.ppb_regs.clone(),
            flash_pages: Self::dirty_pages(&self.flash, &self.flash_dirty),
            sram_pages: Self::dirty_pages(&self.sram, &self.sram_dirty),
            devices,
        })
    }

    /// Re-applies a delta captured by [`Machine::delta`] onto a machine
    /// freshly restored to the same golden snapshot (the unpark half).
    /// Pages are re-marked dirty so the next restore-to-golden undoes
    /// them again. Fails on a snapshot-id mismatch — applying a delta
    /// over the wrong golden image would silently corrupt device state.
    pub fn apply_delta(&mut self, d: &MachineDelta) -> Result<(), String> {
        if self.snap_id != d.snap_id {
            return Err(format!(
                "delta is relative to snapshot {} but the machine is armed against {}",
                d.snap_id, self.snap_id
            ));
        }
        for (start, page) in &d.flash_pages {
            self.flash[*start..start + page.len()].copy_from_slice(page);
            Self::mark_dirty(&mut self.flash_dirty, *start, page.len());
        }
        for (start, page) in &d.sram_pages {
            self.sram[*start..start + page.len()].copy_from_slice(page);
            Self::mark_dirty(&mut self.sram_dirty, *start, page.len());
        }
        self.mode = d.mode;
        self.clock = d.clock.clone();
        self.current_pc = d.current_pc;
        self.stats = d.stats;
        self.prot.copy_from(&d.prot);
        self.ppb_regs.clone_from(&d.ppb_regs);
        self.restore_devices(&d.devices, "parked");
        Ok(())
    }

    /// Registers a memory-mapped device. Returns an error if its window
    /// overlaps an already registered device.
    pub fn add_device(&mut self, dev: Box<dyn MmioDevice>) -> Result<(), String> {
        let region = dev.region();
        for existing in &self.devices {
            if existing.region().overlaps(&region) {
                return Err(format!(
                    "device {} overlaps {} at {:#010x}",
                    dev.name(),
                    existing.name(),
                    region.base
                ));
            }
        }
        self.devices.push(dev);
        Ok(())
    }

    /// Looks a registered device up by name.
    pub fn device_mut(&mut self, name: &str) -> Option<&mut (dyn MmioDevice + '_)> {
        self.devices.iter_mut().find(|d| d.name() == name).map(|d| d.as_mut() as _)
    }

    /// Looks a device up by name and downcasts it to its concrete type.
    pub fn device_as<T: 'static>(&mut self, name: &str) -> Option<&mut T> {
        self.devices
            .iter_mut()
            .find(|d| d.name() == name)
            .and_then(|d| d.as_any_mut().downcast_mut::<T>())
    }

    /// Advances all devices by `cycles`. On the interpreter's per-ALU-op
    /// hot path — inline so the no-device case folds to a loop over an
    /// empty slice.
    #[inline]
    pub fn tick_devices(&mut self, cycles: u64) {
        for d in &mut self.devices {
            d.tick(cycles);
        }
    }

    /// Returns the names of devices currently asserting interrupts.
    pub fn pending_irqs(&self) -> Vec<&str> {
        self.devices.iter().filter(|d| d.irq_pending()).map(|d| d.name()).collect()
    }

    fn fault(
        &self,
        address: u32,
        len: u32,
        kind: AccessKind,
        cause: FaultCause,
        write_value: Option<u32>,
    ) -> FaultInfo {
        FaultInfo { address, len, kind, cause, pc: self.current_pc, write_value }
    }

    /// Performs a data load of `len` bytes (1, 2 or 4) at `addr` in
    /// `mode`, applying the privilege and MPU rules.
    pub fn load(&mut self, addr: u32, len: u32, mode: Mode) -> Result<u32, Exception> {
        debug_assert!(matches!(len, 1 | 2 | 4));
        let class = AddressClass::of(addr);
        if class == AddressClass::Ppb {
            if !mode.is_privileged() {
                self.stats.bus_faults += 1;
                return Err(Exception::BusFault(self.fault(
                    addr,
                    len,
                    AccessKind::Read,
                    FaultCause::PpbUnprivileged,
                    None,
                )));
            }
            self.stats.loads += 1;
            self.stats.mmio_accesses += 1;
            return Ok(self.ppb_read(addr));
        }
        if self.prot.check_data(addr, len, false, mode) == MpuDecision::Denied {
            self.stats.mem_faults += 1;
            return Err(Exception::MemManage(self.fault(
                addr,
                len,
                AccessKind::Read,
                FaultCause::MpuViolation,
                None,
            )));
        }
        self.stats.loads += 1;
        self.route_load(addr, len).ok_or_else(|| {
            self.stats.bus_faults += 1;
            Exception::BusFault(self.fault(addr, len, AccessKind::Read, FaultCause::Unmapped, None))
        })
    }

    /// Performs a data store of `len` bytes at `addr` in `mode`.
    pub fn store(&mut self, addr: u32, len: u32, value: u32, mode: Mode) -> Result<(), Exception> {
        debug_assert!(matches!(len, 1 | 2 | 4));
        let class = AddressClass::of(addr);
        if class == AddressClass::Ppb {
            if !mode.is_privileged() {
                self.stats.bus_faults += 1;
                return Err(Exception::BusFault(self.fault(
                    addr,
                    len,
                    AccessKind::Write,
                    FaultCause::PpbUnprivileged,
                    Some(value),
                )));
            }
            self.stats.stores += 1;
            self.stats.mmio_accesses += 1;
            self.ppb_write(addr, value);
            return Ok(());
        }
        if self.prot.check_data(addr, len, true, mode) == MpuDecision::Denied {
            self.stats.mem_faults += 1;
            return Err(Exception::MemManage(self.fault(
                addr,
                len,
                AccessKind::Write,
                FaultCause::MpuViolation,
                Some(value),
            )));
        }
        self.stats.stores += 1;
        if self.route_store(addr, len, value) {
            Ok(())
        } else {
            self.stats.bus_faults += 1;
            Err(Exception::BusFault(self.fault(
                addr,
                len,
                AccessKind::Write,
                FaultCause::Unmapped,
                Some(value),
            )))
        }
    }

    fn route_load(&mut self, addr: u32, len: u32) -> Option<u32> {
        if self.board.flash.contains_range(addr, len) {
            let off = (addr - self.board.flash.base) as usize;
            return Some(read_le(&self.flash, off, len));
        }
        if self.board.sram.contains_range(addr, len) {
            let off = (addr - self.board.sram.base) as usize;
            return Some(read_le(&self.sram, off, len));
        }
        for d in &mut self.devices {
            let r = d.region();
            if r.contains_range(addr, len) {
                self.stats.mmio_accesses += 1;
                return Some(d.read(addr - r.base, len));
            }
        }
        None
    }

    fn route_store(&mut self, addr: u32, len: u32, value: u32) -> bool {
        // Flash is not writable at runtime (programming it needs the
        // flash controller, which the firmware never does mid-run).
        if self.board.sram.contains_range(addr, len) {
            let off = (addr - self.board.sram.base) as usize;
            Self::mark_dirty(&mut self.sram_dirty, off, len as usize);
            write_le(&mut self.sram, off, len, value);
            return true;
        }
        for d in &mut self.devices {
            let r = d.region();
            if r.contains_range(addr, len) {
                self.stats.mmio_accesses += 1;
                d.write(addr - r.base, len, value);
                return true;
            }
        }
        false
    }

    fn ppb_read(&mut self, addr: u32) -> u32 {
        match addr {
            ppb::DWT_CYCCNT => self.clock.now() as u32,
            _ => self.ppb_regs.get(&addr).copied().unwrap_or(0),
        }
    }

    fn ppb_write(&mut self, addr: u32, value: u32) {
        // Protection-unit control registers are live state (MPU_CTRL
        // ENABLE/PRIVDEFENA drive the modelled MPU), so privileged code
        // that reaches them really does turn protection off. The unit
        // decides which addresses it owns.
        self.prot.ppb_ctrl_write(addr, value);
        // DWT_CYCCNT writes reset the counter on real silicon; our clock
        // is the ground truth for the whole run, so we record the offset.
        self.ppb_regs.insert(addr, value);
    }

    /// Unchecked read used by loaders, the monitor's introspection, and
    /// tests. Returns `None` for unmapped addresses.
    pub fn peek(&self, addr: u32, len: u32) -> Option<u32> {
        if self.board.flash.contains_range(addr, len) {
            return Some(read_le(&self.flash, (addr - self.board.flash.base) as usize, len));
        }
        if self.board.sram.contains_range(addr, len) {
            return Some(read_le(&self.sram, (addr - self.board.sram.base) as usize, len));
        }
        if AddressClass::of(addr) == AddressClass::Ppb {
            return Some(self.ppb_regs.get(&addr).copied().unwrap_or(0));
        }
        None
    }

    /// Unchecked write used by loaders and tests.
    pub fn poke(&mut self, addr: u32, len: u32, value: u32) -> bool {
        if self.board.flash.contains_range(addr, len) {
            let off = (addr - self.board.flash.base) as usize;
            Self::mark_dirty(&mut self.flash_dirty, off, len as usize);
            write_le(&mut self.flash, off, len, value);
            return true;
        }
        if self.board.sram.contains_range(addr, len) {
            let off = (addr - self.board.sram.base) as usize;
            Self::mark_dirty(&mut self.sram_dirty, off, len as usize);
            write_le(&mut self.sram, off, len, value);
            return true;
        }
        false
    }

    /// Flips bit `bit` (0–7) of the byte at `addr`, bypassing privilege
    /// and MPU checks — a physical memory fault (fault injection).
    /// Returns `false` if the address is not backed by Flash or SRAM.
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> bool {
        let Some(byte) = self.peek(addr, 1) else { return false };
        self.poke(addr, 1, byte ^ (1u32 << (bit & 7)))
    }

    /// Name and address window of every registered device (used by
    /// attack libraries to find mapped peripheral registers).
    pub fn device_regions(&self) -> Vec<(String, MemRegion)> {
        self.devices.iter().map(|d| (d.name().to_string(), d.region())).collect()
    }

    /// Copies `bytes` into Flash at `addr` (image loading).
    pub fn load_flash(&mut self, addr: u32, bytes: &[u8]) -> Result<(), String> {
        let len = bytes.len() as u32;
        if !self.board.flash.contains_range(addr, len.max(1)) {
            return Err(format!("flash write out of range: {addr:#010x}+{len:#x}"));
        }
        let off = (addr - self.board.flash.base) as usize;
        Self::mark_dirty(&mut self.flash_dirty, off, bytes.len());
        self.flash[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Copies `bytes` into SRAM at `addr` (section initialisation).
    pub fn load_sram(&mut self, addr: u32, bytes: &[u8]) -> Result<(), String> {
        let len = bytes.len() as u32;
        if !self.board.sram.contains_range(addr, len.max(1)) {
            return Err(format!("sram write out of range: {addr:#010x}+{len:#x}"));
        }
        let off = (addr - self.board.sram.base) as usize;
        Self::mark_dirty(&mut self.sram_dirty, off, bytes.len());
        self.sram[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }
}

fn read_le(buf: &[u8], off: usize, len: u32) -> u32 {
    let mut v = 0u32;
    for i in 0..len as usize {
        v |= u32::from(buf[off + i]) << (8 * i);
    }
    v
}

fn write_le(buf: &mut [u8], off: usize, len: u32, value: u32) {
    for i in 0..len as usize {
        buf[off + i] = (value >> (8 * i)) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpu::{MpuRegion, RegionAttr};

    fn machine() -> Machine {
        Machine::new(Board::stm32f4_discovery())
    }

    #[test]
    fn sram_roundtrip_little_endian() {
        let mut m = machine();
        m.store(0x2000_0000, 4, 0xA1B2_C3D4, Mode::Privileged).unwrap();
        assert_eq!(m.load(0x2000_0000, 4, Mode::Privileged).unwrap(), 0xA1B2_C3D4);
        assert_eq!(m.load(0x2000_0000, 1, Mode::Privileged).unwrap(), 0xD4);
        assert_eq!(m.load(0x2000_0001, 1, Mode::Privileged).unwrap(), 0xC3);
        assert_eq!(m.load(0x2000_0002, 2, Mode::Privileged).unwrap(), 0xA1B2);
    }

    #[test]
    fn flash_is_readonly_at_runtime() {
        let mut m = machine();
        m.load_flash(0x0800_0000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.load(0x0800_0000, 4, Mode::Privileged).unwrap(), 0x0403_0201);
        let err = m.store(0x0800_0000, 4, 0, Mode::Privileged).unwrap_err();
        assert!(matches!(err, Exception::BusFault(fi) if fi.cause == FaultCause::Unmapped));
    }

    #[test]
    fn ppb_requires_privilege() {
        let mut m = machine();
        let err = m.load(ppb::SYST_CSR, 4, Mode::Unprivileged).unwrap_err();
        match err {
            Exception::BusFault(fi) => {
                assert_eq!(fi.cause, FaultCause::PpbUnprivileged);
                assert_eq!(fi.address, ppb::SYST_CSR);
            }
            other => panic!("expected BusFault, got {other:?}"),
        }
        assert!(m.load(ppb::SYST_CSR, 4, Mode::Privileged).is_ok());
        assert_eq!(m.stats.bus_faults, 1);
    }

    #[test]
    fn dwt_cyccnt_reads_clock() {
        let mut m = machine();
        m.clock.tick(1234);
        assert_eq!(m.load(ppb::DWT_CYCCNT, 4, Mode::Privileged).unwrap(), 1234);
    }

    #[test]
    fn mpu_denial_raises_memmanage_with_pc() {
        let mut m = machine();
        m.mpu_mut().enabled = true;
        m.current_pc = 0x0800_1234;
        let err = m.store(0x2000_0000, 4, 7, Mode::Unprivileged).unwrap_err();
        match err {
            Exception::MemManage(fi) => {
                assert_eq!(fi.pc, 0x0800_1234);
                assert_eq!(fi.write_value, Some(7));
                assert_eq!(fi.cause, FaultCause::MpuViolation);
            }
            other => panic!("expected MemManage, got {other:?}"),
        }
        assert_eq!(m.stats.mem_faults, 1);
    }

    #[test]
    fn mpu_region_grants_unprivileged_access() {
        let mut m = machine();
        m.mpu_mut().enabled = true;
        m.mpu_mut()
            .set_region(2, MpuRegion::new(0x2000_0000, 0x100, RegionAttr::read_write_xn()))
            .unwrap();
        m.store(0x2000_0010, 4, 42, Mode::Unprivileged).unwrap();
        assert_eq!(m.load(0x2000_0010, 4, Mode::Unprivileged).unwrap(), 42);
    }

    #[test]
    fn unmapped_address_bus_faults() {
        let mut m = machine();
        let err = m.load(0x6000_0000, 4, Mode::Privileged).unwrap_err();
        assert!(matches!(err, Exception::BusFault(fi) if fi.cause == FaultCause::Unmapped));
    }

    #[test]
    fn device_routing() {
        struct Reg {
            region: MemRegion,
            value: u32,
        }
        impl MmioDevice for Reg {
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn name(&self) -> &str {
                "reg"
            }
            fn region(&self) -> MemRegion {
                self.region
            }
            fn read(&mut self, offset: u32, _len: u32) -> u32 {
                assert_eq!(offset, 4);
                self.value
            }
            fn write(&mut self, offset: u32, _len: u32, value: u32) {
                assert_eq!(offset, 4);
                self.value = value;
            }
        }
        let mut m = machine();
        m.add_device(Box::new(Reg { region: MemRegion::new(0x4000_0000, 0x400), value: 9 }))
            .unwrap();
        assert_eq!(m.load(0x4000_0004, 4, Mode::Privileged).unwrap(), 9);
        m.store(0x4000_0004, 4, 11, Mode::Privileged).unwrap();
        assert_eq!(m.load(0x4000_0004, 4, Mode::Privileged).unwrap(), 11);
        assert_eq!(m.stats.mmio_accesses, 3);
        // Overlapping registration is refused.
        let err = m
            .add_device(Box::new(Reg { region: MemRegion::new(0x4000_0200, 0x400), value: 0 }))
            .unwrap_err();
        assert!(err.contains("overlaps"));
    }

    #[test]
    fn flip_bit_is_physical_and_bounds_checked() {
        let mut m = machine();
        m.mpu_mut().enabled = true; // flips bypass the MPU entirely
        m.poke(0x2000_0000, 1, 0b0000_0100);
        assert!(m.flip_bit(0x2000_0000, 2));
        assert_eq!(m.peek(0x2000_0000, 1), Some(0));
        assert!(m.flip_bit(0x2000_0000, 7));
        assert_eq!(m.peek(0x2000_0000, 1), Some(0x80));
        assert!(!m.flip_bit(0x7000_0000, 0));
    }

    #[test]
    fn mpu_ctrl_write_drives_the_mpu() {
        let mut m = machine();
        m.mpu_mut().enabled = true;
        m.mpu_mut().priv_default_enabled = true;
        m.store(ppb::MPU_CTRL, 4, 0, Mode::Privileged).unwrap();
        assert!(!m.mpu().enabled);
        m.store(ppb::MPU_CTRL, 4, 0b101, Mode::Privileged).unwrap();
        assert!(m.mpu().enabled);
        assert!(m.mpu().priv_default_enabled);
        assert_eq!(m.load(ppb::MPU_CTRL, 4, Mode::Privileged).unwrap(), 0b101);
    }

    #[test]
    fn loader_bounds_checked() {
        let mut m = machine();
        assert!(m.load_flash(0x0800_0000 + (1 << 20) - 2, &[1, 2, 3]).is_err());
        assert!(m.load_sram(0x2000_0000 + 192 * 1024 - 1, &[1, 2]).is_err());
        assert!(m.load_sram(0x2000_0000, &[1, 2]).is_ok());
    }
}
