//! The ARMv7-M Memory Protection Unit (PMSAv7).
//!
//! The MPU defines up to eight regions. Each region has a base address, a
//! power-of-two size of at least 32 bytes, a base aligned to that size,
//! separate privileged/unprivileged access permissions, and an
//! execute-never bit. Regions are prioritised by number: if two enabled
//! regions cover the same address, the higher-numbered one decides the
//! permission. Every region of 256 bytes or more is split into eight
//! equal sub-regions that can be disabled individually; a disabled
//! sub-region behaves as if the region did not cover that range, so a
//! lower-numbered region (or the background map) takes over. OPEC leans
//! on this for its stack protection (Section 5.2 of the paper).

use crate::mem::MemRegion;
use crate::Mode;

/// Number of MPU regions implemented (Cortex-M4: 8).
pub const MPU_NUM_REGIONS: usize = 8;
/// Smallest permitted region size in bytes.
pub const MPU_MIN_REGION_SIZE: u32 = 32;
/// Number of sub-regions per region.
pub const MPU_SUBREGIONS: u32 = 8;
/// Smallest region size for which sub-regions are supported.
pub const MPU_MIN_SUBREGION_REGION_SIZE: u32 = 256;

/// Access permission for one privilege level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPerm {
    /// No access.
    NoAccess,
    /// Read-only access.
    ReadOnly,
    /// Read and write access.
    ReadWrite,
}

impl AccessPerm {
    /// Returns `true` if the permission allows a read.
    pub fn allows_read(self) -> bool {
        !matches!(self, AccessPerm::NoAccess)
    }

    /// Returns `true` if the permission allows a write.
    pub fn allows_write(self) -> bool {
        matches!(self, AccessPerm::ReadWrite)
    }
}

/// Per-region attributes: permissions for each level plus execute-never.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionAttr {
    /// Permission applied to privileged accesses.
    pub privileged: AccessPerm,
    /// Permission applied to unprivileged accesses.
    pub unprivileged: AccessPerm,
    /// Execute-never: instruction fetches from the region fault.
    pub execute_never: bool,
}

impl RegionAttr {
    /// Both levels read-write, executable.
    pub const fn full_access() -> RegionAttr {
        RegionAttr {
            privileged: AccessPerm::ReadWrite,
            unprivileged: AccessPerm::ReadWrite,
            execute_never: false,
        }
    }

    /// Both levels read-only.
    pub const fn read_only(execute_never: bool) -> RegionAttr {
        RegionAttr {
            privileged: AccessPerm::ReadOnly,
            unprivileged: AccessPerm::ReadOnly,
            execute_never,
        }
    }

    /// Privileged read-write, unprivileged read-only.
    pub const fn priv_rw_unpriv_ro(execute_never: bool) -> RegionAttr {
        RegionAttr {
            privileged: AccessPerm::ReadWrite,
            unprivileged: AccessPerm::ReadOnly,
            execute_never,
        }
    }

    /// Privileged read-write, unprivileged no access.
    pub const fn priv_only() -> RegionAttr {
        RegionAttr {
            privileged: AccessPerm::ReadWrite,
            unprivileged: AccessPerm::NoAccess,
            execute_never: true,
        }
    }

    /// Both levels read-write, not executable (data regions).
    pub const fn read_write_xn() -> RegionAttr {
        RegionAttr {
            privileged: AccessPerm::ReadWrite,
            unprivileged: AccessPerm::ReadWrite,
            execute_never: true,
        }
    }

    /// Permission for the given privilege level.
    pub fn perm(&self, mode: Mode) -> AccessPerm {
        match mode {
            Mode::Privileged => self.privileged,
            Mode::Unprivileged => self.unprivileged,
        }
    }
}

/// Errors raised when programming an invalid region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpuConfigError {
    /// The region number is `>= MPU_NUM_REGIONS`.
    BadRegionNumber(usize),
    /// The size is not a power of two or is below the 32-byte minimum.
    BadSize(u32),
    /// The base address is not aligned to the region size.
    Misaligned {
        /// The offending base address.
        base: u32,
        /// The region size the base must align to.
        size: u32,
    },
    /// Sub-region disable bits were given for a region under 256 bytes.
    SubregionsUnsupported {
        /// The (too small) region size.
        size: u32,
    },
}

impl core::fmt::Display for MpuConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MpuConfigError::BadRegionNumber(n) => write!(f, "MPU region number {n} out of range"),
            MpuConfigError::BadSize(s) => {
                write!(f, "MPU region size {s:#x} is not a power of two >= 32")
            }
            MpuConfigError::Misaligned { base, size } => {
                write!(f, "MPU region base {base:#010x} not aligned to size {size:#x}")
            }
            MpuConfigError::SubregionsUnsupported { size } => {
                write!(f, "sub-region disable unsupported for region size {size:#x} < 256")
            }
        }
    }
}

impl std::error::Error for MpuConfigError {}

/// One programmed MPU region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpuRegion {
    /// Base address; must be aligned to `size`.
    pub base: u32,
    /// Size in bytes; a power of two, at least 32.
    pub size: u32,
    /// Access attributes.
    pub attr: RegionAttr,
    /// Sub-region disable mask; bit *i* set disables sub-region *i*
    /// (the *i*-th eighth of the region, counting from the base).
    pub srd: u8,
}

impl MpuRegion {
    /// Creates a region with all sub-regions enabled.
    pub fn new(base: u32, size: u32, attr: RegionAttr) -> MpuRegion {
        MpuRegion { base, size, attr, srd: 0 }
    }

    /// Validates the architectural constraints on this region.
    pub fn validate(&self) -> Result<(), MpuConfigError> {
        if !self.size.is_power_of_two() || self.size < MPU_MIN_REGION_SIZE {
            return Err(MpuConfigError::BadSize(self.size));
        }
        if !self.base.is_multiple_of(self.size) {
            return Err(MpuConfigError::Misaligned { base: self.base, size: self.size });
        }
        if self.srd != 0 && self.size < MPU_MIN_SUBREGION_REGION_SIZE {
            return Err(MpuConfigError::SubregionsUnsupported { size: self.size });
        }
        Ok(())
    }

    /// The address range covered by the region (ignoring sub-region
    /// disables).
    pub fn range(&self) -> MemRegion {
        MemRegion::new(self.base, self.size)
    }

    /// Returns `true` if the region covers `addr` *and* the covering
    /// sub-region is enabled.
    pub fn matches(&self, addr: u32) -> bool {
        if !self.range().contains(addr) {
            return false;
        }
        if self.srd == 0 || self.size < MPU_MIN_SUBREGION_REGION_SIZE {
            return true;
        }
        let sub = ((addr - self.base) / (self.size / MPU_SUBREGIONS)) as u8;
        self.srd & (1 << sub) == 0
    }
}

/// The result of an MPU permission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpuDecision {
    /// The access is permitted.
    Allowed,
    /// The access is denied; a MemManage fault is raised.
    Denied,
}

/// The Memory Protection Unit: eight prioritised regions plus control
/// state.
#[derive(Debug, Clone)]
pub struct Mpu {
    regions: [Option<MpuRegion>; MPU_NUM_REGIONS],
    /// Master enable (MPU_CTRL.ENABLE).
    pub enabled: bool,
    /// When set, privileged accesses that match no region use the default
    /// (background) memory map instead of faulting (MPU_CTRL.PRIVDEFENA).
    pub priv_default_enabled: bool,
    /// Observability handle; region writes are emitted as events
    /// (disabled by default, attached by the VM builder).
    obs: opec_obs::Obs,
}

impl Default for Mpu {
    fn default() -> Mpu {
        Mpu::new()
    }
}

impl Mpu {
    /// Creates a disabled MPU with no regions programmed.
    pub fn new() -> Mpu {
        Mpu {
            regions: [None; MPU_NUM_REGIONS],
            enabled: false,
            priv_default_enabled: true,
            obs: opec_obs::Obs::disabled(),
        }
    }

    /// Attaches an observability handle; every subsequent region write
    /// emits an [`opec_obs::Event::MpuRegionWrite`]. The MPU has no
    /// clock, so events carry the stream's last timestamp (the
    /// emitting supervisor advances it via
    /// [`opec_obs::Obs::set_now`]).
    pub fn attach_obs(&mut self, obs: opec_obs::Obs) {
        self.obs = obs;
    }

    /// Detaches and returns the observability handle.
    pub(crate) fn detach_obs(&mut self) -> opec_obs::Obs {
        std::mem::take(&mut self.obs)
    }

    /// Programs region `number`, validating architectural constraints.
    pub fn set_region(&mut self, number: usize, region: MpuRegion) -> Result<(), MpuConfigError> {
        if number >= MPU_NUM_REGIONS {
            return Err(MpuConfigError::BadRegionNumber(number));
        }
        region.validate()?;
        self.regions[number] = Some(region);
        self.obs.emit(|| opec_obs::Event::MpuRegionWrite {
            slot: number as u8,
            base: region.base,
            size: region.size,
            srd: region.srd,
        });
        Ok(())
    }

    /// Disables (clears) region `number`.
    pub fn clear_region(&mut self, number: usize) -> Result<(), MpuConfigError> {
        if number >= MPU_NUM_REGIONS {
            return Err(MpuConfigError::BadRegionNumber(number));
        }
        self.regions[number] = None;
        Ok(())
    }

    /// Returns the programmed region `number`, if any.
    pub fn region(&self, number: usize) -> Option<&MpuRegion> {
        self.regions.get(number).and_then(|r| r.as_ref())
    }

    /// Replaces the entire region file at once (used during operation
    /// switches, which reload the MPU from the operation's policy).
    pub fn load_regions(&mut self, regions: &[(usize, MpuRegion)]) -> Result<(), MpuConfigError> {
        let mut fresh: [Option<MpuRegion>; MPU_NUM_REGIONS] = [None; MPU_NUM_REGIONS];
        for &(number, region) in regions {
            if number >= MPU_NUM_REGIONS {
                return Err(MpuConfigError::BadRegionNumber(number));
            }
            region.validate()?;
            fresh[number] = Some(region);
        }
        self.regions = fresh;
        self.obs.emit(|| opec_obs::Event::MpuLoad { regions: regions.len() as u8 });
        Ok(())
    }

    /// Finds the highest-numbered enabled region whose enabled sub-region
    /// covers `addr`. This is the region whose attributes decide the
    /// access, per the PMSAv7 priority rule.
    pub fn matching_region(&self, addr: u32) -> Option<(usize, &MpuRegion)> {
        self.regions
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, r)| r.as_ref().filter(|r| r.matches(addr)).map(|r| (i, r)))
    }

    /// Checks a data access of `len` bytes at `addr` by `mode`.
    ///
    /// Every byte of the access must be permitted; an access straddling a
    /// region boundary is checked per byte like real hardware checks each
    /// transaction.
    pub fn check_data(&self, addr: u32, len: u32, write: bool, mode: Mode) -> MpuDecision {
        if !self.enabled {
            return MpuDecision::Allowed;
        }
        let mut offset = 0;
        while offset < len.max(1) {
            let Some(byte_addr) = addr.checked_add(offset) else {
                return MpuDecision::Denied;
            };
            if self.check_byte(byte_addr, write, mode) == MpuDecision::Denied {
                return MpuDecision::Denied;
            }
            offset += 1;
        }
        MpuDecision::Allowed
    }

    /// Checks an instruction fetch from `addr` by `mode`.
    pub fn check_exec(&self, addr: u32, mode: Mode) -> MpuDecision {
        if !self.enabled {
            return MpuDecision::Allowed;
        }
        match self.matching_region(addr) {
            Some((_, r)) => {
                if r.attr.execute_never || !r.attr.perm(mode).allows_read() {
                    MpuDecision::Denied
                } else {
                    MpuDecision::Allowed
                }
            }
            None => self.background(mode),
        }
    }

    fn check_byte(&self, addr: u32, write: bool, mode: Mode) -> MpuDecision {
        match self.matching_region(addr) {
            Some((_, r)) => {
                let perm = r.attr.perm(mode);
                let ok = if write { perm.allows_write() } else { perm.allows_read() };
                if ok {
                    MpuDecision::Allowed
                } else {
                    MpuDecision::Denied
                }
            }
            None => self.background(mode),
        }
    }

    /// Background-map decision when no region matches: privileged code
    /// may fall through to the default map if PRIVDEFENA is set;
    /// unprivileged code always faults.
    fn background(&self, mode: Mode) -> MpuDecision {
        if mode.is_privileged() && self.priv_default_enabled {
            MpuDecision::Allowed
        } else {
            MpuDecision::Denied
        }
    }
}

/// Rounds `size` up to the smallest legal MPU region size that can cover
/// it (a power of two, at least 32 bytes).
pub fn region_size_for(size: u32) -> u32 {
    size.max(MPU_MIN_REGION_SIZE).next_power_of_two()
}

/// Aligns `addr` up to `align` (a power of two).
pub fn align_up(addr: u32, align: u32) -> u32 {
    debug_assert!(align.is_power_of_two());
    (addr + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw_region(base: u32, size: u32) -> MpuRegion {
        MpuRegion::new(base, size, RegionAttr::full_access())
    }

    #[test]
    fn region_validation() {
        assert!(rw_region(0x2000_0000, 32).validate().is_ok());
        assert_eq!(rw_region(0x2000_0000, 48).validate(), Err(MpuConfigError::BadSize(48)));
        assert_eq!(rw_region(0x2000_0000, 16).validate(), Err(MpuConfigError::BadSize(16)));
        assert_eq!(
            rw_region(0x2000_0020, 0x100).validate(),
            Err(MpuConfigError::Misaligned { base: 0x2000_0020, size: 0x100 })
        );
        let mut r = rw_region(0x2000_0000, 64);
        r.srd = 0x01;
        assert_eq!(r.validate(), Err(MpuConfigError::SubregionsUnsupported { size: 64 }));
    }

    #[test]
    fn disabled_mpu_allows_everything() {
        let mpu = Mpu::new();
        assert_eq!(mpu.check_data(0xDEAD_BEEF, 4, true, Mode::Unprivileged), MpuDecision::Allowed);
    }

    #[test]
    fn unprivileged_background_denied() {
        let mut mpu = Mpu::new();
        mpu.enabled = true;
        assert_eq!(mpu.check_data(0x2000_0000, 4, false, Mode::Unprivileged), MpuDecision::Denied);
        assert_eq!(mpu.check_data(0x2000_0000, 4, false, Mode::Privileged), MpuDecision::Allowed);
    }

    #[test]
    fn privdefena_off_denies_privileged_background() {
        let mut mpu = Mpu::new();
        mpu.enabled = true;
        mpu.priv_default_enabled = false;
        assert_eq!(mpu.check_data(0x2000_0000, 4, false, Mode::Privileged), MpuDecision::Denied);
    }

    #[test]
    fn higher_region_wins() {
        let mut mpu = Mpu::new();
        mpu.enabled = true;
        // Region 0: large read-only window.
        mpu.set_region(0, MpuRegion::new(0x2000_0000, 0x1000, RegionAttr::read_only(true)))
            .unwrap();
        // Region 3: small read-write window inside it.
        mpu.set_region(3, rw_region(0x2000_0400, 0x100)).unwrap();
        assert_eq!(mpu.check_data(0x2000_0000, 4, true, Mode::Unprivileged), MpuDecision::Denied);
        assert_eq!(mpu.check_data(0x2000_0400, 4, true, Mode::Unprivileged), MpuDecision::Allowed);
        // Straddling the boundary between RW and RO must deny.
        assert_eq!(mpu.check_data(0x2000_04FE, 4, true, Mode::Unprivileged), MpuDecision::Denied);
    }

    #[test]
    fn subregion_disable_falls_through() {
        let mut mpu = Mpu::new();
        mpu.enabled = true;
        mpu.set_region(0, MpuRegion::new(0x2000_0000, 0x1000, RegionAttr::read_only(true)))
            .unwrap();
        let mut stack = rw_region(0x2000_0000, 0x800);
        stack.srd = 0b1000_0000; // disable the top eighth: [0x700, 0x800)
        mpu.set_region(2, stack).unwrap();
        assert_eq!(mpu.check_data(0x2000_0100, 4, true, Mode::Unprivileged), MpuDecision::Allowed);
        // The disabled sub-region falls through to region 0 (read-only).
        assert_eq!(mpu.check_data(0x2000_0700, 4, true, Mode::Unprivileged), MpuDecision::Denied);
        assert_eq!(mpu.check_data(0x2000_0700, 4, false, Mode::Unprivileged), MpuDecision::Allowed);
    }

    #[test]
    fn subregion_boundaries_are_eighths() {
        let mut r = rw_region(0x2000_0000, 0x800);
        r.srd = 0b0000_0100; // disable sub-region 2: [0x200, 0x300)
        assert!(r.matches(0x2000_01FF));
        assert!(!r.matches(0x2000_0200));
        assert!(!r.matches(0x2000_02FF));
        assert!(r.matches(0x2000_0300));
    }

    #[test]
    fn exec_checks_xn() {
        let mut mpu = Mpu::new();
        mpu.enabled = true;
        mpu.set_region(1, MpuRegion::new(0x0800_0000, 0x10_0000, RegionAttr::read_only(false)))
            .unwrap();
        mpu.set_region(2, MpuRegion::new(0x2000_0000, 0x1000, RegionAttr::read_write_xn()))
            .unwrap();
        assert_eq!(mpu.check_exec(0x0800_0100, Mode::Unprivileged), MpuDecision::Allowed);
        assert_eq!(mpu.check_exec(0x2000_0100, Mode::Unprivileged), MpuDecision::Denied);
    }

    #[test]
    fn load_regions_replaces_all() {
        let mut mpu = Mpu::new();
        mpu.enabled = true;
        mpu.set_region(5, rw_region(0x2000_0000, 0x100)).unwrap();
        mpu.load_regions(&[(1, rw_region(0x2000_1000, 0x100))]).unwrap();
        assert!(mpu.region(5).is_none());
        assert!(mpu.region(1).is_some());
    }

    #[test]
    fn region_size_rounding() {
        assert_eq!(region_size_for(1), 32);
        assert_eq!(region_size_for(32), 32);
        assert_eq!(region_size_for(33), 64);
        assert_eq!(region_size_for(4096), 4096);
        assert_eq!(region_size_for(5000), 8192);
    }

    #[test]
    fn align_up_rounds() {
        assert_eq!(align_up(0x101, 0x100), 0x200);
        assert_eq!(align_up(0x100, 0x100), 0x100);
        assert_eq!(align_up(0, 32), 0);
    }

    #[test]
    fn data_check_rejects_address_wraparound() {
        let mut mpu = Mpu::new();
        mpu.enabled = true;
        assert_eq!(mpu.check_data(0xFFFF_FFFE, 4, false, Mode::Privileged), MpuDecision::Denied);
    }
}
