//! The protection unit: a closed set of two memory-protection models.
//!
//! [`Machine`](crate::Machine) checks every data access and every
//! instruction fetch through one [`Prot`] instead of a hard-wired
//! ARMv7-M MPU. The unit decides *allow or deny* for a
//! `(address, length, direction, privilege)` query; everything above it
//! — fault delivery, routing, emulation — is shared machine substrate.
//!
//! Exactly two units ship with the reproduction, so they are the two
//! variants of one enum: the ARMv7-M MPU ([`crate::mpu::Mpu`], eight
//! prioritised power-of-two regions with sub-region disables, highest
//! region number wins) and the RISC-V PMP ([`opec_pmp::PmpUnit`],
//! sixteen TOR/NAPOT entries, lowest entry number wins).
//! Backend-specific *programming* — region files, entry files, switch
//! costs — lives in `opec_core::backend`; this type is only the
//! machine-facing *checking* surface plus the state a snapshot copies.

use opec_pmp::{PmpUnit, PrivMode};

use crate::mpu::{Mpu, MpuDecision};
use crate::Mode;

/// The memory-protection unit the [`crate::Machine`] consults on every
/// checked access.
///
/// Both variants are behavioural models: they answer permission
/// queries and hold the control state privileged code programs. They
/// never route memory themselves.
#[derive(Debug, Clone)]
pub enum Prot {
    /// The ARMv7-M MPU (the paper's platform; the reset default).
    Mpu(Mpu),
    /// The RISC-V PMP (the paper's §7 port).
    Pmp(PmpUnit),
}

fn pmp_mode(mode: Mode) -> PrivMode {
    if mode.is_privileged() {
        PrivMode::Machine
    } else {
        PrivMode::User
    }
}

fn decision(allowed: bool) -> MpuDecision {
    if allowed {
        MpuDecision::Allowed
    } else {
        MpuDecision::Denied
    }
}

impl Prot {
    /// Stable unit name (`"armv7m-mpu"`, `"rv32-pmp"`), used in
    /// diagnostics and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Prot::Mpu(_) => "armv7m-mpu",
            Prot::Pmp(_) => "rv32-pmp",
        }
    }

    /// Permission decision for a data access of `len` bytes at `addr`.
    pub fn check_data(&self, addr: u32, len: u32, write: bool, mode: Mode) -> MpuDecision {
        match self {
            Prot::Mpu(mpu) => mpu.check_data(addr, len, write, mode),
            Prot::Pmp(pmp) => decision(pmp.check_data(addr, len, write, pmp_mode(mode))),
        }
    }

    /// Permission decision for an instruction fetch at `addr`.
    pub fn check_exec(&self, addr: u32, mode: Mode) -> MpuDecision {
        match self {
            Prot::Mpu(mpu) => mpu.check_exec(addr, mode),
            Prot::Pmp(pmp) => decision(pmp.check_exec(addr, pmp_mode(mode))),
        }
    }

    /// Whether the unit currently enforces anything (reset state is
    /// disabled / allow-all for both models).
    pub fn enforcing(&self) -> bool {
        match self {
            Prot::Mpu(mpu) => mpu.enabled,
            Prot::Pmp(pmp) => pmp.enabled,
        }
    }

    /// Attaches the observability handle the unit emits reprogramming
    /// events into.
    pub fn attach_obs(&mut self, obs: opec_obs::Obs) {
        match self {
            Prot::Mpu(mpu) => mpu.attach_obs(obs),
            Prot::Pmp(pmp) => pmp.attach_obs(obs),
        }
    }

    fn detach_obs(&mut self) -> opec_obs::Obs {
        match self {
            Prot::Mpu(mpu) => mpu.detach_obs(),
            Prot::Pmp(pmp) => pmp.detach_obs(),
        }
    }

    /// A privileged write to a PPB register. MPU_CTRL is live state:
    /// ENABLE (bit 0) and PRIVDEFENA (bit 2) drive the modelled MPU, so
    /// privileged code that reaches this register really does turn
    /// protection off. The PMP has no memory-mapped window and ignores
    /// it.
    pub fn ppb_ctrl_write(&mut self, addr: u32, value: u32) {
        if let Prot::Mpu(mpu) = self {
            if addr == crate::mem::ppb::MPU_CTRL {
                mpu.enabled = value & 1 != 0;
                mpu.priv_default_enabled = value & 4 != 0;
            }
        }
    }

    /// Copies `src`'s enforcement state into `self` — switching
    /// variant if `src` is the other unit — while keeping this unit's
    /// observability handle: the handle is configuration of the live
    /// machine, not state of the snapshot.
    pub fn copy_from(&mut self, src: &Prot) {
        let obs = self.detach_obs();
        self.clone_from(src);
        self.attach_obs(obs);
    }
}
