//! Pre-warmed device templates: one compiled image and one golden
//! post-boot snapshot per `(kind, backend)` pair.
//!
//! Spawning a fleet device from scratch means compiling, linking,
//! building a machine, and booting the supervisor — milliseconds of
//! host work per device. A template does all of that once: the
//! compile products (`Arc<LoadedImage>` + `SystemPolicy`) are plain
//! data shared across worker threads, and each worker keeps one
//! *resident* VM per template whose golden snapshot (taken right after
//! boot, with dirty-page tracking armed) every device forks from.
//! Spawning or resetting a device is then a dirty-page
//! [`opec_vm::Vm::restore`] — microseconds, not milliseconds.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use opec_apps::programs::{camera, pinlock, tcp_echo, App};
use opec_armv7m::Board;
use opec_core::{compile, OpecMonitor, SystemPolicy};
use opec_obs::event::Stamped;
use opec_obs::{Metrics, Obs, RingBuffer, Sink, SinkHandle};
use opec_oracle::{generate, FirmwareSpec};
use opec_vm::{LoadedImage, Vm, VmSnapshot};

use crate::mix::{DeviceKind, FleetBackend};

/// The fuzz template's plan seed: fixed so every fleet run (and both
/// sides of the worker-count determinism test) exercises the same
/// generated firmware.
pub const FUZZ_SEED: u64 = 10;

/// A bounded diagnostic ring as a standalone sink ([`RingBuffer`]
/// itself is a plain container; the standard `Recorder` bundles it
/// with metrics the fleet keeps separately per device).
pub struct RingSink(pub RingBuffer);

impl Sink for RingSink {
    fn record(&mut self, ev: Stamped) {
        self.0.push(ev);
    }
}

/// How a template sets up a fresh machine.
enum Source {
    /// A paper application: devices and scripted inputs from its
    /// `setup` hook.
    App(App),
    /// A generated firmware: plain-storage peripheral windows from the
    /// plan.
    Fuzz(FirmwareSpec),
}

/// One pre-compiled, pre-warmable device image.
pub struct Template {
    /// The firmware kind.
    pub kind: DeviceKind,
    /// The protection backend.
    pub backend: FleetBackend,
    image: Arc<LoadedImage>,
    policy: SystemPolicy,
    board: Board,
    source: Source,
}

impl Template {
    /// Compiles the template for `(kind, backend)`. This is the
    /// expensive once-per-fleet step; everything per-device forks from
    /// its products.
    pub fn build(kind: DeviceKind, backend: FleetBackend) -> Result<Template, String> {
        let (board, module, specs, source) = match kind {
            DeviceKind::TcpEcho => app_parts(tcp_echo::app()),
            DeviceKind::Pinlock => app_parts(pinlock::app()),
            DeviceKind::Camera => app_parts(camera::app()),
            DeviceKind::Fuzz => {
                let spec = generate(FUZZ_SEED);
                (spec.board(), spec.build_module(), spec.op_specs(), Source::Fuzz(spec))
            }
        };
        let out = compile(module, board, &specs)
            .map_err(|e| format!("{} template compile: {e:?}", kind.name()))?;
        Ok(Template {
            kind,
            backend,
            image: Arc::new(out.image),
            policy: out.policy,
            board,
            source,
        })
    }

    /// Builds one device VM from scratch: machine, devices, monitor,
    /// boot. This is the init-from-scratch path the snapshot pool
    /// replaces (and the benchmark's comparison baseline). `sinks`
    /// become the VM's obs stream.
    pub fn fresh_vm(&self, obs: Obs) -> Result<Vm<OpecMonitor>, String> {
        let mut machine = self.backend.make_machine(self.board);
        match &self.source {
            Source::App(app) => (app.setup)(&mut machine),
            Source::Fuzz(spec) => spec.install_devices(&mut machine),
        }
        let mut vm = Vm::builder(machine, self.image.clone())
            .supervisor(OpecMonitor::with_backend(self.policy.clone(), self.backend))
            .obs(obs)
            .build()
            .map_err(|e| format!("{} template image: {e:?}", self.kind.name()))?;
        vm.boot().map_err(|e| format!("{} template boot: {e:?}", self.kind.name()))?;
        Ok(vm)
    }

    /// Builds the worker-resident VM for this template: a booted VM
    /// with a golden snapshot armed for dirty-page restore, a
    /// swappable [`Metrics`] slot, and (optionally) a bounded
    /// diagnostic event ring.
    pub fn resident(&self, ring: Option<Rc<RefCell<RingSink>>>) -> Result<ResidentVm, String> {
        let slot = Rc::new(RefCell::new(Metrics::new()));
        let obs = match &ring {
            None => Obs::single(slot.clone()),
            Some(r) => Obs::new(vec![slot.clone() as SinkHandle, r.clone() as SinkHandle]),
        };
        let mut vm = self.fresh_vm(obs)?;
        let golden =
            vm.snapshot().map_err(|e| format!("{} template snapshot: {e}", self.kind.name()))?;
        Ok(ResidentVm { vm, golden, slot })
    }
}

fn app_parts(app: App) -> (Board, opec_ir::Module, Vec<opec_core::OperationSpec>, Source) {
    let (module, specs) = (app.build)();
    (app.board, module, specs, Source::App(app))
}

/// A worker's resident VM for one template: every device of that
/// `(kind, backend)` on the worker runs its quanta here, forking from
/// `golden` and parking its dirty pages back out.
pub struct ResidentVm {
    /// The VM devices execute on.
    pub vm: Vm<OpecMonitor>,
    /// The post-boot snapshot every device forks from.
    pub golden: VmSnapshot<OpecMonitor>,
    /// The metrics sink slot; the scheduler swaps each device's
    /// [`Metrics`] in around its quantum.
    pub slot: Rc<RefCell<Metrics>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_shareable<T: Send + Sync>() {}

    #[test]
    fn templates_are_shareable_across_workers() {
        // The whole pooling design rests on compile products crossing
        // worker threads; keep that a compile-time fact.
        assert_shareable::<Template>();
    }

    #[test]
    fn every_kind_builds_and_boots_on_both_backends() {
        for kind in DeviceKind::ALL {
            for backend in FleetBackend::ALL {
                let t = Template::build(kind, backend)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", kind.name(), backend.name()));
                let r = t
                    .resident(None)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", kind.name(), backend.name()));
                assert_eq!(r.vm.boots(), 1);
            }
        }
    }
}
