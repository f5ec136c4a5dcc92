//! Interrupt handling: handlers declared in the image's vector run at
//! the privileged level on the current stack (handler mode), cannot be
//! operation entries (paper §4.3), and coexist with OPEC's isolation.

use opec::prelude::*;
use opec_core::OpecMonitor;
use opec_devices::Uart;
use opec_vm::{ExecMode, VmStats};

const FUEL: u64 = 30_000_000;

/// Firmware with interrupt-driven UART reception: the handler drains
/// the data register into a counter; main waits for three bytes.
fn irq_module() -> (opec_ir::Module, Vec<OperationSpec>) {
    let mut mb = ModuleBuilder::new("irq");
    for p in opec::devices::datasheet() {
        mb.peripheral(p.name, p.base, p.size, p.is_core);
    }
    let rx_count = mb.global("rx_count", Ty::I32, "irq.c");
    let last_byte = mb.global("last_byte", Ty::I32, "irq.c");
    let handler = mb.func("USART2_IRQHandler", vec![], None, "irq.c", move |fb| {
        // Reading DR clears the interrupt; handlers run privileged, so
        // they may also consult a core peripheral without emulation.
        let b = fb.mmio_read(0x4000_4404, 4); // USART2 DR
        let _tick = fb.mmio_read(0xE000_E018, 4); // SysTick CVR (PPB)
        fb.store_global(last_byte, 0, Operand::Reg(b), 4);
        let c = fb.load_global(rx_count, 0, 4);
        let c2 = fb.bin(BinOp::Add, Operand::Reg(c), Operand::Imm(1));
        fb.store_global(rx_count, 0, Operand::Reg(c2), 4);
        fb.ret_void();
    });
    mb.mark_irq_handler(handler);
    let enable = mb.func("Uart_Irq_Enable", vec![], None, "main.c", |fb| {
        // CR1.RXNEIE: the device raises its line when bytes arrive.
        fb.mmio_write(0x4000_440C, Operand::Imm(1 << 5), 4);
        fb.ret_void();
    });
    let wait_task = mb.func("Wait_Bytes", vec![], Some(Ty::I32), "main.c", move |fb| {
        // Spin until the handler has counted three bytes.
        let head = fb.block();
        let body = fb.block();
        let done = fb.block();
        fb.br(head);
        fb.switch_to(head);
        let c = fb.load_global(rx_count, 0, 4);
        let enough = fb.bin(BinOp::CmpLtU, Operand::Reg(c), Operand::Imm(3));
        fb.cond_br(Operand::Reg(enough), body, done);
        fb.switch_to(body);
        fb.nop();
        fb.br(head);
        fb.switch_to(done);
        let v = fb.load_global(last_byte, 0, 4);
        fb.ret(Operand::Reg(v));
    });
    mb.func("main", vec![], Some(Ty::I32), "main.c", move |fb| {
        fb.call_void(enable, vec![]);
        let v = fb.call(wait_task, vec![]);
        fb.ret(Operand::Reg(v));
    });
    (mb.finish(), vec![OperationSpec::plain("Wait_Bytes")])
}

fn feed_uart(machine: &mut Machine) {
    let uart: &mut Uart = machine.device_as("USART2").unwrap();
    uart.feed(b"xyz");
}

/// One run of the IRQ firmware: outcome, counters, final cycle and the
/// privilege level the machine ended in.
type IrqRun = (Result<RunOutcome, VmError>, VmStats, u64, Mode);

/// Runs the IRQ firmware on `mode`'s dispatch path, on the baseline or
/// under OPEC.
fn run_irq(opec: bool, mode: ExecMode) -> IrqRun {
    let (module, specs) = irq_module();
    let board = Board::stm32f4_discovery();
    let mut machine = Machine::new(board);
    opec::devices::install_standard_devices(&mut machine, Default::default()).unwrap();
    feed_uart(&mut machine);
    let (mut image, policy) = if opec {
        let out = opec::core::compile(module, board, &specs).unwrap();
        (out.image, Some(out.policy))
    } else {
        (link_baseline(module, board).unwrap(), None)
    };
    let handler = image.module.func_by_name("USART2_IRQHandler").unwrap();
    image.irq_vector.insert("USART2".into(), handler);
    let builder = Vm::builder(machine, image).exec_mode(mode);
    match policy {
        Some(policy) => {
            let mut vm = builder.supervisor(OpecMonitor::new(policy)).build().unwrap();
            (vm.run(FUEL), vm.stats, vm.machine.clock.now(), vm.machine.mode)
        }
        None => {
            let mut vm = builder.build().unwrap();
            (vm.run(FUEL), vm.stats, vm.machine.clock.now(), vm.machine.mode)
        }
    }
}

fn assert_received_z(outcome: Result<RunOutcome, VmError>) {
    match outcome.unwrap() {
        RunOutcome::Returned { value, .. } => assert_eq!(value, Some(u32::from(b'z'))),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn interrupt_driven_reception_on_the_baseline() {
    let (outcome, stats, ..) = run_irq(false, ExecMode::Decoded);
    assert_received_z(outcome);
    assert_eq!(stats.irqs, 3);
}

#[test]
fn interrupt_handlers_run_privileged_under_opec() {
    let (outcome, stats, _, mode) = run_irq(true, ExecMode::Decoded);
    assert_received_z(outcome);
    // Three dispatches, each touching the UART *and* a PPB register
    // natively (no emulation faults: the handler runs privileged, as
    // the paper states for IRQ routines).
    assert_eq!(stats.irqs, 3);
    assert_eq!(stats.faults_emulated, 0);
    // The application itself still ended up unprivileged.
    assert_eq!(mode, Mode::Unprivileged);
}

#[test]
fn irq_handlers_are_rejected_as_operation_entries() {
    let (module, _) = irq_module();
    let err = opec::core::compile(
        module,
        Board::stm32f4_discovery(),
        &[OperationSpec::plain("USART2_IRQHandler")],
    )
    .unwrap_err();
    assert!(err.to_string().contains("interrupt handler"));
}

/// Interrupts land at the same instruction boundaries on both dispatch
/// paths: the plain interpreter and the decoded fast path take the same
/// interrupts, count the same instructions and end at the same cycle,
/// on the baseline and under OPEC.
#[test]
fn irq_dispatch_is_identical_in_both_exec_modes() {
    for opec in [false, true] {
        let plain = run_irq(opec, ExecMode::Plain);
        let decoded = run_irq(opec, ExecMode::Decoded);
        assert_eq!(plain.1.irqs, 3, "opec={opec}: {plain:?}");
        assert_eq!(plain, decoded, "opec={opec}");
    }
}
