//! Log service: a minimal user-level driver for the serial port,
//! demonstrating the driver pattern — a deprivileged domain holding
//! only the UART's I/O ports, reached through a portal.

use nova_core::{CompCtx, Component, Kernel, Utcb};
use nova_trace::Kind as TraceKind;
use nova_x86::insn::OpSize;

use crate::proto::log as proto;

/// The log-service component.
#[derive(Default)]
pub struct LogService {
    /// Bytes written since start.
    pub written: u64,
    base: u16,
}

impl LogService {
    /// Creates the service driving the UART at `base` (COM1 in the
    /// standard layout).
    pub fn new(base: u16) -> LogService {
        LogService { written: 0, base }
    }
}

impl Component for LogService {
    fn name(&self) -> &str {
        "log-service"
    }

    fn on_call(&mut self, k: &mut Kernel, ctx: CompCtx, portal_id: u64, utcb: &mut Utcb) {
        let at = k.now();
        let pd = ctx.pd.0 as u64;
        if portal_id != proto::PORTAL_WRITE {
            // An unknown portal is a client-side protocol error: keep
            // the zero-bytes reply, but record the event instead of
            // dropping it silently.
            k.machine
                .bus
                .trace
                .emit(0, ctx.pd.0 as u16, TraceKind::BadPortal, portal_id, at);
            k.machine.bus.trace.metrics.add("bad_portal", pd, 1);
            utcb.set_msg(&[0]);
            return;
        }
        let mut n = 0u64;
        // Wait for the transmitter (LSR bit 5), then write each byte.
        for i in 0..utcb.len_words() {
            let byte = utcb.word(i) as u8;
            let lsr = k.dev_io_read(ctx, self.base + 5, OpSize::Byte);
            if lsr.is_none_or(|v| v & 0x20 == 0) {
                break;
            }
            if !k.dev_io_write(ctx, self.base, OpSize::Byte, byte as u32) {
                break;
            }
            n += 1;
        }
        self.written += n;
        let at = k.now();
        k.machine
            .bus
            .trace
            .emit(0, ctx.pd.0 as u16, TraceKind::LogWrite, n, at);
        if k.machine.bus.trace.active() {
            k.machine.bus.trace.metrics.add("log_bytes", pd, n);
        }
        utcb.set_msg(&[n]);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::root::{RootOps, RootPm};
    use nova_core::{Hypercall, KernelConfig};
    use nova_hw::machine::{Machine, MachineConfig};
    use nova_hw::serial::COM1;

    #[test]
    fn logs_reach_the_uart_only_with_ports() {
        let m = Machine::new(MachineConfig::core_i7(32 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let root_ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();

        let mut ops = RootOps::new(&mut k, root_ctx);
        let sel = ops.alloc_sel();
        let pd = ops.provision("log", sel, &[]).unwrap();
        let (comp, ec) = k.load_component(pd, 0, Box::new(LogService::new(COM1)));
        k.start_component(comp, ec);
        let svc_ctx = CompCtx { pd, ec, comp };
        k.hypercall(
            svc_ctx,
            Hypercall::CreatePt {
                ec: nova_core::kernel::SEL_SELF_EC,
                mtd: 0,
                id: proto::PORTAL_WRITE,
                dst: 0x20,
            },
        )
        .unwrap();

        // Without the ports, writes fail silently (0 written).
        let mut utcb = Utcb::new();
        utcb.set_msg(&[b'h' as u64, b'i' as u64]);
        k.ipc_call(svc_ctx, 0x20, &mut utcb).unwrap();
        assert_eq!(utcb.word(0), 0, "no I/O space, no output");

        // Root grants the UART; now it works.
        let uart = Hypercall::DelegateIo {
            dst_pd: sel,
            base: COM1,
            count: 8,
        };
        k.hypercall(root_ctx, uart).unwrap();
        let mut utcb = Utcb::new();
        utcb.set_msg(&[b'h' as u64, b'i' as u64]);
        k.ipc_call(svc_ctx, 0x20, &mut utcb).unwrap();
        assert_eq!(utcb.word(0), 2);
        assert_eq!(k.machine.serial_text(), "hi");
    }

    #[test]
    fn unknown_portal_is_counted_not_swallowed() {
        let m = Machine::new(MachineConfig::core_i7(32 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let root_ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();

        let mut ops = RootOps::new(&mut k, root_ctx);
        let sel = ops.alloc_sel();
        let pd = ops.provision("log", sel, &[]).unwrap();
        let (comp, ec) = k.load_component(pd, 0, Box::new(LogService::new(COM1)));
        k.start_component(comp, ec);
        let svc_ctx = CompCtx { pd, ec, comp };
        // A portal whose id is not PORTAL_WRITE: calls through it used
        // to be silently answered with 0 and left no record at all.
        k.hypercall(
            svc_ctx,
            Hypercall::CreatePt {
                ec: nova_core::kernel::SEL_SELF_EC,
                mtd: 0,
                id: proto::PORTAL_WRITE + 7,
                dst: 0x21,
            },
        )
        .unwrap();

        let mut utcb = Utcb::new();
        utcb.set_msg(&[b'x' as u64]);
        k.ipc_call(svc_ctx, 0x21, &mut utcb).unwrap();
        assert_eq!(utcb.word(0), 0, "unknown portal writes nothing");
        let m = k
            .machine
            .tracer()
            .metrics
            .get("bad_portal", pd.0 as u64)
            .expect("bad_portal recorded even with tracing off");
        assert_eq!(m.count, 1);
    }
}
