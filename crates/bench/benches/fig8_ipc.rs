//! Figure 8: IPC microbenchmark — the cost of a message transfer
//! between two threads, same and cross address space, across the
//! Table 1 processors. Measured by actually performing portal calls on
//! a booted microhypervisor and timing the simulated clock.

use nova_bench::paper;
use nova_bench::report::{banner, write_json, Table};
use nova_core::cap::{Capability, Perms};
use nova_core::obj::ObjRef;
use nova_core::{CompCtx, Component, Hypercall, Kernel, KernelConfig, Utcb};
use nova_hw::cost::{CostModel, TABLE_1_MODELS};
use nova_hw::machine::{Machine, MachineConfig};
use nova_user::RootPm;

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// A handler that replies immediately (the rendezvous null-message).
struct Echo;

impl Component for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn on_call(&mut self, _k: &mut Kernel, _c: CompCtx, _p: u64, utcb: &mut Utcb) {
        utcb.set_msg(&[]);
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Measures one-way IPC cycles on `cost`, same- or cross-AS.
fn measure(cost: CostModel, cross: bool, words: usize) -> f64 {
    let m = Machine::new(MachineConfig {
        cost,
        ram: 32 << 20,
        iommu: false,
        cpus: 1,
    });
    let mut k = Kernel::new(m, KernelConfig::default());
    let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
    k.start_component(rc, re);
    let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();

    // The echo server: in root's PD (same AS) or its own (cross AS).
    let (pd, pd_sel) = if cross {
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "server".into(),
                vm: None,
                dst: 10,
            },
        )
        .unwrap();
        (nova_core::PdId(1), Some(10))
    } else {
        (k.root_pd, None)
    };
    let (comp, ec) = k.load_component(pd, 0, Box::new(Echo));
    k.start_component(comp, ec);
    let srv_ctx = CompCtx { pd, ec, comp };
    k.hypercall(
        srv_ctx,
        Hypercall::CreatePt {
            ec: nova_core::kernel::SEL_SELF_EC,
            mtd: 0,
            id: 1,
            dst: 0x20,
        },
    )
    .unwrap();
    // Caller (root) needs the portal capability.
    if pd_sel.is_some() {
        k.hypercall(
            srv_ctx,
            Hypercall::DelegateCap {
                dst_pd: nova_core::kernel::SEL_SELF_PD,
                sel: 0x20,
                perms: Perms::CALL,
                hot: 0x20,
            },
        )
        .ok();
        // Boot-time wiring: give root the portal directly.
        let cap = k.obj.pd(pd).caps.get(0x20).unwrap();
        k.obj.pd_mut(k.root_pd).caps.set(0x20, cap);
    }
    let _ = Capability {
        obj: ObjRef::Pd(pd),
        perms: Perms::NONE,
    };

    const N: u64 = 1000;
    let msg: Vec<u64> = (0..words as u64).collect();
    let start = k.machine.clock;
    for _ in 0..N {
        let mut utcb = Utcb::new();
        utcb.set_msg(&msg);
        k.ipc_call(ctx, 0x20, &mut utcb).expect("ipc");
    }
    let cycles = k.machine.clock - start;
    // A call is two message transfers (call + reply): report one way.
    cycles as f64 / N as f64 / 2.0
}

fn main() {
    banner("Figure 8: IPC microbenchmark (one-way message transfer)");

    let mut t = Table::new(&[
        "CPU",
        "same-AS cyc",
        "cross-AS cyc",
        "cross-AS ns",
        "paper ns",
    ]);
    for (m, (pname, pns)) in TABLE_1_MODELS.iter().zip(paper::FIG8_IPC_NS) {
        let same = measure(*m, false, 0);
        let cross = measure(*m, true, 0);
        let ns = m.ident.cycles_to_ns(cross as u64);
        t.row(vec![
            format!("{} ({})", pname, m.ident.name),
            format!("{same:.0}"),
            format!("{cross:.0}"),
            format!("{ns:.0}"),
            format!("{pns:.0}"),
        ]);
    }
    t.print();
    let one_way = t.to_json();

    println!("\nPer-word payload cost (BLM, cross-AS):");
    let mut t = Table::new(&["words", "one-way cyc"]);
    for words in [0usize, 4, 16, 63] {
        let c = measure(nova_hw::cost::BLM, true, words);
        t.row(vec![format!("{words}"), format!("{c:.0}")]);
    }
    t.print();
    let fields = vec![("rows".into(), one_way), ("per_word".into(), t.to_json())];
    println!("wrote {}", write_json(REPO_ROOT, "fig8", fields));
    println!(
        "\nPaper: 2–3 additional cycles per transferred word (Section 8.4); TLB \
         effects are the cross-AS minus same-AS gap."
    );
}
