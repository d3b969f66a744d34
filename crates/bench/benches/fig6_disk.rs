//! Figure 6: CPU overhead of sequential disk reads by block size,
//! comparing native, directly assigned (IOMMU), fully virtualized
//! AHCI, and the batched paravirtual ring (Section 8.2). The
//! "batched" series is the architecture's answer to trap-and-emulate
//! exit cost: one doorbell exit per batch instead of ~6 trapped MMIO
//! accesses per request.

use nova_bench::configs::*;
use nova_bench::paper;
use nova_bench::report::{banner, write_json, Table};
use nova_guest::diskload::{self, DiskLoadParams};
use nova_guest::pvdiskload::{self, PvDiskLoadParams};
use nova_trace::json::Json;

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const BUDGET: u64 = 2_000_000_000_000;
const REQUESTS: u32 = 96;
/// Requests per doorbell in the batched series.
const BATCH: u32 = 8;

/// The PV guest stages a whole batch contiguously from
/// `layout::PV_DISK_BUF` (0x48000); cap the batch so it stays below
/// the guest stack at 0x9_0000 for huge blocks.
fn batch_for(block: u32) -> u32 {
    BATCH.min((0x48000 / block).max(1))
}

fn series(block: u32) -> (RunResult, RunResult, RunResult, RunResult) {
    let prog = diskload::build(DiskLoadParams {
        requests: REQUESTS,
        block_bytes: block,
    });
    let pv_prog = pvdiskload::build(PvDiskLoadParams {
        requests: REQUESTS,
        block_bytes: block,
        batch: batch_for(block),
    });
    let blm = nova_hw::cost::BLM;
    let native = run_native(blm, &prog, BUDGET);
    let direct = run_nova_direct_disk(blm, &prog, BUDGET);
    let virt = run_nova(blm, NovaKnobs::best(), "virtualized", &prog, BUDGET);
    let batched = run_nova_pv_disk(blm, &pv_prog, BUDGET);
    (native, direct, virt, batched)
}

/// Marginal VM exits per request for one path, measured as the delta
/// between an 80- and a 16-request run so boot/teardown exits cancel.
fn exits_per_request(pv: bool) -> f64 {
    let run = |requests: u32| -> u64 {
        if pv {
            let prog = pvdiskload::build(PvDiskLoadParams {
                requests,
                block_bytes: 4096,
                batch: BATCH,
            });
            run_nova_pv_disk(nova_hw::cost::BLM, &prog, BUDGET).exits()
        } else {
            let prog = diskload::build(DiskLoadParams {
                requests,
                block_bytes: 4096,
            });
            run_nova(
                nova_hw::cost::BLM,
                NovaKnobs::best(),
                "virtualized",
                &prog,
                BUDGET,
            )
            .exits()
        }
    };
    (run(80) - run(16)) as f64 / 64.0
}

fn main() {
    banner("Figure 6: CPU overhead for sequential disk reads");
    let hz = nova_hw::cost::BLM.ident.hz() as f64;

    let mut t = Table::new(&[
        "block",
        "native util%",
        "direct util%",
        "virt util%",
        "batched util%",
        "req/s",
        "MB/s",
        "direct cyc/req",
        "virt cyc/req",
        "batched cyc/req",
    ]);
    let mut rows = Vec::new();

    for block in [512u32, 1024, 2048, 4096, 8192, 16384, 32768, 65536] {
        let (native, direct, virt, batched) = series(block);
        assert!(
            native.ok && direct.ok && virt.ok && batched.ok,
            "all runs complete"
        );

        let secs = native.cycles as f64 / hz;
        let rps = REQUESTS as f64 / secs;
        let mbs = rps * block as f64 / 1e6;

        // Per-request virtualization overhead in cycles (busy-cycle
        // delta over native, per request) — the paper reports ~21 500
        // for direct at 16 KB.
        let nat_busy = (native.cycles - native.idle) as f64;
        let dir_busy = (direct.cycles - direct.idle) as f64;
        let virt_busy = (virt.cycles - virt.idle) as f64;
        let pv_busy = (batched.cycles - batched.idle) as f64;
        let dir_per_req = (dir_busy - nat_busy) / REQUESTS as f64;
        let virt_per_req = (virt_busy - nat_busy) / REQUESTS as f64;
        let pv_per_req = (pv_busy - nat_busy) / REQUESTS as f64;

        t.row(vec![
            format!("{block}"),
            format!("{:.1}", 100.0 * native.utilization()),
            format!("{:.1}", 100.0 * direct.utilization()),
            format!("{:.1}", 100.0 * virt.utilization()),
            format!("{:.1}", 100.0 * batched.utilization()),
            format!("{rps:.0}"),
            format!("{mbs:.1}"),
            format!("{dir_per_req:.0}"),
            format!("{virt_per_req:.0}"),
            format!("{pv_per_req:.0}"),
        ]);
        rows.push(
            Json::obj()
                .field("block", Json::U64(block as u64))
                .field("batch", Json::U64(batch_for(block) as u64))
                .field("native_util", Json::F64(native.utilization()))
                .field("direct_util", Json::F64(direct.utilization()))
                .field("virt_util", Json::F64(virt.utilization()))
                .field("batched_util", Json::F64(batched.utilization()))
                .field("virt_exits", Json::U64(virt.exits()))
                .field("batched_exits", Json::U64(batched.exits()))
                .field("direct_cyc_per_req", Json::F64(dir_per_req))
                .field("virt_cyc_per_req", Json::F64(virt_per_req))
                .field("batched_cyc_per_req", Json::F64(pv_per_req)),
        );
    }
    t.print();

    // The acceptance metric: marginal exits per request, trap vs.
    // batched, at 4 KB blocks and batch size 8.
    let virt_epr = exits_per_request(false);
    let pv_epr = exits_per_request(true);
    let ratio = pv_epr / virt_epr;
    println!(
        "\nExits per request at 4 KB: virtualized {virt_epr:.2}, batched {pv_epr:.2} \
         (batch {BATCH}) — ratio {ratio:.3}"
    );
    assert!(
        ratio <= 1.0 / 8.0,
        "batched path must cost <= 1/8 the exits of trap-and-emulate (got {ratio:.3})"
    );

    let path = write_json(
        REPO_ROOT,
        "fig6",
        vec![
            ("requests".into(), Json::U64(REQUESTS as u64)),
            ("batch".into(), Json::U64(BATCH as u64)),
            ("exits_per_request_virt".into(), Json::F64(virt_epr)),
            ("exits_per_request_batched".into(), Json::F64(pv_epr)),
            ("exit_ratio".into(), Json::F64(ratio)),
            ("rows".into(), Json::Arr(rows)),
        ],
    );
    println!("wrote {path}");

    println!(
        "\nPaper anchors: direct assignment costs ~{} cycles/request (6 exits); full \
         virtualization roughly doubles that again (6 more MMIO exits); the batched \
         ring amortizes the doorbell over the whole batch. Utilization is flat below \
         ~8 KB (latency-bound) and falls once bandwidth limits the request rate.",
        paper::S82_DIRECT_CYCLES_PER_REQUEST
    );
}
