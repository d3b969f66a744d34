//! Driver recovery (Section 4.2): the disk server is killed in the
//! middle of a guest workload; the kernel watchdog notifies root,
//! root destroys the dead protection domain (recursively revoking its
//! IOMMU mappings), respawns the server, rewires each client's portal,
//! and the VMM starts its channels over and resubmits — the
//! guest finishes with correct data, never seeing the crash.
//!
//! ```sh
//! cargo run --release --example driver_restart
//! ```

use nova::guest::diskload::{self, DiskLoadParams};
use nova::guest::rt;
use nova::hypervisor::{PdId, RunOutcome};
use nova::vmm::{LaunchOptions, System, VmmConfig};

fn main() {
    let requests = 16u32;
    let program = diskload::build(DiskLoadParams {
        requests,
        block_bytes: 4096,
    });
    // `supervised` launches the disk server with a heartbeat tick and
    // a kernel watchdog, and wires every VMM with a restart
    // notification semaphore.
    let mut sys = System::build(LaunchOptions::supervised(VmmConfig::full_virt(
        program, 2048,
    )));
    println!("supervised system booted: root + disk server + VMM + guest");

    // Let the workload get going, then pull the rug: a fault that
    // takes down the whole driver domain, as a wild write would.
    loop {
        let outcome = sys.run(Some(100_000));
        assert_ne!(
            outcome,
            RunOutcome::Shutdown(0),
            "guest finished before the crash"
        );
        let done = sys.k.counters.disk_ops;
        if done >= 3 {
            println!("guest progress: {done}/{requests} requests served");
            break;
        }
    }
    let srv_pd = PdId(
        sys.k
            .obj
            .pds
            .iter()
            .position(|pd| pd.name == "disk-server")
            .expect("disk-server PD") as u32,
    );
    sys.k.pd_fault(srv_pd, 0xdead);
    println!("\n*** disk server killed (PD fault) mid-workload ***\n");

    // No hand-holding from here: the watchdog death notification fires
    // root's supervisor, which destroys, respawns and rewires the
    // server; the VMM resubmits the request that died in flight.
    let outcome = sys.run(Some(60_000_000_000));
    assert_eq!(outcome, RunOutcome::Shutdown(0), "guest completed");

    let c = &sys.k.counters;
    println!("guest completed all {requests} requests; recovery evidence:");
    println!("  PD deaths:              {}", c.pd_deaths);
    println!("  driver restarts:        {}", c.driver_restarts);
    println!("  client request retries: {}", c.request_retries());
    assert_eq!(c.pd_deaths, 1);
    assert_eq!(c.driver_restarts, 1);

    // Data integrity: the guest's last block matches the disk's
    // pattern, bit for bit.
    let host = 0x1000 * 4096 + rt::layout::DISK_BUF as u64;
    let got = sys.k.machine.mem.read_bytes(host, 512);
    let expect = sys
        .k
        .machine
        .ahci()
        .sector((requests as u64 - 1) * (4096 / 512));
    assert_eq!(got, expect);
    println!("  last block verified against the disk's pattern: OK");

    // Both benchmark marks arrived: begin and end, no error path taken
    // inside the guest.
    let marks: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
    assert_eq!(marks, vec![0x1000, 0x1001]);
    println!("  guest benchmark marks intact: {marks:#06x?}");
    println!("\nthe guest never observed the crash — only latency");
}
