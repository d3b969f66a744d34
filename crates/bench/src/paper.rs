//! The paper's reported numbers, used by the harnesses to print
//! paper-vs-measured comparisons. Sources: Figures 1 and 5–9,
//! Tables 1–2, Sections 8.1–8.5.

/// Figure 1: TCB sizes in KLOC (label, privileged-component KLOC,
/// total-stack KLOC).
pub const FIG1_TCB_KLOC: [(&str, u32, u32); 6] = [
    ("NOVA", 9, 36),       // 9 hypervisor + 7 user env + 20 VMM
    ("Xen", 100, 440),     // hypervisor + Dom0 Linux + QEMU
    ("KVM", 220, 360),     // Linux+KVM + QEMU
    ("KVM-L4", 235, 475),  // L4 + L4Linux + KVM + QEMU
    ("ESXi", 200, 200),    // monolithic hypervisor with drivers+VMM
    ("Hyper-V", 100, 400), // hypervisor + Windows Server 2008 parent
];

/// Figure 5: relative native performance (%) per configuration on the
/// Intel Core i7 (and AMD Phenom for the last group).
pub const FIG5_RELATIVE: [(&str, f64); 15] = [
    ("Native (Intel)", 100.0),
    ("Direct (EPT, no exits)", 99.4),
    ("NOVA EPT+VPID 2M", 99.2),
    ("KVM EPT+VPID", 98.1),
    ("Xen HVM", 97.3),
    ("ESXi (paper-reported)", 97.3),
    ("Hyper-V (paper-reported)", 95.9),
    ("NOVA EPT w/o VPID", 97.7),
    ("KVM EPT w/o VPID", 97.4),
    ("NOVA EPT 4K pages", 97.0),
    ("KVM EPT 4K pages", 95.7),
    ("NOVA shadow paging", 72.3),
    ("KVM shadow paging", 78.5),
    ("Xen PV", 96.5),
    ("L4Linux", 88.0),
];

/// Figure 8: cross-AS IPC time in ns per CPU (Table 1 order).
pub const FIG8_IPC_NS: [(&str, f64); 6] = [
    ("K8", 164.0),
    ("K10", 152.0),
    ("YNH", 192.0),
    ("CNR", 179.0),
    ("WFD", 131.0),
    ("BLM", 108.0),
];

/// Figure 9: vTLB-miss handling time in ns.
pub const FIG9_VTLB_NS: [(&str, f64); 5] = [
    ("YNH", 1355.0),
    ("CNR", 1140.0),
    ("WFD", 694.0),
    ("BLM", 527.0),
    ("BLM VPID", 491.0),
];

/// Table 2 columns (kernel compilation under EPT and vTLB, disk
/// benchmark with 4K blocks). Row labels follow the paper; `None`
/// means the row does not apply. The text extraction of the disk
/// column is partially ambiguous; values are reconstructed from the
/// paper's per-request analysis (6 MMIO + 6 interrupt-path exits per
/// request at 100 017 requests).
pub struct Tab2Row {
    /// Event name.
    pub name: &'static str,
    /// EPT column.
    pub ept: Option<u64>,
    /// vTLB column.
    pub vtlb: Option<u64>,
    /// Disk 4K column.
    pub disk: Option<u64>,
}

/// The paper's Table 2.
pub const TABLE2: [Tab2Row; 14] = [
    Tab2Row {
        name: "vTLB Fill",
        ept: None,
        vtlb: Some(181_966_391),
        disk: None,
    },
    Tab2Row {
        name: "Guest Page Fault",
        ept: None,
        vtlb: Some(13_987_802),
        disk: None,
    },
    Tab2Row {
        name: "CR Read/Write",
        ept: None,
        vtlb: Some(3_000_321),
        disk: None,
    },
    Tab2Row {
        name: "vTLB Flush",
        ept: None,
        vtlb: Some(2_328_044),
        disk: None,
    },
    Tab2Row {
        name: "Port I/O",
        ept: Some(610_589),
        vtlb: Some(723_274),
        disk: Some(961),
    },
    Tab2Row {
        name: "INVLPG",
        ept: None,
        vtlb: Some(537_270),
        disk: None,
    },
    Tab2Row {
        name: "Hardware Interrupts",
        ept: Some(174_558),
        vtlb: Some(239_142),
        disk: Some(101_185),
    },
    Tab2Row {
        name: "Memory-Mapped I/O",
        ept: Some(76_285),
        vtlb: Some(75_151),
        disk: Some(600_102),
    },
    Tab2Row {
        name: "HLT",
        ept: Some(3_738),
        vtlb: Some(4_027),
        disk: Some(100_017),
    },
    Tab2Row {
        name: "Interrupt Window",
        ept: Some(2_171),
        vtlb: Some(3_371),
        disk: Some(102_507),
    },
    Tab2Row {
        name: "Total VM Exits",
        ept: Some(867_341),
        vtlb: Some(202_864_793),
        disk: None,
    },
    Tab2Row {
        name: "Injected vIRQ",
        ept: Some(131_982),
        vtlb: Some(177_693),
        disk: None,
    },
    Tab2Row {
        name: "Disk Operations",
        ept: Some(12_715),
        vtlb: Some(12_526),
        disk: Some(100_017),
    },
    Tab2Row {
        name: "Runtime (seconds)",
        ept: Some(470),
        vtlb: Some(645),
        disk: Some(10),
    },
];

/// Section 8.5: the average VM-exit cost on the Core i7 and its
/// decomposition.
pub const S85_AVG_EXIT_CYCLES: f64 = 3900.0;
/// Share of the exit cost spent in guest/host transitions.
pub const S85_TRANSITION_SHARE: f64 = 0.26;
/// Share spent in IPC state transfer.
pub const S85_IPC_SHARE: f64 = 0.15;
/// Share spent in VMM emulation.
pub const S85_EMULATION_SHARE: f64 = 0.59;

/// Section 8.2: measured interrupt-path cost for the directly assigned
/// disk: 21 500 cycles for 6 VM exits per request.
pub const S82_DIRECT_CYCLES_PER_REQUEST: f64 = 21_500.0;

/// Section 8.3: ~16 300 cycles of overhead per network interrupt
/// (6 exits), ~20 000 interrupts/s plateau with coalescing.
pub const S83_CYCLES_PER_IRQ: f64 = 16_300.0;
