//! CPUID identification data for the processors used in the paper's
//! microbenchmarks (Table 1).
//!
//! The VMM intercepts CPUID (one of the simplest VM exits, Section 7)
//! and answers from these tables; the simulated CPU answers from them
//! directly when running natively.

/// Vendor identification string split into the EBX/EDX/ECX registers the
/// way CPUID leaf 0 reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vendor {
    /// "GenuineIntel"
    Intel,
    /// "AuthenticAMD"
    Amd,
}

impl Vendor {
    /// The `[ebx, edx, ecx]` registers of CPUID leaf 0.
    pub fn regs(self) -> [u32; 3] {
        fn pack(s: &[u8; 4]) -> u32 {
            u32::from_le_bytes(*s)
        }
        match self {
            Vendor::Intel => [pack(b"Genu"), pack(b"ineI"), pack(b"ntel")],
            Vendor::Amd => [pack(b"Auth"), pack(b"enti"), pack(b"cAMD")],
        }
    }
}

/// Feature bits reported in CPUID leaf 1 EDX/ECX (subset).
pub mod feature {
    /// EDX: time-stamp counter.
    pub const TSC: u32 = 1 << 4;
    /// EDX: page-size extension.
    pub const PSE: u32 = 1 << 3;
    /// EDX: on-chip APIC.
    pub const APIC: u32 = 1 << 9;
    /// ECX: Virtual Machine Extensions (VT-x).
    pub const VMX: u32 = 1 << 5;
}

/// Identification of one CPU model (Table 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuIdent {
    /// Vendor string.
    pub vendor: Vendor,
    /// Marketing name (for reports).
    pub name: &'static str,
    /// Microarchitecture code name.
    pub core: &'static str,
    /// Family/model/stepping packed as CPUID leaf 1 EAX.
    pub signature: u32,
    /// Clock frequency in MHz.
    pub mhz: u32,
}

impl CpuIdent {
    /// Answers a CPUID leaf the way this model would.
    pub fn cpuid(&self, leaf: u32) -> [u32; 4] {
        let v = self.vendor.regs();
        match leaf {
            0 => [2, v[0], v[2], v[1]],
            1 => [
                self.signature,
                0,
                feature::VMX,
                feature::TSC | feature::PSE | feature::APIC,
            ],
            2 => [0, 0, 0, 0],
            _ => [0, 0, 0, 0],
        }
    }

    /// Clock frequency in Hz.
    pub fn hz(&self) -> u64 {
        self.mhz as u64 * 1_000_000
    }

    /// Converts a cycle count on this CPU to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * 1000.0 / self.mhz as f64
    }
}

/// AMD Opteron 2212 — Santa Rosa (K8), 2.00 GHz.
pub const OPTERON_2212: CpuIdent = CpuIdent {
    vendor: Vendor::Amd,
    name: "AMD Opteron 2212",
    core: "Santa Rosa (K8)",
    signature: 0x0004_0f12,
    mhz: 2000,
};

/// AMD Phenom 9550 — Agena (K10), 2.20 GHz.
pub const PHENOM_9550: CpuIdent = CpuIdent {
    vendor: Vendor::Amd,
    name: "AMD Phenom 9550",
    core: "Agena (K10)",
    signature: 0x0010_0f22,
    mhz: 2200,
};

/// Intel Core Duo T2500 — Yonah (YNH), 2.00 GHz.
pub const CORE_DUO_T2500: CpuIdent = CpuIdent {
    vendor: Vendor::Intel,
    name: "Intel Core Duo T2500",
    core: "Yonah (YNH)",
    signature: 0x0000_06e8,
    mhz: 2000,
};

/// Intel Core2 Duo E6600 — Conroe (CNR), 2.40 GHz.
pub const CORE2_E6600: CpuIdent = CpuIdent {
    vendor: Vendor::Intel,
    name: "Intel Core2 Duo E6600",
    core: "Conroe (CNR)",
    signature: 0x0000_06f6,
    mhz: 2400,
};

/// Intel Core2 Duo E8400 — Wolfdale (WFD), 3.00 GHz.
pub const CORE2_E8400: CpuIdent = CpuIdent {
    vendor: Vendor::Intel,
    name: "Intel Core2 Duo E8400",
    core: "Wolfdale (WFD)",
    signature: 0x0001_0676,
    mhz: 3000,
};

/// Intel Core i7 920 — Bloomfield (BLM), 2.67 GHz. The paper's primary
/// evaluation machine.
pub const CORE_I7_920: CpuIdent = CpuIdent {
    vendor: Vendor::Intel,
    name: "Intel Core i7 920",
    core: "Bloomfield (BLM)",
    signature: 0x0001_06a4,
    mhz: 2670,
};

/// AMD Phenom X3 8450 — the AMD machine of the Figure 5 comparison,
/// 2.1 GHz.
pub const PHENOM_X3_8450: CpuIdent = CpuIdent {
    vendor: Vendor::Amd,
    name: "AMD Phenom X3 8450",
    core: "Agena (K10)",
    signature: 0x0010_0f23,
    mhz: 2100,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_strings() {
        let [ebx, edx, ecx] = Vendor::Intel.regs();
        let mut s = Vec::new();
        s.extend_from_slice(&ebx.to_le_bytes());
        s.extend_from_slice(&edx.to_le_bytes());
        s.extend_from_slice(&ecx.to_le_bytes());
        assert_eq!(&s, b"GenuineIntel");
        let [ebx, edx, ecx] = Vendor::Amd.regs();
        let mut s = Vec::new();
        s.extend_from_slice(&ebx.to_le_bytes());
        s.extend_from_slice(&edx.to_le_bytes());
        s.extend_from_slice(&ecx.to_le_bytes());
        assert_eq!(&s, b"AuthenticAMD");
    }

    #[test]
    fn leaf0_reports_vendor() {
        let r = CORE_I7_920.cpuid(0);
        assert_eq!(r[1], u32::from_le_bytes(*b"Genu"));
        let r = PHENOM_9550.cpuid(0);
        assert_eq!(r[1], u32::from_le_bytes(*b"Auth"));
    }

    #[test]
    fn leaf1_reports_features() {
        let r = CORE_I7_920.cpuid(1);
        assert_eq!(r[0], 0x0001_06a4);
        assert_ne!(r[3] & feature::TSC, 0);
        assert_ne!(r[2] & feature::VMX, 0);
    }

    #[test]
    fn cycle_conversion() {
        // 2670 cycles at 2.67 GHz == 1000 ns.
        let ns = CORE_I7_920.cycles_to_ns(2670);
        assert!((ns - 1000.0).abs() < 1e-9);
    }
}
