//! IOMMU: DMA remapping between device (bus) addresses and host
//! physical memory.
//!
//! On platforms with an IOMMU, the NOVA microhypervisor restricts every
//! driver's DMA to the memory regions explicitly delegated to it and
//! blocks transfers into hypervisor memory (Section 4.2,
//! "Device-Driver Attacks"). This model enforces exactly that on every
//! simulated DMA transaction: a device with no domain cannot move a
//! byte, and a mapped domain only reaches pages the hypervisor entered.
//!
//! Without an IOMMU (`Iommu::disabled`), DMA is identity-mapped and
//! unrestricted — the configuration in which any DMA-capable driver
//! must be trusted.

use std::collections::BTreeMap;

use crate::PAddr;

/// Page size used for remapping granularity.
const PAGE: u64 = 4096;

/// A blocked DMA transaction, recorded for diagnostics and the
/// security tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaFault {
    /// Device that attempted the transfer.
    pub device: usize,
    /// Bus address that failed to translate.
    pub addr: u64,
    /// `true` if the device was writing to memory.
    pub write: bool,
}

enum Domain {
    /// Identity mapping (trusted device / directly assigned full
    /// memory).
    Passthrough,
    /// Explicit page mappings: bus page -> (host page, writable).
    Mapped(BTreeMap<u64, (PAddr, bool)>),
}

/// A blocked interrupt assertion (vector restriction, Section 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrqFault {
    /// Device that asserted the line.
    pub device: usize,
    /// The line it tried to raise.
    pub line: u8,
}

/// `table[device]`, grown to hold it: only a grant grows a table, a
/// lookup reads past the end as `None`.
fn entry<T>(table: &mut Vec<Option<T>>, device: usize) -> &mut Option<T> {
    if table.len() <= device {
        table.resize_with(device + 1, || None);
    }
    &mut table[device]
}

/// The IOMMU.
pub struct Iommu {
    enabled: bool,
    /// Each device's domain, indexed by its dense bus device number;
    /// `None`, or past the end, is no domain.
    domains: Vec<Option<Domain>>,
    /// Interrupt remapping: the single line each restricted device may
    /// assert ("the hypervisor ... restricts the interrupt vectors
    /// available to drivers", Section 4.2), indexed as `domains`.
    /// Unrestricted devices pass through (legacy behaviour).
    irq_allowed: Vec<Option<u8>>,
    /// Blocked transactions.
    pub faults: Vec<DmaFault>,
    /// Blocked interrupt assertions.
    pub irq_faults: Vec<IrqFault>,
}

impl Iommu {
    /// An enabled IOMMU with no domains: all DMA is blocked until the
    /// hypervisor grants mappings.
    pub fn enabled() -> Iommu {
        Iommu {
            enabled: true,
            domains: Vec::new(),
            irq_allowed: Vec::new(),
            faults: Vec::new(),
            irq_faults: Vec::new(),
        }
    }

    /// A platform without an IOMMU: all DMA is identity-mapped.
    pub fn disabled() -> Iommu {
        Iommu {
            enabled: false,
            domains: Vec::new(),
            irq_allowed: Vec::new(),
            faults: Vec::new(),
            irq_faults: Vec::new(),
        }
    }

    /// Grants `device` full identity access (trusted driver).
    pub fn set_passthrough(&mut self, device: usize) {
        *entry(&mut self.domains, device) = Some(Domain::Passthrough);
    }

    /// Maps one bus page for `device` to a host page.
    pub fn map_page(&mut self, device: usize, bus_page: u64, host_page: PAddr, write: bool) {
        let dom =
            entry(&mut self.domains, device).get_or_insert_with(|| Domain::Mapped(BTreeMap::new()));
        match dom {
            Domain::Mapped(m) => {
                m.insert(bus_page & !(PAGE - 1), (host_page & !(PAGE - 1), write));
            }
            Domain::Passthrough => {
                let mut m = BTreeMap::new();
                m.insert(bus_page & !(PAGE - 1), (host_page & !(PAGE - 1), write));
                *dom = Domain::Mapped(m);
            }
        }
    }

    /// Revokes one bus page from `device`.
    pub fn unmap_page(&mut self, device: usize, bus_page: u64) {
        if let Some(Some(Domain::Mapped(m))) = self.domains.get_mut(device) {
            m.remove(&(bus_page & !(PAGE - 1)));
        }
    }

    /// `device`'s mappings as `(bus page, host page, write)` in bus
    /// order — none without a domain — or `None` for an identity
    /// (passthrough) domain, which reaches everything.
    pub fn mappings(&self, device: usize) -> Option<impl Iterator<Item = (u64, PAddr, bool)> + '_> {
        let map = match self.domains.get(device) {
            Some(Some(Domain::Passthrough)) => return None,
            Some(Some(Domain::Mapped(m))) => Some(m),
            _ => None,
        };
        Some(
            map.into_iter()
                .flatten()
                .map(|(&bus, &(host, w))| (bus, host, w)),
        )
    }

    /// Removes the device's entire domain (all further DMA faults).
    pub fn clear_device(&mut self, device: usize) {
        if let Some(dom) = self.domains.get_mut(device) {
            *dom = None;
        }
    }

    /// Restricts `device` to asserting exactly `line` (interrupt
    /// remapping).
    pub fn restrict_irq(&mut self, device: usize, line: u8) {
        *entry(&mut self.irq_allowed, device) = Some(line);
    }

    /// Checks (and on failure records) an interrupt assertion.
    pub fn irq_permitted(&mut self, device: usize, line: u8) -> bool {
        if !self.enabled {
            return true;
        }
        match self.irq_allowed.get(device).copied().flatten() {
            Some(allowed) if allowed == line => true,
            None => true, // unrestricted legacy device
            Some(_) => {
                self.irq_faults.push(IrqFault { device, line });
                false
            }
        }
    }

    /// Translates one bus address for a DMA transaction, recording a
    /// fault on failure.
    pub fn translate(&mut self, device: usize, addr: u64, write: bool) -> Option<PAddr> {
        if !self.enabled {
            return Some(addr);
        }
        let res = match self.domains.get(device) {
            Some(Some(Domain::Passthrough)) => Some(addr),
            Some(Some(Domain::Mapped(m))) => match m.get(&(addr & !(PAGE - 1))) {
                Some((host, w)) if *w || !write => Some(host + (addr & (PAGE - 1))),
                _ => None,
            },
            _ => None,
        };
        if res.is_none() {
            self.faults.push(DmaFault {
                device,
                addr,
                write,
            });
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irq_restriction_blocks_spoofed_vectors() {
        let mut io = Iommu::enabled();
        // Unrestricted device: anything goes (legacy).
        assert!(io.irq_permitted(3, 9));
        // Restricted device: only its wired line.
        io.restrict_irq(1, 11);
        assert!(io.irq_permitted(1, 11));
        assert!(!io.irq_permitted(1, 0), "timer vector spoofing blocked");
        assert!(!io.irq_permitted(1, 1), "keyboard vector spoofing blocked");
        assert_eq!(io.irq_faults.len(), 2);
        assert_eq!(io.irq_faults[0], IrqFault { device: 1, line: 0 });
        // Without an IOMMU there is no enforcement.
        let mut io = Iommu::disabled();
        io.restrict_irq(1, 11);
        assert!(io.irq_permitted(1, 5));
    }

    #[test]
    fn disabled_is_identity() {
        let mut io = Iommu::disabled();
        assert_eq!(io.translate(0, 0x1234, true), Some(0x1234));
        assert!(io.faults.is_empty());
    }

    #[test]
    fn enabled_blocks_unmapped() {
        let mut io = Iommu::enabled();
        assert_eq!(io.translate(2, 0x1000, false), None);
        assert_eq!(io.faults.len(), 1);
        assert_eq!(io.faults[0].device, 2);
    }

    #[test]
    fn mapped_page_translates_with_offset() {
        let mut io = Iommu::enabled();
        io.map_page(1, 0x4000, 0x9000, true);
        assert_eq!(io.translate(1, 0x4123, true), Some(0x9123));
        assert_eq!(io.translate(1, 0x5000, false), None, "next page unmapped");
    }

    #[test]
    fn write_protection_enforced() {
        let mut io = Iommu::enabled();
        io.map_page(1, 0x4000, 0x9000, false);
        assert_eq!(io.translate(1, 0x4000, false), Some(0x9000));
        assert_eq!(io.translate(1, 0x4000, true), None);
    }

    #[test]
    fn unmap_revokes() {
        let mut io = Iommu::enabled();
        io.map_page(1, 0x4000, 0x9000, true);
        io.unmap_page(1, 0x4000);
        assert_eq!(io.translate(1, 0x4000, false), None);
    }

    #[test]
    fn passthrough_device() {
        let mut io = Iommu::enabled();
        io.set_passthrough(7);
        assert_eq!(io.translate(7, 0xdead_b000, true), Some(0xdead_b000));
        io.clear_device(7);
        assert_eq!(io.translate(7, 0xdead_b000, true), None);
    }

    #[test]
    fn domains_are_per_device() {
        let mut io = Iommu::enabled();
        io.map_page(1, 0x4000, 0x9000, true);
        assert_eq!(
            io.translate(2, 0x4000, false),
            None,
            "device 2 has no domain"
        );
    }

    #[test]
    fn a_device_past_every_table_is_blocked_and_recorded() {
        let mut io = Iommu::enabled();
        io.map_page(1, 0x4000, 0x9000, true);
        io.restrict_irq(1, 11);
        assert_eq!(io.translate(50, 0x4000, true), None);
        assert_eq!(
            io.faults,
            [DmaFault {
                device: 50,
                addr: 0x4000,
                write: true
            }]
        );
    }

    #[test]
    fn clearing_a_mapped_device_blocks_its_dma() {
        let mut io = Iommu::enabled();
        io.map_page(4, 0x4000, 0x9000, true);
        io.clear_device(4);
        assert_eq!(io.translate(4, 0x4000, false), None);
        assert_eq!(io.mappings(4).map(|m| m.count()), Some(0));
        io.clear_device(40); // no domain, past the table: nothing to do
        assert_eq!(io.faults.len(), 1);
    }

    #[test]
    fn a_page_mapped_over_passthrough_leaves_only_that_page() {
        let mut io = Iommu::enabled();
        io.set_passthrough(3);
        assert!(io.mappings(3).is_none(), "passthrough reaches everything");
        io.map_page(3, 0x4000, 0x9000, true);
        assert_eq!(io.translate(3, 0x4010, true), Some(0x9010));
        assert_eq!(io.translate(3, 0x8000, false), None);
        assert_eq!(
            io.mappings(3).map(|m| m.collect::<Vec<_>>()),
            Some(vec![(0x4000, 0x9000, true)])
        );
    }

    #[test]
    fn restricting_one_device_leaves_its_neighbours_unrestricted() {
        let mut io = Iommu::enabled();
        io.restrict_irq(5, 11);
        assert!(io.irq_permitted(2, 3));
        assert!(io.irq_permitted(9, 3));
        assert!(!io.irq_permitted(5, 3));
        assert_eq!(io.irq_faults, [IrqFault { device: 5, line: 3 }]);
    }

    #[test]
    fn mappings_of_an_unknown_device_are_empty() {
        let mut io = Iommu::enabled();
        io.map_page(1, 0x5000, 0xa000, false);
        io.map_page(1, 0x4000, 0x9000, true);
        assert_eq!(io.mappings(0).map(|m| m.count()), Some(0));
        assert_eq!(io.mappings(7).map(|m| m.count()), Some(0));
        assert_eq!(
            io.mappings(1).map(|m| m.collect::<Vec<_>>()),
            Some(vec![(0x4000, 0x9000, true), (0x5000, 0xa000, false)]),
            "bus order"
        );
        io.set_passthrough(2);
        assert!(io.mappings(2).is_none());
    }

    #[test]
    fn a_lookup_grows_no_table() {
        let mut io = Iommu::enabled();
        io.map_page(2, 0x4000, 0x9000, true);
        io.restrict_irq(3, 11);
        let sizes = |io: &Iommu| (io.domains.len(), io.irq_allowed.len());
        assert_eq!(sizes(&io), (3, 4));
        assert_eq!(io.translate(10_000, 0x4000, false), None);
        assert!(io.irq_permitted(10_000, 5));
        assert!(io.mappings(10_000).is_some());
        io.unmap_page(10_000, 0x4000);
        io.clear_device(10_000);
        assert_eq!(sizes(&io), (3, 4));
    }
}
