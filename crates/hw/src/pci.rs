//! PCI configuration space, accessed through the 0xCF8/0xCFC port
//! mechanism. Drivers (the NOVA user-level disk and network servers,
//! and the guest OS when devices are assigned directly) enumerate the
//! bus here to find vendor/device ids, class codes, BARs and interrupt
//! lines. The platform's host bridge and the VMM's virtual
//! configuration space are the same [`PciConfig`] over different
//! function lists.

use nova_x86::insn::OpSize;

/// Config-address port.
pub const CONFIG_ADDRESS: u16 = 0xcf8;
/// Config-data port.
pub const CONFIG_DATA: u16 = 0xcfc;
/// Last port of the config-data dword.
pub const CONFIG_DATA_LAST: u16 = 0xcff;

/// One PCI function's configuration header (type 0, the fields we
/// model).
#[derive(Clone, Copy, Debug)]
pub struct PciFunction {
    /// Device number on bus 0.
    pub device: u8,
    /// Vendor id.
    pub vendor_id: u16,
    /// Device id.
    pub device_id: u16,
    /// Class code (base << 8 | subclass).
    pub class: u16,
    /// BAR0: MMIO base (reported pre-assigned; writes ignored).
    pub bar0: u32,
    /// BAR0 window size in bytes.
    pub bar0_size: u32,
    /// Interrupt line (platform PIC input).
    pub irq_line: u8,
}

impl PciFunction {
    fn config_read(&self, reg: u8) -> u32 {
        match reg {
            0x00 => self.vendor_id as u32 | (self.device_id as u32) << 16,
            0x08 => (self.class as u32) << 16,
            0x10 => self.bar0,
            0x3c => self.irq_line as u32 | 0x0100, // pin INTA#
            _ => 0,
        }
    }
}

/// The configuration mechanism: the address latch in front of a list
/// of single-function devices on bus 0.
pub struct PciConfig {
    functions: &'static [PciFunction],
    address: u32,
}

impl PciConfig {
    /// Creates the mechanism over `functions`.
    pub fn new(functions: &'static [PciFunction]) -> PciConfig {
        PciConfig {
            functions,
            address: 0,
        }
    }

    /// Size of the record [`PciConfig::export_state`] writes.
    pub const STATE_LEN: usize = 4;

    /// The mechanism's state as a checkpoint record: the latched
    /// config address (the functions are configuration, not state).
    pub fn export_state(&self) -> [u8; Self::STATE_LEN] {
        self.address.to_le_bytes()
    }

    /// Restores a record [`PciConfig::export_state`] wrote.
    pub fn import_state(&mut self, s: &[u8; Self::STATE_LEN]) {
        self.address = u32::from_le_bytes(*s);
    }

    /// The function and register the latched address names: enable
    /// bit set, bus 0, function 0, a device on the list.
    fn selected(&self) -> Option<(&PciFunction, u8)> {
        if self.address & 0x8000_0000 == 0 {
            return None;
        }
        let bus = (self.address >> 16) & 0xff;
        let dev = ((self.address >> 11) & 0x1f) as u8;
        let func = (self.address >> 8) & 0x7;
        let reg = (self.address & 0xfc) as u8;
        if bus != 0 || func != 0 {
            return None;
        }
        self.functions
            .iter()
            .find(|f| f.device == dev)
            .map(|f| (f, reg))
    }

    /// Port read. An address that names no function reads all-ones of
    /// the access size.
    #[inline]
    pub fn read(&self, port: u16, size: OpSize) -> u32 {
        match port {
            CONFIG_ADDRESS => self.address,
            CONFIG_DATA..=CONFIG_DATA_LAST => match self.selected() {
                Some((f, reg)) => {
                    let v = f.config_read(reg);
                    match size {
                        OpSize::Dword => v,
                        OpSize::Byte => (v >> (8 * (port - CONFIG_DATA) as u32)) & 0xff,
                    }
                }
                None => size.mask(),
            },
            _ => size.mask(),
        }
    }

    /// Port write. BAR and command-register writes are accepted and
    /// ignored: resources are pre-assigned.
    #[inline]
    pub fn write(&mut self, port: u16, val: u32) {
        if port == CONFIG_ADDRESS {
            self.address = val;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> PciConfig {
        PciConfig::new(&[
            PciFunction {
                device: 2,
                vendor_id: 0x8086,
                device_id: 0x2922,
                class: 0x0106, // SATA AHCI
                bar0: 0xfeb0_0000,
                bar0_size: 0x1000,
                irq_line: 11,
            },
            PciFunction {
                device: 3,
                vendor_id: 0x8086,
                device_id: 0x10de,
                class: 0x0200, // Ethernet
                bar0: 0xfeb1_0000,
                bar0_size: 0x1000,
                irq_line: 10,
            },
        ])
    }

    fn cfg_read(pci: &mut PciConfig, dev: u8, reg: u8) -> u32 {
        pci.write(
            CONFIG_ADDRESS,
            0x8000_0000 | (dev as u32) << 11 | reg as u32,
        );
        pci.read(CONFIG_DATA, OpSize::Dword)
    }

    #[test]
    fn enumerate_devices() {
        let mut pci = setup();
        assert_eq!(cfg_read(&mut pci, 2, 0), 0x2922_8086);
        assert_eq!(cfg_read(&mut pci, 3, 0), 0x10de_8086);
        // Absent slot reads all-ones.
        assert_eq!(cfg_read(&mut pci, 9, 0), 0xffff_ffff);
    }

    #[test]
    fn class_bar_irq() {
        let mut pci = setup();
        assert_eq!(cfg_read(&mut pci, 2, 0x08) >> 16, 0x0106);
        assert_eq!(cfg_read(&mut pci, 2, 0x10), 0xfeb0_0000);
        assert_eq!(cfg_read(&mut pci, 2, 0x3c) & 0xff, 11);
        assert_eq!(cfg_read(&mut pci, 3, 0x3c) & 0xff, 10);
    }

    #[test]
    fn sub_dword_reads_select_a_byte_lane() {
        let mut pci = setup();
        cfg_read(&mut pci, 2, 0);
        assert_eq!(pci.read(CONFIG_DATA + 1, OpSize::Byte), 0x80);
        assert_eq!(pci.read(CONFIG_DATA + 3, OpSize::Byte), 0x29);
        assert_eq!(pci.read(CONFIG_ADDRESS, OpSize::Dword), 0x8000_1000);
    }

    #[test]
    fn disabled_address_bit() {
        let mut pci = setup();
        pci.write(CONFIG_ADDRESS, 2 << 11);
        assert_eq!(pci.read(CONFIG_DATA, OpSize::Dword), 0xffff_ffff);
        assert_eq!(pci.read(CONFIG_DATA, OpSize::Byte), 0xff);
    }
}
